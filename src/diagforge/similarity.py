"""Similarity constructions that prescribe the diagonal of a matrix.

The central fact: adding e q^T to a constant-row-sum matrix with
sum(q) = 0 is a similarity when the row sum is a simple eigenvalue, so
the diagonal can then be rewritten freely as long as the trace is
preserved.  A general matrix is first moved into
constant-row-sum form by scaling with an eigenvector that has no zero
entries; when no such eigenvector exists (diagonal matrices are the
canonical case) an embedding trick manufactures one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .certify import SPECTRUM_REL_TOL
from .errors import CertificationError, FeasibilityError
from .matrix import (
    DenseMatrix,
    _diag_similarity_array,
    _row_sum_mean,
    _row_sums_array,
    deflated_rows,
    diag_similarity,
    exact_nullspace,
    is_constant_row_sum,
    normalize_vector,
    rank_one_add,
)
from .scalars import is_exact, is_real, re_part, scalar_abs, to_float

TRACE_MATCH_TOL = 1e-10
# relative eigenpair residual above which brauer_shift rejects the pair
SHIFT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class DiagonalTarget:
    """Prescribed diagonal entries.

    ``mode`` is "general" (any scalars, used by the similarity
    constructions) or "nonnegative" (real entries >= 0, used by the
    nonnegative realizations).
    """

    gammas: tuple
    mode: str = "general"

    def __post_init__(self):
        object.__setattr__(self, "gammas", normalize_vector(self.gammas))
        if self.mode not in ("general", "nonnegative"):
            raise ValueError(f"unknown mode: {self.mode}")
        if self.mode == "nonnegative":
            for g in self.gammas:
                if not is_real(g) or re_part(g) < 0:
                    raise ValueError("nonnegative mode requires real entries >= 0")

    @property
    def n(self) -> int:
        return len(self.gammas)

    def total(self):
        return sum(self.gammas)

    @property
    def exact(self) -> bool:
        return all(is_exact(g) for g in self.gammas)


def as_diagonal_target(obj, mode: str = "general") -> DiagonalTarget:
    if isinstance(obj, DiagonalTarget):
        return obj
    return DiagonalTarget(tuple(obj), mode=mode)


# ---------------------------------------------------------------------------
# trace of applied steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    """One applied transformation: op in {"to_float", "embed", "scale",
    "rank_one"} with its payload (anchor index or vector)."""

    op: str
    data: object = None


class SimilarityTrace:
    """Ordered log of the steps that produced a construction's output.

    ``replay(A)`` re-applies the logged steps to A and returns the result;
    on the exact backend the replay reproduces the original output
    bit-identically.
    """

    def __init__(self, steps: Sequence[TraceStep]):
        self.steps = tuple(steps)

    def replay(self, A: DenseMatrix) -> DenseMatrix:
        B = A
        n = B.n
        for step in self.steps:
            if step.op == "to_float":
                B = B.to_float()
            elif step.op == "embed":
                B = embed_anchor(B, step.data)
            elif step.op == "scale":
                B = diag_similarity(B, step.data)
            elif step.op == "rank_one":
                ones = (Fraction(1),) * n if B.exact else (1.0,) * n
                B = rank_one_add(B, ones, step.data)
            else:
                raise ValueError(f"unknown trace step: {step.op}")
        return B

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"SimilarityTrace({[s.op for s in self.steps]})"


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def set_diagonal_cs(
    A: DenseMatrix, gammas, tol: float = 1e-9
) -> DenseMatrix:
    """Rewrite the diagonal of a constant-row-sum matrix.

    Returns B = A + e q^T with q_i = gamma_i - a_ii.  Requires
    sum(gammas) equal to trace(A) (so that sum(q) = 0 and B is similar to
    A); B keeps the same constant row sum and has diagonal exactly
    ``gammas``.
    """
    target = as_diagonal_target(gammas)
    if target.n != A.n:
        raise ValueError("diagonal length must match matrix size")
    gs = _match_backend(target.gammas, A)
    if not A.exact:
        return DenseMatrix._from_array(_set_diagonal_array(A.to_numpy(), gs, tol)[0])
    if is_constant_row_sum(A) is None:
        raise ValueError("matrix does not have constant row sums")
    if sum(gs) != A.trace():
        raise ValueError("trace mismatch: sum(gammas) != trace(A)")
    return _rewrite_diagonal(A, gs)[0]


def _rewrite_diagonal(A: DenseMatrix, gs: tuple) -> tuple:
    """(A + e q^T, q) for q_i = gs_i - a_ii, unchecked: the caller knows
    that A has constant row sums and sum(gs) = trace(A).  Diagonal entries
    are written as ``gs`` itself, which dodges float rounding.  An exact
    zero entry takes q_j itself, the same value and type as 0 + q_j; a
    float one keeps the addition, since 0.0 + (-0.0) is 0.0."""
    q = tuple(g - d for g, d in zip(gs, A.diagonal()))
    out = []
    for i, row in enumerate(A.rows):
        if A.exact:
            row = [x + qj if x else qj for x, qj in zip(row, q)]
        else:
            row = [x + qj for x, qj in zip(row, q)]
        row[i] = gs[i]
        out.append(row)
    return DenseMatrix._trusted(out, A.exact), q


def _set_diagonal_array(a, gs: tuple, tol: float):
    """The float branch of :func:`set_diagonal_cs` on an array: returns
    (a + e q^T with diagonal ``gs``, q)."""
    if _row_sum_mean(a, tol) is None:
        raise ValueError("matrix does not have constant row sums")
    q = tuple(g - d for g, d in zip(gs, np.diagonal(a).tolist()))
    scale = max(1.0, float(np.max(np.abs(a))))
    if scalar_abs(sum(q)) > max(TRACE_MATCH_TOL, tol) * scale:
        raise ValueError("trace mismatch: sum(gammas) != trace(A)")
    out = a + np.array(q)
    # diagonal entries are written directly: a_ii + (g_i - a_ii) is g_i
    # exactly, and spelling it out dodges float rounding
    np.fill_diagonal(out, gs)
    return out, q


def _match_backend(values: tuple, A: DenseMatrix) -> tuple:
    if A.exact:
        if not all(is_exact(v) for v in values):
            raise TypeError(
                "float diagonal target with exact matrix; convert explicitly"
            )
        return values
    return tuple(to_float(v) for v in values)


def embed_anchor(A: DenseMatrix, anchor: int = 0) -> DenseMatrix:
    """Conjugate A by S = I + (e - e_a) e_a^T (columns of ones at ``anchor``).

    S^{-1} A S replaces column ``anchor`` by the row-sum vector and then
    subtracts row ``anchor`` from every other row.  When column ``anchor``
    of A is zero off the diagonal, S^{-1} e_a has no zero entries and is an
    eigenvector of the result for a_{anchor,anchor}.
    """
    n = A.n
    if not 0 <= anchor < n:
        raise ValueError("anchor out of range")
    if not A.exact:
        a = A.to_numpy()
        out = a.copy()
        out[:, anchor] = _row_sums_array(a)
        others = np.arange(n) != anchor
        out[others] -= out[anchor]
        return DenseMatrix._from_array(out)
    rows = [list(r) for r in A.rows]
    for i in range(n):
        rows[i][anchor] = sum(A.rows[i])
    base = list(rows[anchor])
    for i in range(n):
        if i != anchor:
            rows[i] = [x - y for x, y in zip(rows[i], base)]
    return DenseMatrix._trusted(rows, True)


def brauer_shift(A: DenseMatrix, pair, q) -> DenseMatrix:
    """Move one eigenvalue of A by adding v q^T for an eigenvector v.

    ``pair`` is an EigenPair (or any object with ``value`` and ``vector``)
    certifying A v = lam v.  The result has the same spectrum except that
    lam becomes lam + v^T q.  The eigenpair residual is re-verified here;
    a stale or inaccurate pair is rejected.
    """
    import numpy as np

    v = tuple(pair.vector)
    lam = pair.value
    if len(v) != A.n:
        raise ValueError("eigenvector length must match matrix size")
    Af = A.to_numpy().astype(complex)
    vf = np.array([complex(to_float(x)) for x in v])
    lamf = complex(to_float(lam))
    scale = max(1.0, A.max_abs(), float(np.max(np.abs(vf))))
    residual = float(np.max(np.abs(Af @ vf - lamf * vf)))
    if residual > SHIFT_RESIDUAL_TOL * scale:
        raise ValueError(
            f"eigenpair residual {residual:.3e} too large for a reliable shift"
        )
    fam_exact = A.exact and all(is_exact(x) for x in v) and all(
        is_exact(x) for x in q
    )
    if fam_exact:
        return rank_one_add(A, v, q)
    Afl = A.to_float()
    vv = tuple(to_float(x) for x in v)
    qq = tuple(to_float(x) for x in q)
    return rank_one_add(Afl, vv, qq)


# ---------------------------------------------------------------------------
# the general construction
# ---------------------------------------------------------------------------


def similar_with_diagonal(
    A: DenseMatrix, gammas, tol: float = 1e-9
) -> tuple[DenseMatrix, SimilarityTrace]:
    """Build B similar to A with prescribed diagonal entries.

    Requires A non-scalar and sum(gammas) = trace(A).  Three routes, tried
    in order:

    * A already has constant row sums (exact backend): rewrite the
      diagonal in place.  The row sum must be a simple eigenvalue of A,
      else :class:`FeasibilityError` (``repeated-row-sum``) is raised.
    * A is diagonal (exact backend): conjugate by the anchor embedding at
      the first index k whose value occurs once on the diagonal, scale
      by the known eigenvector (-1 except +1 at k), rewrite.  A diagonal
      A whose every value repeats raises :class:`FeasibilityError`.
    * otherwise, in floats: find an eigenvector with no zero entries
      (searching anchor embeddings when A itself has none), scale into
      constant-row-sum form, rewrite.  For a real A the search
      (:func:`~diagforge.eigen.all_nonzero_eigenvector`) tries simple
      real eigenvalues first, then simple nonreal ones, then repeated
      ones, so B is real whenever a simple real eigenvalue of A has a
      zero-free eigenvector.

    Returns (B, trace); replaying the trace on A reproduces B.  The output
    is certified once, on its own backend (see :func:`_certified`): the
    diagonal is checked for equality, and the spectrum by char-poly
    identity for an exact B or by matching B's float spectrum to that
    of A for a float B.  On the float route A becomes one numpy array
    once, with its largest entry modulus and realness, and every step up
    to B works on arrays; B becomes a ``DenseMatrix`` once, at the end.
    The spectrum of A is computed once and serves the eigenvector
    search, in A and in every anchor embedding (each is similar to A),
    and the certification.
    """
    target = as_diagonal_target(gammas)
    n = A.n
    if target.n != n:
        raise ValueError("diagonal length must match matrix size")
    # an exact matrix is compared exactly, and need not fit in a float
    if A.is_scalar_matrix(tol=0.0 if A.exact else 1e-12 * max(1.0, A.max_abs())):
        raise FeasibilityError(
            "scalar matrix: every similar matrix is A itself",
            condition="scalar-input",
        )
    tr = A.trace()
    total = target.total()
    exact_mode = A.exact and target.exact
    if exact_mode:
        if total != tr:
            raise ValueError("trace mismatch: sum(gammas) != trace(A)")
    else:
        if scalar_abs(to_float(total) - to_float(tr)) > max(
            TRACE_MATCH_TOL, tol
        ) * max(1.0, scalar_abs(tr), scalar_abs(total)):
            raise ValueError("trace mismatch: sum(gammas) != trace(A)")

    steps: list[TraceStep] = []

    alpha = is_constant_row_sum(A) if exact_mode else None
    if alpha is not None:
        _require_simple_row_sum(A, alpha)
        B, q = _rewrite_diagonal(A, target.gammas)
        steps.append(TraceStep("rank_one", q))
        return _certified(A, B, target, steps)

    if exact_mode and A.is_diagonal():
        # anchor at a value that occurs once: a_kk is then a simple
        # eigenvalue, and the rewrite at it a similarity
        diag = A.diagonal()
        k = next((i for i, a in enumerate(diag) if diag.count(a) == 1), None)
        if k is None:
            raise FeasibilityError(
                "every diagonal value of A repeats, so no anchor gives a "
                "simple eigenvalue to rewrite at",
                condition="no-simple-anchor",
            )
        M = embed_anchor(A, k)
        steps.append(TraceStep("embed", k))
        d = tuple(Fraction(1) if i == k else Fraction(-1) for i in range(n))
        N = diag_similarity(M, d)
        steps.append(TraceStep("scale", d))
        B, q = _rewrite_diagonal(N, target.gammas)
        steps.append(TraceStep("rank_one", q))
        return _certified(A, B, target, steps)

    # float route: A's array, built once, serves every step up to B
    from .eigen import all_nonzero_eigenvector, eigenvalues

    try:
        Af = A.to_float()
    except OverflowError:
        raise ValueError(
            "matrix entry beyond the float range, which the float route needs"
        ) from None
    spec_a = eigenvalues(Af)
    try:
        gf = tuple(to_float(g) for g in target.gammas)
    except OverflowError:
        raise ValueError(
            "diagonal entry beyond the float range, which the float route needs"
        ) from None
    if A.exact:
        steps.append(TraceStep("to_float"))
    M = Af.to_numpy()
    if is_constant_row_sum(Af, tol=tol) is None:
        pair = all_nonzero_eigenvector(Af, spec_a, tol)
        if pair is None:
            for i in range(n):
                Mi = embed_anchor(Af, i)
                pair = all_nonzero_eigenvector(Mi, spec_a, tol)
                if pair is not None:
                    M = Mi.to_numpy()
                    steps.append(TraceStep("embed", i))
                    break
            else:
                raise FeasibilityError(
                    "no eigenvector with all nonzero entries found, "
                    "directly or through any anchor embedding",
                    condition="no-total-support-eigenvector",
                )
        d = tuple(to_float(x) for x in pair.vector)
        M = _diag_similarity_array(M, d)
        steps.append(TraceStep("scale", d))
    B, q = _set_diagonal_array(M, gf, max(tol, 1e-6))
    steps.append(TraceStep("rank_one", q))
    return _certified(A, DenseMatrix._from_array(B), target, steps, spec_a)


def _require_simple_row_sum(A: DenseMatrix, alpha) -> None:
    """Raise :class:`FeasibilityError` unless the row sum ``alpha`` of
    the exact constant-row-sum matrix A is a simple eigenvalue of A.

    At a simple alpha the rewrite A + e q^T with sum(q) = 0 is a
    similarity; at a repeated one it can change the Jordan structure.
    For a rational A,
    char(A) = (t - alpha) char(D) with D as in
    :func:`~diagforge.matrix.deflated_rows`, so alpha is simple exactly
    when det(alpha I - D) != 0.  With alpha = a / d, row i of D scaled by
    d m_i is the integer row a m_i e_i - d (m_i row_i(D)), and the
    determinant's sign is decided by fraction-free elimination
    (:func:`_nonsingular`).  Otherwise A e = alpha e, and alpha is simple
    exactly when (A - alpha I)^T has a one-dimensional nullspace, spanned
    by a y with y . e != 0.
    """
    rows = deflated_rows(A)
    if rows is not None:
        a, d = alpha.numerator, alpha.denominator
        shifted = []
        for i, (m, ints) in enumerate(rows):
            row = [-d * x for x in ints]
            row[i] += a * m
            shifted.append(row)
        simple = _nonsingular(shifted)
    else:
        shifted = [
            [x - alpha if i == j else x for i, x in enumerate(col)]
            for j, col in enumerate(zip(*A.rows))
        ]
        null = exact_nullspace(DenseMatrix._trusted(shifted, True))
        simple = len(null) == 1 and bool(sum(null[0]))
    if not simple:
        raise FeasibilityError(
            "the row sum of A is a repeated eigenvalue, so rewriting the "
            "diagonal at it need not be a similarity",
            condition="repeated-row-sum",
        )


def _nonsingular(rows: list) -> bool:
    """Whether the square integer matrix with rows ``rows`` (a list the
    call consumes) has a nonzero determinant, by fraction-free (Bareiss)
    elimination with row pivoting: each step keeps every entry an
    integer, a minor of the matrix, by dividing exactly by the previous
    pivot."""
    prev = 1
    while rows:
        k = next((k for k, r in enumerate(rows) if r[0]), None)
        if k is None:
            return False
        p, *tail = rows.pop(k)
        rows = [
            [(p * x - r[0] * y) // prev for x, y in zip(r[1:], tail)] for r in rows
        ]
        prev = p
    return True


def _certified(A, B, target, steps, spec_a=None):
    """Return (B, its trace) once B passes self-certification.

    The diagonal must equal the target exactly.  An exact B must have the
    same characteristic polynomial as A, with no tolerance: decided by
    :func:`~diagforge.eigen.same_char_poly`, modulo word-size primes whose
    product exceeds a Hadamard-type bound for rational entries, else over
    Q or Q(i).
    A float B must have a float spectrum within
    SPECTRUM_REL_TOL (relative to the largest modulus in ``spec_a``) of
    ``spec_a``, the float spectrum of A computed by the caller.  A
    non-finite spectrum never matches.
    """
    from .eigen import eigenvalues, match_multisets, same_char_poly

    gs = _match_backend(target.gammas, B)
    diag_ok = all(x == g for x, g in zip(B.diagonal(), gs))
    if B.exact:
        spectrum_ok = same_char_poly(A, B)
        detail = f"char poly identical: {spectrum_ok}"
    else:
        lam_scale = max(1.0, max(abs(v) for v in spec_a.values))
        m = match_multisets(eigenvalues(B).values, spec_a.values)
        spectrum_ok = m.max_distance <= SPECTRUM_REL_TOL * lam_scale
        detail = f"spectrum distance: {m.max_distance:.3e}"
    if not (diag_ok and spectrum_ok):
        raise CertificationError(
            "constructed matrix failed self-certification "
            f"(diag ok: {diag_ok}, {detail})"
        )
    return B, SimilarityTrace(steps)
