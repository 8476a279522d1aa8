"""Dense eigenvalue engine used to certify every construction in the package.

Exact outputs are certified by characteristic-polynomial identity, with
no root finding.  :func:`char_poly_matches` (a matrix and an integer
polynomial) first deflates the all-ones eigenvector of a rational
matrix with constant row sums; when what is left splits into diagonal
blocks of size 1 and 2, as it does for every Suleimanova-type output,
the identity is decided in Python integers, with no prime and no bound.
Otherwise, for rational matrices, it and :func:`same_char_poly` (two
matrices) run the Hessenberg reduction and recurrence on int64
residues modulo the fewest table primes below 2^26 whose product exceeds
a Hadamard-type bound on the coefficients, all primes and matrices in
one numpy kernel.  The residues come from each matrix's integer view,
which the matrix computes once.  They compare exact characteristic
polynomials over Q or Q(i) only for complex entries, more than 2^11 rows
or a bound beyond the whole table.  The exact polynomial itself
(:func:`char_poly`) is computed over Q or Q(i).

Float spectra of float matrices (and exact complex ones) come from
LAPACK through ``numpy.linalg.eigvals``; for real input the values are
then paired into exact conjugates.  Float spectra of real exact-backend
matrices, which tests and checks against float targets use, come from
the exact characteristic polynomial split into square-free factors, each
solved by ``numpy.roots``, so the solver only ever sees simple roots and
a multiple eigenvalue costs no accuracy.

Right eigenvectors come from inverse iteration, and are real for a real
eigenvalue of a real matrix.  For a constant-row-sum matrix
and its row-sum eigenvalue the right eigenvector is returned as the exact
all-ones vector.  The search for an eigenvector with no zero entry
(:func:`all_nonzero_eigenvector`) tries the eigenvalues of a real matrix
simple real first, then simple nonreal, then repeated, so a real matrix
yields a real vector whenever a simple real eigenvalue has a zero-free
one.  Every routine here reads a matrix's numpy array, largest entry
modulus and realness from the matrix, which computes them once.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError
from .matrix import DenseMatrix, deflated_rows, is_constant_row_sum
from .scalars import scalar_abs, to_float

_EPS = float(np.finfo(float).eps)

INVERSE_ITERATION_CAP = 50  # iteration cap per inverse-iteration call
REAL_AXIS_TOL = 1e-10  # relative |Im| that eigenvalues() flattens to real
ZERO_ENTRY_TOL = 1e-8  # entry / max-norm at or below which an entry is zero


@dataclass(frozen=True)
class SpectrumEstimate:
    """Computed eigenvalue multiset plus a residual: the largest change
    made while pairing the values of a real matrix into exact conjugates."""

    values: tuple
    residual: float

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue with one right eigenvector (A v = lam v) and the
    achieved residual.  The vector has unit max-norm unless a caller
    renormalizes it.
    """

    value: object
    vector: tuple
    residual: float


def _sort_key(z: complex):
    return (-abs(z), -z.real, -z.imag)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def _symmetrize_conjugates(values: Sequence[complex], scale: float, tol: float):
    """Pair computed eigenvalues of a real matrix into exact conjugates.

    Near-real values are flattened onto the axis; the rest are paired
    greedily with the nearest conjugate partner and averaged.  Returns the
    adjusted values and the largest adjustment made.
    """
    real_thresh = max(tol * scale, 64.0 * _EPS * scale)
    out: list = []
    pool: list = []
    adjust = 0.0
    for z in values:
        if abs(z.imag) <= real_thresh:
            adjust = max(adjust, abs(z.imag))
            out.append(complex(z.real, 0.0))
        else:
            pool.append(z)
    pool.sort(key=lambda z: -abs(z.imag))
    while pool:
        z = pool.pop(0)
        if not pool:
            # parity fallback: misclassified near-real straggler
            adjust = max(adjust, abs(z.imag))
            out.append(complex(z.real, 0.0))
            break
        target = z.conjugate()
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - target))
        w = pool[j]
        # the nearest candidate must actually sit near the mirror image;
        # two distinct real eigenvalues with opposite-sign imaginary noise
        # would otherwise be averaged into a fictitious pair
        if abs(w - target) > max(4.0 * abs(z.imag), real_thresh):
            adjust = max(adjust, abs(z.imag))
            out.append(complex(z.real, 0.0))
            continue
        pool.pop(j)
        x = 0.5 * (z.real + w.real)
        y = 0.5 * (abs(z.imag) + abs(w.imag))
        adjust = max(adjust, abs(z - complex(x, y if z.imag > 0 else -y)))
        adjust = max(adjust, abs(w - complex(x, y if w.imag > 0 else -y)))
        out.extend([complex(x, y), complex(x, -y)])
    return out, adjust


def eigenvalues(A: DenseMatrix) -> SpectrumEstimate:
    """All eigenvalues of A with a residual.

    Real exact-backend input goes through the exact characteristic
    polynomial and its square-free factorization, each factor solved by
    ``numpy.roots``, so multiple eigenvalues keep full accuracy (the
    numeric solver only ever sees simple roots).
    Any other input goes to ``numpy.linalg.eigvals``; a LAPACK failure
    raises :class:`ConvergenceError`.  For real input on either route the
    values are paired into exact conjugates and exactly real values, and
    the residual is the largest adjustment that pairing made (0 for
    complex input).
    """
    if A.exact and A.n >= 2 and A.is_real():
        vals = _exact_char_roots(char_poly(A))
        scale = max(1.0, to_float(A.max_abs()))
        vals, adjust = _symmetrize_conjugates(vals, scale, REAL_AXIS_TOL)
        return SpectrumEstimate(tuple(sorted(vals, key=_sort_key)), adjust)
    M = A.to_numpy()
    try:
        vals = [complex(v) for v in np.linalg.eigvals(M)]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver failed: {exc}") from None
    residual = 0.0
    if A.is_real():
        scale = max(1.0, A.max_abs())
        vals, residual = _symmetrize_conjugates(vals, scale, REAL_AXIS_TOL)
    return SpectrumEstimate(tuple(sorted(vals, key=_sort_key)), residual)


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def char_poly(A: DenseMatrix) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn].

    Exact backend: reduction to upper Hessenberg form by elementary
    similarities followed by the Hessenberg recurrence, O(n^3) field
    operations over Q or Q(i); every coefficient is a ``Fraction`` or a
    ``ComplexRational``.  A float matrix raises ``TypeError``.
    """
    if not A.exact:
        raise TypeError("char_poly needs an exact matrix")
    return _hessenberg_char_poly(A.rows)


def _hessenberg_char_poly(rows: Sequence[Sequence]) -> list:
    """Exact characteristic polynomial of a square matrix of exact scalars.

    The matrix is brought to upper Hessenberg form H by Gaussian
    similarities (row i -= u * row m, then column m += u * column i),
    pivoting on a nonzero sub-column entry with a matching row and column
    swap, and skipping a column that is already zero below the
    subdiagonal.  The char poly p_k of H's leading k x k block then obeys

        p_k = (t - h_kk) p_{k-1}
              - sum_{i<k} h_ik (h_{i+1,i} ... h_{k,k-1}) p_{i-1}

    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    :func:`_char_polys_mod` runs the same steps on residues.
    """
    H = [list(r) for r in rows]
    n = len(H)
    zero, one = Fraction(0), Fraction(1)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for r in H:
                r[piv], r[m] = r[m], r[piv]
        row_m = H[m]
        inv = 1 / row_m[m - 1]
        for i in range(m + 1, n):
            row_i = H[i]
            if not row_i[m - 1]:
                continue
            u = row_i[m - 1] * inv
            for j in range(m - 1, n):
                if row_m[j]:
                    row_i[j] -= u * row_m[j]
            for r in H:
                if r[i]:
                    r[m] += u * r[i]
    # polys[k] holds p_k lowest degree first
    polys = [[one]]
    for k in range(n):
        prev = polys[k]
        hkk = H[k][k]
        p = [zero] + prev
        if hkk:
            for d, c in enumerate(prev):
                p[d] -= hkk * c
        prod = one
        for i in range(k - 1, -1, -1):
            prod = prod * H[i + 1][i]
            if not prod:
                break
            coef = H[i][k] * prod
            if coef:
                for d, c in enumerate(polys[i]):
                    p[d] -= coef * c
        polys.append(p)
    return polys[n][::-1]


# Word-size primes for the identity: every one lies in
# [2^26 - 2^16, 2^26), so a product of two residues is below 2^52 and a
# sum of up to 2^11 such products is exact in int64.
_PRIME_TOP = 1 << 26
_PRIME_WINDOW = 1 << 16
_PRIME_FLOOR_BITS = 25  # every table prime exceeds 2^25
KERNEL_MAX_N = 1 << 11
_LIMB_BITS = 16
_LIMB_BLOCK = 16  # limbs per matmul against the power table


@functools.lru_cache(maxsize=None)
def _table_primes() -> np.ndarray:
    """Every prime in [2^26 - 2^16, 2^26), largest first (3,650 of them),
    by a sieve of that window with the primes up to 2^13; read-only."""
    lo = _PRIME_TOP - _PRIME_WINDOW
    root = math.isqrt(_PRIME_TOP)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    window = np.ones(_PRIME_WINDOW, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        window[-lo % q :: q] = False
    primes = lo + np.flatnonzero(window)[::-1].astype(np.int64)
    primes.flags.writeable = False
    return primes


@functools.lru_cache(maxsize=None)
def _powers() -> np.ndarray:
    """2^(16 j) mod p for j < _LIMB_BLOCK (rows) and every table prime
    (columns); read-only."""
    primes = _table_primes()
    rows = [np.ones_like(primes)]
    for _ in range(_LIMB_BLOCK - 1):
        rows.append((rows[-1] << _LIMB_BITS) % primes)
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _table_residues(values: list, columns) -> np.ndarray:
    """Python integers modulo the table primes at ``columns`` (an index
    or slice), one row per value.  Each value is split into 16-bit two's
    complement limbs (the top limb signed); each block of _LIMB_BLOCK
    limbs is one matmul against the power table, and the blocks are
    joined by Horner's rule in 2^(16 _LIMB_BLOCK) mod p."""
    top = max(max(values, default=0), -min(values, default=0))
    limbs = top.bit_length() // _LIMB_BITS + 1
    raw = b"".join(v.to_bytes(2 * limbs, "little", signed=True) for v in values)
    digits = np.frombuffer(raw, dtype="<u2").reshape(len(values), limbs)
    digits = digits.astype(np.int64)
    digits[:, -1] = np.frombuffer(raw, dtype="<i2")[limbs - 1 :: limbs]
    primes = _table_primes()[columns]
    powers = _powers()[:, columns]
    shift = (powers[-1] << _LIMB_BITS) % primes  # 2^(16 _LIMB_BLOCK) mod p
    res = 0
    for j in reversed(range(0, limbs, _LIMB_BLOCK)):
        block = digits[:, j : j + _LIMB_BLOCK]
        part = block @ powers[: block.shape[1]]
        part += res * shift
        part %= primes
        res = part
    return res


def same_char_poly(X: DenseMatrix, Y: DenseMatrix) -> bool:
    """Whether ``char_poly(X) == char_poly(Y)`` for two exact matrices.

    Decided exactly and deterministically by one Hessenberg run of each
    matrix modulo a set of word-size primes whose product exceeds a
    bound M.  For each matrix Z let r_i be the lcm of the denominators in
    row i, L_Z = prod r_i and H_Z = prod (r_i + ceil(||r_i row_i(Z)||_2)).
    With D = diag(r_i), L_Z c_k(Z) is a coefficient of det(t D - D Z), an
    integer polynomial whose coefficients are at most H_Z in modulus
    (expand by rows and bound each principal minor of D Z by Hadamard's
    inequality).  So L_X L_Y (c_k(X) - c_k(Y)) is an integer of modulus
    at most M = L_Y H_X + L_X H_Y.  The primes are the fewest of the
    table (largest first) whose product exceeds M, skipping any that
    divides an r_i; each then divides L_X L_Y (c_k(X) - c_k(Y)) exactly
    when the coefficients agree modulo it, so agreement modulo all of
    them is the identity over Q.  :func:`_char_polys_mod` runs X's and
    Y's residues modulo every chosen prime in one call.

    When an entry is not rational (a ``ComplexRational``), the size
    exceeds ``KERNEL_MAX_N`` or M exceeds what the table can cover, the
    answer is ``char_poly(X) == char_poly(Y)`` over Q or Q(i).
    """
    if X.n != Y.n:
        return False
    views = [_integer_rows(Z) for Z in (X, Y)]
    if None not in views and X.n <= KERNEL_MAX_N:
        (_, l_x, h_x), (_, l_y, h_y) = views
        stack = _residue_stack(views, l_y * h_x + l_x * h_y)
        if stack is not None:
            polys = _char_polys_mod(*stack[:2])
            half = len(polys) // 2
            return bool(np.array_equal(polys[:half], polys[half:]))
    return char_poly(X) == char_poly(Y)


def char_poly_matches(B: DenseMatrix, poly: Sequence[int]) -> bool:
    """Whether ``poly == poly[0] * char_poly(B)`` for an exact B and an
    integer polynomial ``poly`` (highest degree first, poly[0] > 0).

    A rational B whose rows all sum to alpha is first deflated
    (:func:`_deflated_match`).  When that leaves only diagonal blocks of
    size 1 and 2 the identity is decided there, in Python integers, with
    no prime and no bound.  Soundness, from B alone (nothing is taken
    from its construction):

    * With S = I - (e - e_0) e_0^T, S is a similarity, and B e = alpha e
      makes column 0 of S B S^-1 equal to (alpha, 0, ..., 0)^T, so
      S B S^-1 = [[alpha, *], [0, D]] with D_ij = b_ij - b_0j (i, j >= 1;
      :func:`~diagforge.matrix.deflated_rows`) and char(B) =
      (t - alpha) char(D).  A permutation of D to block-triangular form,
      one block per strongly connected component of D's nonzero pattern
      (:func:`_small_blocks`), keeps the char poly, so char(D) is the
      product of the blocks' char polys.
    * Let alpha = a / d in lowest terms and Q = poly.  alpha is an
      eigenvalue of B, so if Q(alpha) != 0 the verdict is False.
    * Otherwise Gauss's lemma gives Q = (d t - a) Q'' with Q'' in Z[t];
      the division by d t - a is exact in Z[t] exactly when Q(alpha) = 0.
    * Each block's char poly is scaled to integers by its rows' m_i, with
      a_ij the integers of D's rows (row i of D is a_i / m_i): a 1x1
      block gives m_i t - a_ii, a 2x2 block m_i m_j t^2 -
      (a_ii m_j + a_jj m_i) t + (a_ii a_jj - a_ij a_ji).  Let P be their
      product and Lam the product of their leading coefficients, so
      char(D) = P / Lam.
    * Q[0] char(B) = Q means Q[0] (t - alpha) P / Lam = (d t - a) Q'', and
      with Q[0] = d Q''[0] that holds exactly when Q''[0] P == Lam Q''.
    * Row 0 as the reference, n = 1 (D is empty, P = 1) and n = 2 need
      no special case.

    Otherwise, for a rational B, with r_i, L_B and H_B as in
    :func:`same_char_poly` and Q = poly, L_q = Q[0]: L_B c_k(B) is an
    integer of modulus at most H_B, so L_B (L_q c_k(B) - Q_k) is an
    integer of modulus at most M = L_q H_B + L_B ||Q||_inf.  B's residues
    are taken modulo the fewest table primes whose product exceeds M,
    skipping any that divides an r_i, and :func:`_char_polys_mod` runs
    them once (one slice per prime).  A chosen p does not divide L_B, so
    it divides L_B (L_q c_k(B) - Q_k) exactly when (L_q mod p) c_k(B) =
    Q_k modulo p; agreement modulo all of them is the identity over Q.  A
    prime that divides L_q needs no skipping, since nothing is divided by
    L_q.

    When B has a nonreal entry, exceeds ``KERNEL_MAX_N`` rows or M
    exceeds what the table can cover, ``char_poly(B)`` is computed over
    Q or Q(i) and compared.
    """
    if len(poly) != B.n + 1:
        return False
    view = _integer_rows(B)
    if view is not None:
        verdict = _deflated_match(B, poly)
        if verdict is not None:
            return verdict
    if view is not None and B.n <= KERNEL_MAX_N:
        _, l_b, h_b = view
        bound = poly[0] * h_b + l_b * max(map(abs, poly))
        stack = _residue_stack([view], bound, poly)
        if stack is not None:
            H, primes, res = stack
            coeffs = _char_polys_mod(H, primes) * res[0][:, None] % primes[:, None]
            return bool(np.array_equal(coeffs, res[::-1].T))
    lead = poly[0]
    return [lead * c for c in char_poly(B)] == list(poly)


def _deflated_match(B: DenseMatrix, poly: Sequence[int]) -> Optional[bool]:
    """The deflated verdict of :func:`char_poly_matches` for a rational
    B; None when B's row sums differ or its deflated matrix has a block
    larger than 2."""
    alpha = is_constant_row_sum(B)
    if alpha is None:
        return None
    rows = deflated_rows(B)
    blocks = _small_blocks(rows)
    if blocks is None:
        return None
    a, d = alpha.numerator, alpha.denominator
    # Q'' = Q / (d t - a) by synthetic division, exact in Z[t] exactly
    # when Q(alpha) = 0
    quotient, prev = [], 0
    for c in poly[:-1]:
        c += a * prev
        if c % d:
            return False
        prev = c // d
        quotient.append(prev)
    if poly[-1] + a * prev:
        return False
    P, lam = [1], 1
    for block in blocks:
        if len(block) == 1:
            (i,) = block
            m, row = rows[i]
            factor = (m, -row[i])
        else:
            i, j = block
            (mi, ri), (mj, rj) = rows[i], rows[j]
            trace = ri[i] * mj + rj[j] * mi
            factor = (mi * mj, -trace, ri[i] * rj[j] - ri[j] * rj[i])
        P = _poly_mul(P, factor)
        lam *= factor[0]
    return [quotient[0] * c for c in P] == [lam * c for c in quotient]


def _small_blocks(rows: list) -> Optional[list]:
    """The strongly connected components of the nonzero pattern of the
    square matrix whose rows are ``rows`` ((m_i, integers) pairs, as
    :func:`~diagforge.matrix.deflated_rows` gives them), as index tuples,
    when none has more than two members; None otherwise.

    Sink components are peeled off one at a time: a node with no edge
    to the rest is one of size 1, and two nodes whose only edges to the
    rest go to each other are one of size 2.  When neither is left, every
    sink component of the rest has at least three members.
    """
    out = [
        {j for j, x in enumerate(row) if x and j != i}
        for i, (_, row) in enumerate(rows)
    ]
    into = [[] for _ in rows]
    for i, targets in enumerate(out):
        for j in targets:
            into[j].append(i)
    live, blocks = set(range(len(rows))), []
    while live:
        for i in live:
            if not out[i]:
                block = (i,)
                break
            if len(out[i]) == 1:
                (j,) = out[i]
                if out[j] == {i}:
                    block = (i, j)
                    break
        else:
            return None
        for k in block:
            live.remove(k)
            for i in into[k]:
                out[i].discard(k)
        blocks.append(block)
    return blocks


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> list:
    """Product of two integer polynomials, highest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _integer_rows(Z: DenseMatrix):
    """Z's integer view, computed once per matrix: its rows scaled to
    integers, as (r_i, r_i * row_i) pairs, with L_Z and H_Z of
    :func:`same_char_poly`; None unless Z is rational."""
    return Z._integer_view()


def _residue_stack(views: list, bound: int, values: Sequence[int] = ()):
    """The matrices of ``views`` (integer views, as :func:`_integer_rows`
    gives them, all of one size n) modulo the fewest table primes that
    divide no r_i of any view and whose product exceeds ``bound``.

    Returns a (V K, n, n) int64 stack, each view's K slices in turn; its
    primes, the K chosen ones repeated for each view; and the integers
    ``values`` modulo the K primes, a (len(values), K) array.  None when
    the table holds too few such primes.

    Any ceil(bits(bound) / 25) table primes multiply past the bound, and
    at most bits(r) // 25 of them divide r, so the primes come from the
    first ``count`` of the table.
    """
    lcms = [r for rows, _, _ in views for r, _ in rows]
    distinct = list(dict.fromkeys(lcms))
    primes = _table_primes()
    count = -(-bound.bit_length() // _PRIME_FLOOR_BITS) + sum(
        r.bit_length() // _PRIME_FLOOR_BITS for r in distinct
    )
    lcm_res = _table_residues(distinct, slice(0, count))
    chosen, prod = [], 1
    for j in np.flatnonzero(lcm_res.all(axis=0)).tolist():
        if prod > bound:
            break
        chosen.append(j)
        prod *= int(primes[j])
    if prod <= bound:
        return None
    primes = primes[chosen]
    V, K, n = len(views), len(chosen), len(lcms) // len(views)
    inv = _inverses(lcm_res[:, chosen], primes)
    index = {r: i for i, r in enumerate(distinct)}
    inv = inv[[index[r] for r in lcms]]
    flat = [v for rows, _, _ in views for _, row in rows for v in row]
    ints = _table_residues(flat + list(values), chosen)
    extra = ints[len(flat) :]
    ints = ints[: len(flat)].reshape(V * n, n, K)
    ints *= inv[:, None, :]
    ints %= primes
    stack = ints.reshape(V, n, n, K).transpose(0, 3, 1, 2).reshape(V * K, n, n)
    return stack, np.tile(primes, V), extra


def _inverses(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Inverses of the nonzero residues ``a`` modulo ``primes`` (one per
    column), with one ``pow`` per column: invert the product of each
    column and peel it off row by row (Montgomery's trick)."""
    prefix = [np.ones_like(primes)]
    for row in a:
        prefix.append(prefix[-1] * row % primes)
    inv = np.array(
        [pow(x, -1, p) for x, p in zip(prefix[-1].tolist(), primes.tolist())],
        dtype=np.int64,
    )
    out = np.empty_like(a)
    for i in range(len(a) - 1, -1, -1):
        out[i] = inv * prefix[i] % primes
        inv = inv * a[i] % primes
    return out


def _char_polys_mod(H: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The char poly of each slice H[s] modulo primes[s], as residues
    lowest degree first: an (S, n + 1) array.  H is overwritten.

    The steps of :func:`_hessenberg_char_poly` on all slices at once.
    Each slice pivots on the first nonzero entry of its own sub-column,
    with its own row and column swap, and a slice whose sub-column is
    zero takes the step with multipliers 0.  Entries stay in [0, p); a
    product of two is below 2^52, so every sum of up to KERNEL_MAX_N of
    them is exact in int64.
    """
    S, n, _ = H.shape
    at = np.arange(S)
    p1, p2 = primes[:, None], primes[:, None, None]
    plist = primes.tolist()
    for m in range(1, n - 1):
        if not H[:, m, m - 1].all():
            piv = m + (H[:, m:, m - 1] != 0).argmax(axis=1)
            row = H[at, piv].copy()
            H[at, piv] = H[:, m]
            H[:, m] = row
            col = H[at, :, piv].copy()
            H[at, :, piv] = H[:, :, m]
            H[:, :, m] = col
        inv = np.array(
            [pow(a, -1, p) if a else 0 for a, p in zip(H[:, m, m - 1].tolist(), plist)],
            dtype=np.int64,
        )
        u = H[:, m + 1 :, m - 1] * inv[:, None] % p1
        H[:, m + 1 :, m - 1 :] -= u[:, :, None] * H[:, m : m + 1, m - 1 :]
        H[:, m + 1 :, m - 1 :] %= p2
        H[:, :, m] += (H[:, :, m + 1 :] @ u[:, :, None])[:, :, 0]
        H[:, :, m] %= p1
    # prods[:, i, k] = h_{i+1,i} ... h_{k,k-1} for i <= k, and 0 below
    prods = np.zeros_like(H)
    prods[:, range(n), range(n)] = 1
    for k in range(1, n):
        prods[:, :k, k] = prods[:, :k, k - 1] * H[:, k, k - 1 : k] % p1
    # H becomes the negated weights -h_ik prods[:, i, k] mod p
    H *= prods
    H %= p2
    np.negative(H, out=H)
    H %= p2
    # polys[:, k] holds p_k lowest degree first, t p_{k-1} plus the
    # negated weights times p_0 ... p_{k-1}: sums of nonnegative residues
    polys = np.zeros((S, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    for k in range(n):
        polys[:, k + 1, : k + 2] = (
            H[:, None, : k + 1, k] @ polys[:, : k + 1, : k + 2]
        )[:, 0]
        polys[:, k + 1, 1 : k + 2] += polys[:, k, : k + 1]
        polys[:, k + 1] %= p1
    return polys[:, n]


# ---------------------------------------------------------------------------
# exact polynomial algebra (square-free factorization for the exact route)
# ---------------------------------------------------------------------------


def _poly_trim(p: list) -> list:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _poly_monic(p: Sequence) -> list:
    p = _poly_trim(list(p))
    if p[0] == 0:
        raise ValueError("zero polynomial")
    return [c / p[0] for c in p]


def _poly_deriv(p: Sequence) -> list:
    n = len(p) - 1
    if n <= 0:
        return [Fraction(0)]
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _poly_sub(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    az = [Fraction(0)] * (n - len(a)) + list(a)
    bz = [Fraction(0)] * (n - len(b)) + list(b)
    return _poly_trim([x - y for x, y in zip(az, bz)])


def _poly_divmod(a: Sequence, b: Sequence):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if len(b) == 1 and b[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = len(a) - 1, len(b) - 1
    if da < db or (len(a) == 1 and a[0] == 0):
        return [Fraction(0)], list(a)
    r = list(a)
    q = [Fraction(0)] * (da - db + 1)
    for k in range(da - db + 1):
        if r[k] == 0:
            continue
        coef = r[k] / b[0]
        q[k] = coef
        for j in range(db + 1):
            r[k + j] -= coef * b[j]
    rem = r[da - db + 1 :]
    return _poly_trim(q), (_poly_trim(rem) if rem else [Fraction(0)])


def _poly_gcd(a: Sequence, b: Sequence) -> list:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while not (len(b) == 1 and b[0] == 0):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if len(a) == 1 and a[0] == 0:
        return a
    return _poly_monic(a)


def _squarefree_factors(p: Sequence) -> list:
    """Yun decomposition of an exact polynomial.

    Returns [(factor, multiplicity)] with monic square-free pairwise
    coprime factors; every root of p appears in exactly one factor, and
    the multiplicity-weighted factor degrees sum to deg p.
    """
    p = _poly_monic(p)
    if len(p) <= 2:
        return [(p, 1)]
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    out = []
    w, _ = _poly_divmod(p, g)
    y, _ = _poly_divmod(dp, g)
    i = 1
    while len(w) > 1:
        z = _poly_sub(y, _poly_deriv(w))
        gi = _poly_gcd(w, z)
        if len(gi) > 1:
            out.append((gi, i))
        w, _ = _poly_divmod(w, gi)
        y, _ = _poly_divmod(z, gi)
        i += 1
    return out


def _exact_char_roots(coeffs: Sequence) -> list:
    """Roots of an exact real polynomial as complex floats, with multiplicity.

    Splitting into square-free factors first means the numeric solver
    (``numpy.roots`` on each factor's float coefficients) only ever sees
    simple roots; a multiple eigenvalue is solved once at full accuracy
    and then repeated, instead of being smeared into a cluster of
    half-precision values.
    """
    out: list = []
    for f, mult in _squarefree_factors([Fraction(c) for c in coeffs]):
        for r in np.roots([to_float(c) for c in f]):
            out.extend([complex(r)] * mult)
    return out


# ---------------------------------------------------------------------------
# eigenvectors
# ---------------------------------------------------------------------------


def _project_out(y: np.ndarray, avoid: list) -> np.ndarray:
    for w in avoid:
        y = y - (w.conj() @ y) / (w.conj() @ w) * w
    return y


def _inverse_iteration(
    M: np.ndarray, lam: complex, tol: float, avoid: list, scale: float
):
    n = M.shape[0]
    rng = np.random.default_rng(987654321)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if avoid:
        x = _project_out(x, avoid)
    x = x / np.linalg.norm(x)
    jitter = 0.0
    eye = np.eye(n, dtype=complex)
    for _ in range(INVERSE_ITERATION_CAP):
        shift = lam + jitter
        B = M - shift * eye
        try:
            y = np.linalg.solve(B, x)
        except np.linalg.LinAlgError:
            jitter = (jitter + _EPS * scale) * 4.0 + _EPS * scale * 1j
            continue
        if not np.all(np.isfinite(y)):
            jitter = (jitter + _EPS * scale) * 4.0 + _EPS * scale * 1j
            continue
        if avoid:
            y = _project_out(y, avoid)
        ynorm = float(np.linalg.norm(y))
        if ynorm == 0.0:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = x / np.linalg.norm(x)
            continue
        x = y / ynorm
        if float(np.max(np.abs(M @ x - lam * x))) <= tol * scale:
            return x
    raise ConvergenceError(
        f"inverse iteration stalled at eigenvalue {lam} "
        f"(defective direction or bad shift)"
    )


def _finish_vector(M: np.ndarray, x: np.ndarray, lam: complex, real_m: bool):
    idx = int(np.argmax(np.abs(x)))
    x = x / x[idx]
    # for a real M and a real lam the real part of x (entry idx is 1) is
    # an eigenvector with no larger residual, so a real problem gets a
    # real vector by construction; otherwise only rounding-level
    # imaginary parts are dropped
    real_problem = lam.imag == 0 and real_m
    if real_problem or np.max(np.abs(x.imag)) <= 64.0 * _EPS * float(np.max(np.abs(x))):
        x = x.real.astype(complex)
    residual = float(np.max(np.abs(M @ x - lam * x))) / max(
        1.0, float(np.max(np.abs(x)))
    )
    vec = tuple(complex(v) if v.imag != 0 else float(v.real) for v in x)
    return vec, residual


def right_eigenvector(
    A: DenseMatrix, lam, tol: float = 1e-9, avoid: Sequence[Sequence] = ()
) -> EigenPair:
    """One right eigenvector for ``lam`` by inverse iteration, with unit
    max-norm; each iterate has the vectors in ``avoid`` projected out.

    For a constant-row-sum matrix with lam equal to the common row sum
    (and nothing to avoid), the exact all-ones vector is returned directly.
    """
    lamf = complex(to_float(lam))
    scale = max(1.0, A.max_abs())
    if not avoid:
        alpha = is_constant_row_sum(A)
        if alpha is not None and abs(complex(to_float(alpha)) - lamf) <= tol * scale:
            one = Fraction(1) if A.exact else 1.0
            vec = (one,) * A.n
            residual = float(abs(complex(to_float(alpha)) - lamf))
            return EigenPair(lam, vec, residual)
    M = A.to_numpy().astype(complex)
    avoid_np = [np.array([complex(to_float(v)) for v in w]) for w in avoid]
    x = _inverse_iteration(M, lamf, tol, avoid_np, scale)
    vec, residual = _finish_vector(M, x, lamf, A.is_real())
    return EigenPair(lam, vec, residual)


def all_nonzero_eigenvector(
    A: DenseMatrix, est: SpectrumEstimate, tol: float
) -> Optional[EigenPair]:
    """Scan eigenvalues for an eigenvector with no zero entries.

    ``est`` is a spectrum of A, or of a matrix similar to A, that the
    caller has already computed, largest modulus first.  Eigenvalues
    within 1e-7 max(1, |A|_max) of each other form one group, which
    yields up to as many independent eigenvectors as it has members.
    For a real A the groups are tried simple real first, then simple
    nonreal, then repeated, each class in largest-modulus order: a real
    eigenvalue of a real matrix has a real eigenvector, so a real A gets
    a real vector whenever a simple real eigenvalue has a zero-free one.
    For a complex A the groups are tried in largest-modulus order.
    Eigenpairs are accepted at residual ``tol``; an entry counts as
    nonzero when its modulus exceeds ZERO_ENTRY_TOL times the vector's
    max-norm.  Returns None when every eigenvalue is exhausted.
    """
    scale = max(1.0, A.max_abs())
    groups: list[list[complex]] = []
    for lam in est.values:
        if groups and abs(lam - groups[-1][0]) <= 1e-7 * scale:
            groups[-1].append(lam)
        else:
            groups.append([lam])
    if A.is_real():
        # sort() is stable, so each class keeps the largest-modulus order
        groups.sort(key=lambda g: 2 if len(g) > 1 else int(g[0].imag != 0))
    for group in groups:
        found: list[tuple] = []
        for _ in range(len(group)):
            try:
                pair = right_eigenvector(A, group[0], tol=tol, avoid=found)
            except (ConvergenceError, ValueError):
                break
            found.append(pair.vector)
            mags = [scalar_abs(v) for v in pair.vector]
            if min(mags) > ZERO_ENTRY_TOL * max(mags):
                return pair
    return None


# ---------------------------------------------------------------------------
# multiset matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    """Greedy minimal-distance pairing between two equal-size multisets."""

    pairs: tuple
    max_distance: float


def match_multisets(computed: Sequence, target: Sequence) -> MatchResult:
    """Pair each computed value with a target value, closest first.

    Both sequences are interpreted as complex multisets and must have the
    same length.  Returns the pairing (index_computed, index_target,
    distance) and the largest matched distance, which is ``inf`` when any
    value on either side is not finite: a NaN distance would otherwise
    compare as a perfect match.

    All n^2 distances are sorted once, by (distance, computed index,
    target index), and pairs are taken in that order, skipping any whose
    computed or target value is already paired; so of two equally close
    pairs the one with the smaller computed index, then the smaller
    target index, is taken first.  Cost O(n^2 log n).  Distances are
    ``hypot`` of the difference, bit-identical to Python's
    ``abs(complex)``.
    """
    a = [complex(to_float(z)) for z in computed]
    b = [complex(to_float(z)) for z in target]
    if len(a) != len(b):
        raise ValueError("multiset size mismatch")
    if not all(cmath.isfinite(z) for z in a + b):
        return MatchResult((), math.inf)
    n = len(a)
    diff = np.array(a, dtype=complex)[:, None] - np.array(b, dtype=complex)[None, :]
    dist = np.hypot(diff.real, diff.imag).ravel()
    # a stable sort keeps equal distances in row-major (i, j) order
    order = np.argsort(dist, kind="stable")
    used_a = [False] * n
    used_b = [False] * n
    pairs = []
    worst = 0.0
    for k in order.tolist():
        i, j = divmod(k, n)
        if used_a[i] or used_b[j]:
            continue
        d = float(dist[k])
        pairs.append((i, j, d))
        worst = max(worst, d)
        used_a[i] = used_b[j] = True
        if len(pairs) == n:
            break
    return MatchResult(tuple(pairs), worst)
