"""Nonnegative matrices with prescribed spectrum and prescribed diagonal.

Two spectral families are handled.  "Wedge" tails (here: class F) have
Re z <= 0 and |Re z| >= |Im z|; they admit a direct block-triangular
template whose diagonal can then be rewritten freely.  "Wide wedge"
tails (class G) relax the slope to sqrt(3)|Re z| >= |Im z|; nonreal
pairs in G are realized three at a time through an explicit 3x3 form
and chained together by a block glue that shares one eigenvalue.  The
mixed case routes the F-part through the template, the rest through
the chain, and joins the two with a bridge eigenvalue whose value is
forced by the trace.

All constructions work on the exact (Fraction) backend when the inputs
are exact, so outputs can be compared entry by entry.  On exact input
every assignment of a nonnegative diagonal with the right trace to the
construction slots is feasible (see realize_mixed); on float input an
attempt can still fail by rounding, and that failure is reported rather
than returning a wrong matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .certify import RealizationCertificate
from .errors import CertificationError, FeasibilityError
from .matrix import (
    DenseMatrix,
    is_constant_row_sum,
    normalize_vector,
    permute_similarity,
)
from .scalars import (
    abs2,
    conj,
    im_part,
    is_exact,
    is_real,
    re_part,
    scalar_abs,
    to_float,
)
from .similarity import DiagonalTarget, _rewrite_diagonal, as_diagonal_target

DEGENERATE_CORNER_TOL = 1e-10


class SpectrumClass(str, Enum):
    SULEIMANOVA_F = "SuleimanovaF"
    SMIGOC_G = "SmigocG"
    MIXED = "Mixed"
    OUTSIDE = "Outside"


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class Spectrum:
    """A conjugation-closed multiset of eigenvalue targets.

    The dominant entry is the largest real element; it must dominate the
    modulus of every other entry (a necessary condition for nonnegative
    realizability, checked at construction).  The tail is stored
    normalized: real values descending, then conjugate pairs by real
    part descending, the +iy member immediately before the -iy member.
    """

    __slots__ = ("perron", "tail", "exact", "_pairs", "_reals")

    def __init__(self, values: Sequence, tol: float = 1e-9):
        vals = list(normalize_vector(values))
        if not vals:
            raise ValueError("empty spectrum")
        self.exact = all(is_exact(v) for v in vals)
        try:
            scale = max(1.0, max(scalar_abs(v) for v in vals))
        except OverflowError:
            raise ValueError(
                "spectrum value beyond the float range, which the tolerance scale needs"
            ) from None
        reals, pairs = _split_conjugates(vals, self.exact, tol * scale)
        if not reals:
            raise ValueError("no real element available for the dominant position")
        perron = max(reals)
        reals.remove(perron)
        self.perron = perron
        reals.sort(reverse=True)
        pairs.sort(key=lambda z: (-to_float(re_part(z)), to_float(im_part(z))))
        self._reals = tuple(reals)
        self._pairs = tuple(pairs)
        tail: list = list(reals)
        for z in pairs:
            tail.append(z)
            tail.append(conj(z))
        self.tail = tuple(tail)
        self._check_dominance(tol * scale * scale)

    def _check_dominance(self, slack: float):
        lam = self.perron
        if self.exact:
            if lam < 0:
                raise FeasibilityError(
                    "dominant eigenvalue is negative",
                    condition="perron-dominance",
                )
            for z in self.tail:
                if abs2(z) > lam * lam:
                    raise FeasibilityError(
                        f"dominant eigenvalue {lam} does not dominate |{z}|",
                        condition="perron-dominance",
                    )
        else:
            lamf = to_float(lam)
            if lamf < -slack:
                raise FeasibilityError(
                    "dominant eigenvalue is negative",
                    condition="perron-dominance",
                )
            for z in self.tail:
                if to_float(abs2(z)) > lamf * lamf + slack:
                    raise FeasibilityError(
                        f"dominant eigenvalue {lamf} does not dominate |{z}|",
                        condition="perron-dominance",
                    )

    @property
    def values(self) -> tuple:
        return (self.perron,) + self.tail

    @property
    def n(self) -> int:
        return 1 + len(self.tail)

    @property
    def tail_reals(self) -> tuple:
        return self._reals

    @property
    def tail_pairs(self) -> tuple:
        """One representative per conjugate pair, Im > 0."""
        return self._pairs

    def trace(self):
        total = self.perron + sum(self._reals)
        for z in self._pairs:
            total = total + 2 * re_part(z)
        return total

    def scale(self) -> float:
        return max(1.0, to_float(scalar_abs(self.perron)))

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"Spectrum(perron={self.perron!r}, tail={self.tail!r})"


def as_spectrum(obj, tol: float = 1e-9) -> Spectrum:
    if isinstance(obj, Spectrum):
        return obj
    return Spectrum(obj, tol=tol)


def _nonneg_target(gammas) -> DiagonalTarget:
    target = as_diagonal_target(gammas, mode="nonnegative")
    if target.mode != "nonnegative":
        target = DiagonalTarget(target.gammas, mode="nonnegative")
    return target


def _split_conjugates(vals: list, exact: bool, slack: float):
    """Partition into real values and +iy pair representatives."""
    reals: list = []
    upper: list = []
    lower: list = []
    for v in vals:
        if is_real(v):
            reals.append(re_part(v))
        elif not exact and abs(to_float(im_part(v))) <= slack:
            reals.append(to_float(re_part(v)))
        elif to_float(im_part(v)) > 0:
            upper.append(v)
        else:
            lower.append(v)
    if len(upper) != len(lower):
        raise ValueError("spectrum is not closed under conjugation")
    pairs = []
    for z in upper:
        want = conj(z)
        if exact:
            if want not in lower:
                raise ValueError(f"conjugate of {z} missing from spectrum")
            lower.remove(want)
            pairs.append(z)
        else:
            best = min(lower, key=lambda w: abs(complex(to_float(want)) - complex(to_float(w))))
            if abs(complex(to_float(want)) - complex(to_float(best))) > 2 * slack:
                raise ValueError(f"conjugate of {z} missing from spectrum")
            lower.remove(best)
            # symmetrize so the stored pair is an exact conjugate pair
            zc = complex(to_float(z))
            bc = complex(to_float(best))
            pairs.append(complex((zc.real + bc.real) / 2, (zc.imag - bc.imag) / 2))
    return reals, pairs


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ListClass:
    """Classification of a spectrum's tail.

    ``flags`` has one entry per tail element, aligned with
    Spectrum.tail: "F", "G-F", or "outside".  Boundaries are closed:
    equality counts as inside.
    """

    tag: SpectrumClass
    flags: tuple

    @property
    def f_count(self) -> int:
        return sum(1 for f in self.flags if f == "F")

    @property
    def gf_count(self) -> int:
        return sum(1 for f in self.flags if f == "G-F")

    def to_dict(self) -> dict:
        return {"tag": self.tag.value, "flags": list(self.flags)}


def _element_flag(z) -> str:
    x = re_part(z)
    y = im_part(z)
    if x > 0:
        return "outside"
    if x * x >= y * y:
        return "F"
    if 3 * x * x >= y * y:
        return "G-F"
    return "outside"


def classify(spectrum) -> ListClass:
    """Tag a spectrum's tail by region membership.

    SuleimanovaF: every tail element satisfies Re z <= 0, |Re z| >= |Im z|.
    SmigocG: every element satisfies the wider sqrt(3)|Re z| >= |Im z|
    bound but none the narrow one.  Mixed: both kinds present, all
    within the wide bound.  Outside: anything else.
    """
    spec = as_spectrum(spectrum)
    flags = tuple(_element_flag(z) for z in spec.tail)
    if any(f == "outside" for f in flags):
        tag = SpectrumClass.OUTSIDE
    elif all(f == "F" for f in flags):
        tag = SpectrumClass.SULEIMANOVA_F
    elif all(f == "G-F" for f in flags):
        tag = SpectrumClass.SMIGOC_G
    else:
        tag = SpectrumClass.MIXED
    return ListClass(tag=tag, flags=flags)


def check_trace(spectrum, gammas, tol: float = 1e-9) -> bool:
    """True when the diagonal sum equals the spectrum sum."""
    spec = as_spectrum(spectrum)
    target = as_diagonal_target(gammas)
    total = target.total()
    tr = spec.trace()
    if spec.exact and target.exact:
        return total == tr
    return abs(to_float(total) - to_float(tr)) <= tol * max(
        1.0, abs(to_float(tr)), abs(to_float(total))
    )


# ---------------------------------------------------------------------------
# wedge (F) template
# ---------------------------------------------------------------------------


def suleimanova_primitive(spectrum) -> DenseMatrix:
    """Block lower-triangular realization of an all-F spectrum.

    Row one is (lam1, 0, ...).  Each real tail value r contributes a row
    with lam1 - r in the first column and r on the diagonal.  Each pair
    x+-iy contributes two rows: first columns lam1 - x + y and
    lam1 - x - y, carrying the rotation block [[x, -y], [y, x]] on the
    diagonal.  Row sums are lam1 throughout; F membership makes every
    entry nonnegative.
    """
    spec = as_spectrum(spectrum)
    if any(f != "F" for f in classify(spec).flags):
        raise FeasibilityError(
            "tail leaves the |Re| >= |Im|, Re <= 0 region",
            condition="outside-F",
        )
    return _template(spec.perron, spec.tail_reals, spec.tail_pairs)


def _template(lam, reals, pairs) -> DenseMatrix:
    """:func:`suleimanova_primitive` from a dominant ``lam`` and F tail
    parts on one backend, unchecked."""
    n = 1 + len(reals) + 2 * len(pairs)
    zero = Fraction(0) if is_exact(lam) else 0.0
    rows = [[zero] * n for _ in range(n)]
    rows[0][0] = lam
    i = 1
    for r in reals:
        rows[i][0] = lam - r
        rows[i][i] = r
        i += 1
    for z in pairs:
        x, y = re_part(z), im_part(z)
        rows[i][0] = lam - x + y
        rows[i][i] = x
        rows[i][i + 1] = -y
        rows[i + 1][0] = lam - x - y
        rows[i + 1][i] = y
        rows[i + 1][i + 1] = x
        i += 2
    return DenseMatrix._trusted(rows, is_exact(lam))


def realize_suleimanova(spectrum, gammas, tol: float = 1e-9) -> DenseMatrix:
    """Nonnegative matrix with an all-F spectrum and prescribed diagonal.

    Any nonnegative diagonal with the right sum is feasible: the
    template's diagonal rewrite keeps every entry nonnegative because
    each tail column gains gamma_j - Re(lambda_j) >= 0 and the first
    column loses at most lam1 - gamma_1.
    """
    spec = as_spectrum(spectrum, tol=tol)
    target = _nonneg_target(gammas)
    if target.n != spec.n:
        raise ValueError("diagonal length must match spectrum size")
    if not check_trace(spec, target, tol=tol):
        raise ValueError("trace mismatch: sum(gammas) != sum(spectrum)")
    T = suleimanova_primitive(spec)
    gs = target.gammas
    if not (spec.exact and target.exact):
        T = T.to_float()
        gs = tuple(to_float(g) for g in gs)
    return _wedge_rewrite(T, gs)


def _wedge_rewrite(T: DenseMatrix, gs: tuple) -> DenseMatrix:
    """T's diagonal rewritten to ``gs``, floor-checked; for an exact all-F
    spectrum the check builds the integer view that certification reads."""
    B = _rewrite_diagonal(T, gs)[0]
    floor = 0 if B.exact else -1e-12 * max(1.0, B.max_abs())
    if not B.min_real_entry() >= floor:
        raise CertificationError("wedge realization produced a negative entry")
    return B


# ---------------------------------------------------------------------------
# 3x3 feasibility and closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerfectReport:
    """Per-condition feasibility report for a 3x3 target.

    Conditions: bounds (0 <= gamma_k <= lam1), trace (sums agree),
    second_symmetric (e2 of the diagonal >= e2 of the spectrum), and
    diagonal_max (max gamma >= Re lam2).  Truthiness is the conjunction.
    """

    bounds: bool
    trace: bool
    second_symmetric: bool
    diagonal_max: bool
    margins: dict

    @property
    def ok(self) -> bool:
        return self.bounds and self.trace and self.second_symmetric and self.diagonal_max

    @property
    def failing(self) -> tuple:
        return tuple(
            name
            for name, good in (
                ("bounds", self.bounds),
                ("trace", self.trace),
                ("second_symmetric", self.second_symmetric),
                ("diagonal_max", self.diagonal_max),
            )
            if not good
        )

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "bounds": self.bounds,
            "trace": self.trace,
            "second_symmetric": self.second_symmetric,
            "diagonal_max": self.diagonal_max,
            "margins": {k: to_float(v) for k, v in self.margins.items()},
        }


def perfect_feasible(lam1, lam2, lam3, g1, g2, g3, tol: float = 1e-9) -> PerfectReport:
    """Feasibility of a 3x3 nonnegative matrix with given spectrum and diagonal.

    lam1 must be real; lam2 and lam3 must be both real or a conjugate
    pair.  Margins are reported so callers can see how close a failing
    condition was.  The test is only meaningful when lam1 dominates the
    moduli of lam2 and lam3.
    """
    vals = normalize_vector((lam1, lam2, lam3))
    lam1, lam2, lam3 = vals
    gs = normalize_vector((g1, g2, g3))
    exact = all(is_exact(v) for v in vals) and all(is_exact(g) for g in gs)
    if not is_real(lam1):
        raise ValueError("lam1 must be real")
    scale = max(1.0, to_float(scalar_abs(lam1)))
    if is_real(lam2) != is_real(lam3):
        raise ValueError("lam2, lam3 must be both real or a conjugate pair")
    if not is_real(lam2):
        mismatched = (
            conj(lam2) != lam3 if exact else scalar_abs(conj(lam2) - lam3) > tol * scale
        )
        if mismatched:
            raise ValueError("lam2, lam3 must be both real or a conjugate pair")
    for g in gs:
        if not is_real(g):
            raise ValueError("diagonal entries must be real")
    lam1 = re_part(lam1)
    gs = tuple(re_part(g) for g in gs)
    slack = 0 if exact else tol * scale

    bound_margin = min(min(gs), min(lam1 - g for g in gs))
    bounds = bound_margin >= -slack

    trace_gap = sum(gs) - (lam1 + re_part(lam2) + re_part(lam3))
    trace = (trace_gap == 0) if exact else abs(to_float(trace_gap)) <= slack

    # e2 is real by conjugation closure; lam2*lam3 = x2*x3 - im2*im3 covers
    # both cases (real: im terms vanish; pair: im2 = -im3 gives +y^2)
    x2, x3 = re_part(lam2), re_part(lam3)
    e2_lam = lam1 * x2 + lam1 * x3 + (x2 * x3 - im_part(lam2) * im_part(lam3))
    e2_g = gs[0] * gs[1] + gs[0] * gs[2] + gs[1] * gs[2]
    sym_margin = e2_g - e2_lam
    second_symmetric = sym_margin >= (0 if exact else -tol * scale * scale)

    dom_margin = max(gs) - max(x2, x3)
    diagonal_max = dom_margin >= -slack

    return PerfectReport(
        bounds=bool(bounds),
        trace=bool(trace),
        second_symmetric=bool(second_symmetric),
        diagonal_max=bool(diagonal_max),
        margins={
            "bounds": bound_margin,
            "trace": trace_gap,
            "second_symmetric": sym_margin,
            "diagonal_max": dom_margin,
        },
    )


def construct_3x3(lam1, pair, gammas, tol: float = 1e-9) -> DenseMatrix:
    """Explicit 3x3 nonnegative matrix with spectrum {lam1, z, conj(z)}.

    ``pair`` is z = x + iy with x <= 0 and sqrt(3)|x| >= |y| (the wide
    wedge; y may be 0).  The matrix is

        [[g1,             0,        lam1 - g1],
         [lam1 - g2 - p,  g2,       p        ],
         [0,              lam1-g3,  g3       ]]

    with p = (e2(gammas) - e2(spectrum)) / (lam1 - g3).  The checks of
    the input (wide wedge, dominance, trace, gammas >= 0) imply those of
    perfect_feasible: with x <= 0 the trace reads lam1 = g1 + g2 + g3 +
    2|x| >= 2|x|, so 0 <= g_k <= lam1, max g_k >= 0 >= x, and
    e2(spectrum) = |z|^2 - 2 lam1 |x| <= y^2 - 3x^2 <= 0 <= e2(gammas).
    Also lam1 > g3 unless g1 = g2 = x = y = 0 (the all-zero corner), and
    the (2,1) entry is (g1 (g1 + 2|x|) + |z|^2) / (lam1 - g3) >= 0.  On
    float input a rounded entry below the floor raises "boundary".
    """
    vals = normalize_vector((lam1, pair))
    target = _nonneg_target(gammas)
    if target.n != 3:
        raise ValueError("exactly three diagonal entries required")
    exact = all(is_exact(v) for v in vals) and target.exact
    g1, g2, g3 = target.gammas
    if not exact:
        vals = tuple(to_float(v) for v in vals)
        g1, g2, g3 = to_float(g1), to_float(g2), to_float(g3)
    lam1, z = vals
    if not is_real(lam1):
        raise ValueError("lam1 must be real")
    lam1, x, y = re_part(lam1), re_part(z), abs(im_part(z))
    scale = max(1.0, to_float(scalar_abs(lam1)), to_float(scalar_abs(z)))
    slack = 0 if exact else tol * scale

    if x > slack or 3 * x * x < y * y - (0 if exact else tol * scale * scale):
        raise FeasibilityError(
            f"{complex(to_float(x), to_float(y))} is outside the wide wedge "
            "(Re <= 0 and 3 Re^2 >= Im^2 required)",
            condition="outside-G",
        )
    if lam1 < -slack or lam1 * lam1 < x * x + y * y - (
        0 if exact else tol * scale * scale
    ):
        raise FeasibilityError(
            "dominant eigenvalue does not dominate the pair modulus",
            condition="perron-dominance",
        )
    trace_gap = (g1 + g2 + g3) - (lam1 + 2 * x)
    if (trace_gap != 0) if exact else abs(to_float(trace_gap)) > max(tol, 1e-10) * scale:
        raise ValueError("trace mismatch: sum(gammas) != lam1 + 2*Re(pair)")

    tiny = DEGENERATE_CORNER_TOL * scale
    if (g3 == lam1) if exact else abs(lam1 - g3) <= tiny:
        # lam1 - g3 = g1 + g2 + 2|x| forces the all-zero case on exact input
        if not exact and max(g1, g2, abs(x), y) > tiny:
            raise FeasibilityError(
                "third diagonal entry coincides with the dominant eigenvalue "
                "outside the all-zero degenerate case",
                condition="degenerate-corner",
            )
        zero = Fraction(0) if exact else 0.0
        return DenseMatrix._trusted(
            [[zero, zero, lam1], [lam1, zero, zero], [zero, zero, lam1]], exact
        )

    B = _block(lam1, x, y, g1, g2, g3)
    if not exact and B.min_real_entry() < -1e-12 * max(1.0, B.max_abs()):
        raise FeasibilityError(
            "rounding pushed a boundary entry negative", condition="boundary"
        )
    return B


def _block(lam1, x, y, g1, g2, g3) -> DenseMatrix:
    """:func:`construct_3x3`'s matrix for x +- iy, unchecked: the caller
    knows its checks pass, lam1 > g3, and all values share a backend."""
    e2_lam = 2 * lam1 * x + (x * x + y * y)
    e2_g = g1 * g2 + g1 * g3 + g2 * g3
    p = (e2_g - e2_lam) / (lam1 - g3)
    exact = is_exact(lam1)
    zero = Fraction(0) if exact else 0.0
    return DenseMatrix._trusted(
        [
            [g1, zero, lam1 - g1],
            [lam1 - g2 - p, g2, p],
            [zero, lam1 - g3, g3],
        ],
        exact,
    )


# ---------------------------------------------------------------------------
# glue
# ---------------------------------------------------------------------------


def smigoc_glue(A1: DenseMatrix, A2: DenseMatrix, t, tol: float = 1e-9) -> DenseMatrix:
    """Glue two blocks through a shared eigenvalue.

    A1 = [[A11, a],[b^T, c]]: A1's trailing diagonal entry c must equal
    A2's constant row sum, and t must be a left eigenvector of A2 for c
    with entry sum 1; the caller has it from A2's construction.  Returns
    C = [[A11, a t^T],[e b^T, A2]], which has A1's spectrum plus A2's
    spectrum with one copy of c removed, and diagonal (diag A1 without
    c, diag A2).
    """
    n1 = A1.n
    if n1 < 2:
        raise ValueError("first block must be at least 2x2")
    exact = A1.exact and A2.exact
    if exact:
        t = normalize_vector(t, "exact")
    else:
        A1, A2 = A1.to_float(), A2.to_float()
        t = tuple(to_float(x) for x in t)
    if len(t) != A2.n:
        raise ValueError("glue vector length must match the second block")
    alpha = is_constant_row_sum(A2, tol=tol)
    if alpha is None:
        raise ValueError("second block must have constant row sums")
    corner = A1[n1 - 1, n1 - 1]
    if (
        (corner != alpha)
        if exact
        else scalar_abs(corner - alpha) > tol * max(1.0, scalar_abs(alpha))
    ):
        raise ValueError(
            "trailing diagonal entry of the first block must equal the "
            "row-sum constant of the second"
        )
    return _glue(A1, A2, t)


def _glue(A1: DenseMatrix, A2: DenseMatrix, t: tuple) -> DenseMatrix:
    """:func:`smigoc_glue` on blocks that meet its conditions, unchecked."""
    k = A1.n - 1
    rows = [list(r[:k]) + [r[k] * tj for tj in t] for r in A1.rows[:k]]
    b = list(A1.rows[k][:k])
    return DenseMatrix._trusted(rows + [b + list(r) for r in A2.rows], A1.exact)


def _block_vector(B: DenseMatrix) -> tuple:
    """Left eigenvector, entry sum 1, of a construct_3x3 block for its row sum.

    For [[b11, 0, b13], [b21, b22, b23], [0, b32, b33]] with row sums lam
    it is proportional to (b21 b32, b13 b32, b13 (b21 + b23)).  On a chain
    block the pair is nonreal, so b21 > 0 and b32 = lam - g3 > 0 make the
    first entry, and the sum, positive.
    """
    (_, _, b13), (b21, _, b23), (_, b32, _) = B.rows
    v = (b21 * b32, b13 * b32, b13 * (b21 + b23))
    s = v[0] + v[1] + v[2]
    return tuple(x / s for x in v)


# ---------------------------------------------------------------------------
# chain of 3x3 blocks
# ---------------------------------------------------------------------------


def _chain(lam1, pairs, gammas, tol: float, level: int = 0):
    """Realize {lam1} + pairs with diagonal ``gammas``.

    Returns (B, bridges, ts, u).  Splits the last pair into a 3x3 block
    whose dominant eigenvalue is the bridge c = (lam1 + 2 sum Re of the
    other pairs) - sum of the other gammas (lam1 itself for one pair),
    then recurses on the prefix with c occupying the last diagonal slot.
    Bridges are reported outermost first, glue vectors aligned with
    them; u is B's left eigenvector for lam1 with entry sum 1.
    """
    c = lam1
    for z in pairs[:-1]:
        c = c + 2 * re_part(z)
    c = c - sum(gammas[:-3])
    if is_exact(c):
        # feasible by the proof in realize_mixed's docstring
        block = _block(c, re_part(pairs[-1]), im_part(pairs[-1]), *gammas[-3:])
    else:
        # rounding can trip construct_3x3's corner and floor checks
        try:
            block = construct_3x3(c, pairs[-1], gammas[-3:], tol=tol)
        except FeasibilityError as exc:
            raise FeasibilityError(
                f"level {level}: {exc}", level=level, condition=exc.condition
            ) from None
    t = _block_vector(block)
    if len(pairs) == 1:
        return block, (), (), t
    prefix, bridges, ts, u = _chain(
        lam1, pairs[:-1], tuple(gammas[:-3]) + (c,), tol, level + 1
    )
    C = _glue(prefix, block, t)
    # if u^T prefix = lam1 u^T, then (u without its last entry, u_last t)
    # is the same for C, and its entries still sum to 1 since sum(t) = 1
    return C, (c,) + bridges, (t,) + ts, u[:-1] + tuple(u[-1] * x for x in t)


def realize_smigoc(spectrum, gammas, tol: float = 1e-9) -> DenseMatrix:
    """Realize a spectrum whose tail is nonreal wide-wedge pairs.

    The diagonal entries are consumed in the order given: the last three
    feed the outermost 3x3 block, and so on inward.  On exact input
    every order is feasible (see realize_mixed); on float input a level
    that rounding pushes past a boundary is reported with its level.
    """
    spec = as_spectrum(spectrum, tol=tol)
    target = _nonneg_target(gammas)
    if target.n != spec.n:
        raise ValueError("diagonal length must match spectrum size")
    if spec.tail_reals:
        raise FeasibilityError(
            "tail contains real values; the pair chain needs conjugate pairs only",
            condition="real-tail",
        )
    cls = classify(spec)
    if any(f == "outside" for f in cls.flags):
        raise FeasibilityError(
            "tail leaves the wide wedge", condition="outside-class"
        )
    if not check_trace(spec, target, tol=tol):
        raise ValueError("trace mismatch: sum(gammas) != sum(spectrum)")
    gs = target.gammas
    if not (spec.exact and target.exact):
        gs = tuple(to_float(g) for g in gs)
        spec = Spectrum([to_float(v) for v in spec.values], tol=tol)
    return _chain(spec.perron, spec.tail_pairs, gs, tol)[0]


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizationPlan:
    """Record of how a realization was assembled.

    ``assignment`` maps construction slots to positions of the caller's
    diagonal (slot k received gammas[assignment[k]]); ``permutation`` is
    the final similarity permutation that restored the caller's order.
    ``bridges`` lists bridge eigenvalues outermost first, and
    ``glue_vectors`` the left eigenvectors used at the matching joins.
    ``head_part`` is the dominant value plus the F-tail; ``chain_part``
    the nonreal wide-wedge pair representatives.  ``certificate`` is the
    passing certificate of the output; :meth:`to_dict` leaves it out.
    """

    tag: SpectrumClass
    head_part: tuple
    chain_part: tuple
    assignment: tuple
    permutation: tuple
    bridges: tuple
    glue_vectors: tuple
    certificate: RealizationCertificate = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "class": self.tag.value,
            "head_part": list(self.head_part),
            "chain_part": list(self.chain_part),
            "assignment": list(self.assignment),
            "permutation": list(self.permutation),
            "bridges": list(self.bridges),
            "glue_vectors": [list(t) for t in self.glue_vectors],
        }


def realize_mixed(
    spectrum,
    gammas,
    order: str = "auto",
    tol: float = 1e-9,
):
    """Nonnegative realization with prescribed spectrum and diagonal.

    Dispatches on the tail class: all-F goes through the triangular
    template, all nonreal wide-wedge pairs through the 3x3 chain, and
    the mixed case joins an F-block to the chain through a bridge
    eigenvalue c = sum of the head spectrum minus the head diagonal.

    order="keep" consumes diagonal entries exactly in the order given
    (the template/F block first, then the chain).  order="auto" gives
    the largest entries to the F block first and retries the caller's
    order.  The output diagonal always matches ``gammas`` in the
    caller's order; the plan records the internal assignment and the
    permutation that restored it.

    On exact input every order succeeds, so the first attempt is the
    only one.  By the trace, each bridge (and the innermost block's
    dominant value) is the sum of the diagonal entries given to the
    chain below it plus 2 sum |Re z| over its pairs, so each 3x3 block
    has lam = g1 + g2 + g3 + 2|x| with g_k >= 0: construct_3x3's proof
    applies, and lam > g3 as chain pairs are nonreal.  The F block takes
    any nonnegative diagonal (realize_suleimanova).  So the steps between
    this entry check and the exit certification are built unchecked; on
    float input an attempt can fail only by rounding at a boundary.

    Returns (B, RealizationPlan).  The output is certified internally
    (nonnegative, constant row sums, spectrum, diagonal) and the plan
    carries that certificate; a certification failure raises
    CertificationError and is a bug, not an input problem.
    """
    if order not in ("keep", "auto"):
        raise ValueError(f"unknown order: {order}")
    spec = as_spectrum(spectrum, tol=tol)
    target = _nonneg_target(gammas)
    n = spec.n
    if target.n != n:
        raise ValueError("diagonal length must match spectrum size")
    cls = classify(spec)
    if cls.tag is SpectrumClass.OUTSIDE:
        bad = [z for z, f in zip(spec.tail, cls.flags) if f == "outside"]
        raise FeasibilityError(
            f"tail elements outside the wide wedge: {bad}",
            condition="outside-class",
        )
    if not check_trace(spec, target, tol=tol):
        raise ValueError("trace mismatch: sum(gammas) != sum(spectrum)")
    if not (spec.exact and target.exact):
        spec = Spectrum([to_float(v) for v in spec.values], tol=tol)
        target = DiagonalTarget(
            tuple(to_float(g) for g in target.gammas), mode="nonnegative"
        )
        # reclassify on the float side so routing and flags stay consistent
        cls = classify(spec)

    head_vals, chain_pairs = _split_parts(spec)
    last_error: Optional[FeasibilityError] = None
    for sigma in _assignments(cls.tag, target, order):
        try:
            built, bridges, ts = _attempt(
                spec, cls, target, sigma, head_vals, chain_pairs, tol
            )
        except FeasibilityError as exc:
            last_error = exc
            continue
        perm = _inverse(sigma)
        B = built if perm == tuple(range(n)) else permute_similarity(built, perm)
        plan = RealizationPlan(
            tag=cls.tag,
            head_part=tuple(head_vals),
            chain_part=tuple(chain_pairs),
            assignment=sigma,
            permutation=perm,
            bridges=bridges,
            glue_vectors=ts,
            certificate=_self_certify(B, spec, target),
        )
        return B, plan
    raise FeasibilityError(
        f"no feasible diagonal assignment found (last failure: {last_error})",
        condition=last_error.condition,
        level=last_error.level,
    )


def _split_parts(spec: Spectrum):
    """Head = dominant value + F tail elements; chain = G-F pair reps."""
    head = [spec.perron]
    head.extend(spec.tail_reals)
    chain = []
    for z in spec.tail_pairs:
        if _element_flag(z) == "F":
            head.append(z)
            head.append(conj(z))
        else:
            chain.append(z)
    return tuple(head), tuple(chain)


def _attempt(spec, cls, target, sigma, head_vals, chain_pairs, tol):
    """One assignment, built unchecked: see realize_mixed's docstring."""
    gs = tuple(target.gammas[i] for i in sigma)
    reals = spec.tail_reals
    if cls.tag is SpectrumClass.SULEIMANOVA_F:
        T = _template(spec.perron, reals, spec.tail_pairs)
        return _wedge_rewrite(T, gs), (), ()
    if cls.tag is SpectrumClass.SMIGOC_G:
        return _chain(spec.perron, chain_pairs, gs, tol)[:3]
    # mixed: head block with the bridge in its last slot, then the chain
    p = len(head_vals)
    g_head, g_chain = gs[: p - 1], gs[p - 1 :]
    sum_head = head_vals[0]
    for v in head_vals[1:]:
        sum_head = sum_head + re_part(v)
    c = sum_head - sum(g_head)
    # c >= 0 on exact input (see realize_mixed); rounding can break that
    if c < 0:
        raise FeasibilityError(
            f"bridge value {to_float(c)} is negative",
            level=0,
            condition="bridge-negative",
        )
    # head_vals lists each F pair as z, conj(z), after the reals
    head_pairs = head_vals[1 + len(reals) :: 2]
    A1 = _wedge_rewrite(_template(spec.perron, reals, head_pairs), g_head + (c,))
    A2, bridges, ts, u = _chain(c, chain_pairs, g_chain, tol, level=1)
    return _glue(A1, A2, u), (c,) + bridges, (u,) + ts


def _inverse(perm: tuple) -> tuple:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _self_certify(B, spec, target) -> RealizationCertificate:
    # looked up at call time, so a wrapper installed on certify.certify
    # sees this call too
    from .certify import certify

    cert = certify(
        B,
        spectrum=spec.values,
        diagonal=target.gammas,
        nonneg=True,
        constant_row_sums=True,
    )
    if not cert.ok:
        raise CertificationError(
            "realization failed post-hoc certification: "
            + ", ".join(k for k, v in cert.checks.items() if not v),
            certificate=cert,
        )
    return cert


# ---------------------------------------------------------------------------
# assignment candidates
# ---------------------------------------------------------------------------


def _assignments(tag, target, order) -> tuple:
    """Slot->position assignments to attempt, in order.

    On exact input the first always succeeds (see realize_mixed).  On
    float input only rounding can fail an attempt; the descending order
    keeps the large entries away from the boundaries, and the identity
    is the one retry.
    """
    identity = tuple(range(target.n))
    if order == "keep" or tag is SpectrumClass.SULEIMANOVA_F:
        return (identity,)
    desc = tuple(sorted(range(target.n), key=lambda i: (-target.gammas[i], i)))
    return (desc,) if desc == identity else (desc, identity)
