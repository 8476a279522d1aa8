"""Post-hoc certification of constructed matrices.

Every check here goes through the eigenvalue engine and the matrix's
own entries; nothing is taken on trust from the construction that
produced the matrix.  An exact matrix checked against exact targets is
judged in exact arithmetic throughout, with no tolerance and no root
finding.  A rational matrix B is read from its integer view (each row
scaled to integers by the lcm of its denominators, computed once per
matrix): its spectrum by the identity L_q char_poly(B) = Q, where Q is
the targets' integer polynomial L_q prod(t - target), decided by
``eigen.char_poly_matches`` in one Hessenberg run of B modulo the
word-size primes it needs, in one numpy kernel, with the primes' product
above L_q H_B + L_B ||Q||_inf; its sign and row sums from the same
integers.  An exact matrix with a nonreal entry is compared over Q(i).
Certification never raises on a bad matrix: the result carries a verdict
per requested check plus the residuals that justify it, so callers can
decide what a failure means.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .eigen import (
    _integer_rows,
    char_poly_matches,
    eigenvalues,
    match_multisets,
    same_char_poly,
)
from .matrix import DenseMatrix, row_sums
from .scalars import im_part, is_exact, is_real, re_part, scalar_abs, to_float

SPECTRUM_REL_TOL = 1e-7
DIAG_FLOAT_TOL = 1e-10
NONNEG_SLACK = 1e-12
ROW_SUM_REL_TOL = 1e-10


@dataclass(frozen=True)
class RealizationCertificate:
    """Outcome of certify().

    ``checks`` maps each requested check name ("spectrum", "diagonal",
    "nonneg", "constant_row_sums") to its verdict; ``thresholds`` to the
    tolerance it was judged against, 0.0 for a check decided exactly.
    Residuals for checks that were not requested are None; an exact
    spectrum check records a residual of 0.0 on a pass and ``inf`` on a
    fail, and no ``computed_spectrum``.  ``ok`` is the conjunction of the
    verdicts.
    """

    checks: dict
    thresholds: dict
    spectrum_residual: Optional[float] = None
    diag_residual: Optional[float] = None
    min_entry: Optional[float] = None
    row_sum_deviation: Optional[float] = None
    computed_spectrum: tuple = ()

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite float (a NaN or infinite
        residual or eigenvalue) becomes None, so that a failing
        certificate can still be written as strict JSON."""
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "thresholds": dict(self.thresholds),
            "spectrum_residual": _finite(self.spectrum_residual),
            "diag_residual": _finite(self.diag_residual),
            "min_entry": _finite(self.min_entry),
            "row_sum_deviation": _finite(self.row_sum_deviation),
            "computed_spectrum": [
                [_finite(z.real), _finite(z.imag)] for z in self.computed_spectrum
            ],
        }


def _finite(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def certify(
    B: DenseMatrix,
    spectrum: Optional[Sequence] = None,
    diagonal: Optional[Sequence] = None,
    nonneg: bool = False,
    constant_row_sums: bool = False,
) -> RealizationCertificate:
    """Check a matrix against spectral and structural claims.

    ``spectrum`` and ``diagonal`` are target multisets/vectors; passing
    None skips that check.  ``nonneg`` asks for entrywise nonnegativity
    (within NONNEG_SLACK on the float backend, exactly on the exact
    backend) and ``constant_row_sums`` for equal row sums.

    When B is exact and every spectrum target is exact, the spectrum
    check is ``char_poly(B) == prod(t - target)``, decided exactly.  For
    a rational B the targets become one integer polynomial
    Q = L_q prod(t - target): a factor d t - a for each rational a / d
    and d^2 t^2 - 2 a d t + (a^2 + b^2) for each pair (a +- bi) / d, so
    L_q is the product of the factors' leading coefficients.
    ``eigen.char_poly_matches`` then checks L_q char_poly(B) = Q modulo
    word-size primes whose product exceeds L_q H_B + L_B ||Q||_inf,
    running only B through the modular kernel; targets not closed under
    conjugation fail, since the char poly of a real B is real.  An exact
    B with a nonreal entry is compared with the diagonal matrix of the
    targets over Q(i).  Otherwise spectrum matching uses the eigenvalue
    engine plus greedy closest-first pairing, judged against
    SPECTRUM_REL_TOL times the largest target modulus (at least 1).

    A rational B is read for the other checks from its integer view
    (each row i scaled by the lcm r_i of its denominators), the one the
    spectrum check uses: the nonneg verdict is the sign of the smallest
    entry min(r_i row_i) / r_i, and row i sums to sum(r_i row_i) / r_i.
    A value beyond the float range is recorded as infinite (``null`` in
    :meth:`RealizationCertificate.to_dict`).  Never raises on a failing
    check; an exact B whose eigenvalues cannot be computed in floats, for
    float targets, raises ``ValueError``.
    """
    checks: dict = {}
    thresholds: dict = {}
    spectrum_residual = diag_residual = min_entry = row_sum_deviation = None
    computed: tuple = ()

    if spectrum is not None:
        targets = list(spectrum)
        exact = B.exact and all(is_exact(t) for t in targets)
        if not exact:
            try:
                est = eigenvalues(B)
            except OverflowError:
                raise ValueError(
                    "the float spectrum that float targets are checked "
                    "against is beyond the float range for this matrix"
                ) from None
            computed = tuple(complex(to_float(z)) for z in est.values)
        if len(targets) != B.n:
            checks["spectrum"] = False
            thresholds["spectrum"] = 0.0
            spectrum_residual = float("inf")
        elif exact:
            if _integer_rows(B) is None:
                ok = same_char_poly(B, DenseMatrix.diagonal_matrix(targets))
            else:
                poly = _target_poly(targets)
                ok = poly is not None and char_poly_matches(B, poly)
            checks["spectrum"] = ok
            thresholds["spectrum"] = 0.0
            spectrum_residual = 0.0 if ok else float("inf")
        else:
            match = match_multisets(computed, targets)
            scale = max(1.0, max(scalar_abs(t) for t in targets))
            tol = SPECTRUM_REL_TOL * scale
            spectrum_residual = match.max_distance
            checks["spectrum"] = spectrum_residual <= tol
            thresholds["spectrum"] = tol

    if diagonal is not None:
        gs = list(diagonal)
        if len(gs) != B.n:
            checks["diagonal"] = False
            thresholds["diagonal"] = 0.0
            diag_residual = float("inf")
        else:
            exact = B.exact and all(is_exact(g) for g in gs)
            gaps = [_modulus(B[i, i] - gs[i]) for i in range(B.n)]
            diag_residual = max(gaps) if gaps else 0.0
            if exact:
                ok = all(B[i, i] == gs[i] for i in range(B.n))
                thresholds["diagonal"] = 0.0
            else:
                ok = diag_residual <= DIAG_FLOAT_TOL * max(
                    1.0, max(scalar_abs(g) for g in gs) if gs else 1.0
                )
                thresholds["diagonal"] = DIAG_FLOAT_TOL
            checks["diagonal"] = bool(ok)

    if nonneg:
        worst = B.min_real_entry()
        min_entry = _float(worst)
        if B.exact:
            # an exact matrix is real exactly when it has an integer view
            checks["nonneg"] = _integer_rows(B) is not None and worst >= 0
            thresholds["nonneg"] = 0.0
        else:
            worst_im = max(abs(to_float(im_part(v))) for row in B.rows for v in row)
            checks["nonneg"] = min_entry >= -NONNEG_SLACK and worst_im <= NONNEG_SLACK
            thresholds["nonneg"] = NONNEG_SLACK

    if constant_row_sums:
        view = _integer_rows(B)
        if view is not None:
            sums = [(sum(ints), r) for r, ints in view[0]]
            s0, r0 = sums[0] if sums else (0, 1)
            ok = all(s * r0 == s0 * r for s, r in sums)
            row_sum_deviation = 0.0 if ok else max(
                _modulus(Fraction(s, r) - Fraction(s0, r0)) for s, r in sums
            )
            checks["constant_row_sums"] = ok
            thresholds["constant_row_sums"] = 0.0
        elif B.exact:
            sums = row_sums(B)
            row_sum_deviation = max(_modulus(s - sums[0]) for s in sums)
            checks["constant_row_sums"] = all(s == sums[0] for s in sums)
            thresholds["constant_row_sums"] = 0.0
        else:
            sums = row_sums(B)
            mean = sum(to_float(re_part(s)) for s in sums) / len(sums)
            row_sum_deviation = max(abs(complex(to_float(s)) - mean) for s in sums)
            checks["constant_row_sums"] = row_sum_deviation <= ROW_SUM_REL_TOL * max(
                1.0, abs(mean)
            )
            thresholds["constant_row_sums"] = ROW_SUM_REL_TOL

    return RealizationCertificate(
        checks=checks,
        thresholds=thresholds,
        spectrum_residual=spectrum_residual,
        diag_residual=diag_residual,
        min_entry=min_entry,
        row_sum_deviation=row_sum_deviation,
        computed_spectrum=computed,
    )


def _float(x) -> float:
    """``to_float`` of a real value, or an infinity of its sign when it
    is beyond the float range."""
    try:
        return to_float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _modulus(x) -> float:
    """``scalar_abs(x)``, or ``inf`` when it is beyond the float range."""
    try:
        return scalar_abs(x)
    except OverflowError:
        return math.inf


def _target_poly(targets: list) -> Optional[list]:
    """L_q prod(t - target) as integers, highest degree first, for exact
    targets closed under conjugation; None when they are not."""
    nonreal = Counter(z for z in targets if not is_real(z))
    if any(nonreal[z.conjugate()] != c for z, c in nonreal.items()):
        return None
    poly = [1]
    for z in targets:
        if is_real(z):
            z = Fraction(z)
            factor = (z.denominator, -z.numerator)
        elif z.im > 0:
            d = math.lcm(z.re.denominator, z.im.denominator)
            a = z.re.numerator * (d // z.re.denominator)
            b = z.im.numerator * (d // z.im.denominator)
            factor = (d * d, -2 * a * d, a * a + b * b)
        else:
            continue
        poly = _poly_mul(poly, factor)
    return poly


def _poly_mul(p: list, q: tuple) -> list:
    """Product of two integer polynomials, highest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out
