"""Post-hoc certification of constructed matrices.

Every check here goes through the eigenvalue engine and the matrix's
own entries; nothing is taken on trust from the construction that
produced the matrix.  An exact matrix checked against exact targets is
judged in exact arithmetic throughout: its spectrum by characteristic
polynomial identity (``eigen.same_char_poly``: for rational entries one
Hessenberg run modulo every word-size prime it needs, in one numpy
kernel, with the primes' product above a Hadamard-type bound; else over
Q or Q(i)), with no tolerance and no root finding.  Certification never
raises on a bad matrix: the result carries a verdict per requested check
plus the residuals that justify it, so callers can decide what a failure
means.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .eigen import eigenvalues, match_multisets, same_char_poly
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
    backend) and ``constant_row_sums`` for equal row sums.  When B is
    exact and every spectrum target is exact, the spectrum check is
    ``char_poly(B) == prod(t - target)``, decided exactly by
    ``eigen.same_char_poly`` against a matrix built from the targets
    (modulo word-size primes whose product exceeds a Hadamard-type bound
    when B and the targets are rational, else over Q or Q(i)); for a
    real B targets not closed under conjugation fail.  Otherwise
    spectrum matching uses the eigenvalue engine plus greedy
    closest-first pairing, judged against SPECTRUM_REL_TOL times the
    largest target modulus (at least 1).  Never raises on a failing
    check.
    """
    checks: dict = {}
    thresholds: dict = {}
    spectrum_residual = diag_residual = min_entry = row_sum_deviation = None
    computed: tuple = ()

    if spectrum is not None:
        targets = list(spectrum)
        exact = B.exact and all(is_exact(t) for t in targets)
        if not exact:
            est = eigenvalues(B)
            computed = tuple(complex(to_float(z)) for z in est.values)
        if len(targets) != B.n:
            checks["spectrum"] = False
            thresholds["spectrum"] = 0.0
            spectrum_residual = float("inf")
        elif exact:
            ok = _exact_spectrum_check(B, targets)
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
            gaps = [scalar_abs(B[i, i] - gs[i]) for i in range(B.n)]
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
        worst_im = 0.0
        worst_re = None
        for row in B.rows:
            for v in row:
                worst_im = max(worst_im, abs(to_float(im_part(v))))
                r = re_part(v)
                worst_re = r if worst_re is None else min(worst_re, r)
        min_entry = to_float(worst_re)
        if B.exact:
            checks["nonneg"] = worst_re >= 0 and worst_im == 0.0
            thresholds["nonneg"] = 0.0
        else:
            checks["nonneg"] = min_entry >= -NONNEG_SLACK and worst_im <= NONNEG_SLACK
            thresholds["nonneg"] = NONNEG_SLACK

    if constant_row_sums:
        sums = row_sums(B)
        if B.exact:
            row_sum_deviation = (
                max(to_float(scalar_abs(s - sums[0])) for s in sums) if sums else 0.0
            )
            checks["constant_row_sums"] = all(s == sums[0] for s in sums)
            thresholds["constant_row_sums"] = 0.0
        else:
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


def _exact_spectrum_check(B: DenseMatrix, targets: list) -> bool:
    """``char_poly(B) == prod(t - target)``, decided by ``same_char_poly``.

    For a real B the targets become a real matrix with the same char
    poly: the real values on the diagonal and a block [[a, -b], [b, a]]
    for each pair a +- bi.  Targets not closed under conjugation are
    then rejected outright, since the char poly of a real B is real.
    """
    if not B.is_real():
        return same_char_poly(B, DenseMatrix.diagonal_matrix(targets))
    nonreal = Counter(z for z in targets if not is_real(z))
    if any(nonreal[z.conjugate()] != c for z, c in nonreal.items()):
        return False
    zero = Fraction(0)
    rows = [[zero] * B.n for _ in range(B.n)]
    k = 0
    for z in targets:
        if is_real(z):
            rows[k][k] = Fraction(z)
            k += 1
        elif z.im > 0:
            rows[k][k] = rows[k + 1][k + 1] = z.re
            rows[k][k + 1], rows[k + 1][k] = -z.im, z.im
            k += 2
    return same_char_poly(B, DenseMatrix._trusted(rows, True))
