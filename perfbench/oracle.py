"""Independent checks of the CLI's outputs.

Nothing here imports diagforge.  Exact outputs are checked in exact
arithmetic of the benchmark's own; float outputs against numpy's LAPACK
eigenvalues and matrix powers.  Every check returns a list of the
properties that failed, empty when the output is correct.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np

DIAG_REL_TOL = 1e-10
# eigenvalues of the similar output are compared with those of the input;
# the output's eigenvector conditioning is worse than the input's, so the
# tolerance is looser than the program's own 1e-7
SPECTRUM_REL_TOL = 1e-6
POWER_TRACE_REL_TOL = 1e-8
DET_POINTS = 3


# ---------------------------------------------------------------------------
# exact outputs: nonnegative realizations
# ---------------------------------------------------------------------------


def parse_exact(raw):
    """A CLI exact scalar (int or "p/q"); None for a complex [re, im] pair."""
    if isinstance(raw, bool) or isinstance(raw, list):
        return None
    if isinstance(raw, (int, str)):
        return Fraction(raw)
    raise ValueError(f"not an exact scalar: {raw!r}")


def bareiss_det(M: list) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    M = [list(r) for r in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            a = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - a * row_k[j]) // prev
        prev = pivot
    return sign * M[n - 1][n - 1]


def char_value(B: list, x: Fraction) -> Fraction:
    """det(xI - B) for a rational matrix B, exactly."""
    n = len(B)
    den = lcm(x.denominator, *(v.denominator for row in B for v in row))
    M = [
        [(x * den if i == j else 0) - v * den for j, v in enumerate(row)]
        for i, row in enumerate(B)
    ]
    return Fraction(bareiss_det([[int(v) for v in row] for row in M]), den**n)


def spectrum_value(reals: list, pairs: list, x: Fraction) -> Fraction:
    """prod (x - lambda) over reals and conjugate pairs -a +- i b.

    A pair enters as the real quadratic (x + a)^2 + b^2; a pair with
    b = 0 stands for the double real eigenvalue -a.
    """
    out = Fraction(1)
    for r in reals:
        out *= x - r
    for a, b in pairs:
        out *= (x + a) ** 2 + b**2
    return out


def check_realization(prob: dict, out: dict, rng: random.Random) -> list:
    """Judge an exact nonnegative realization against its problem."""
    raw = out.get("matrix")
    n = prob["n"]
    if not isinstance(raw, list) or len(raw) != n or any(
        not isinstance(r, list) or len(r) != n for r in raw
    ):
        return ["shape"]
    B = [[parse_exact(v) for v in row] for row in raw]
    if any(v is None for row in B for v in row):
        return ["real"]
    bad = []
    if [B[i][i] for i in range(n)] != list(prob["gammas"]):
        bad.append("diagonal")
    if any(v < 0 for row in B for v in row):
        bad.append("nonnegative")
    if any(sum(row) != prob["perron"] for row in B):
        bad.append("row-sums")
    reals, pairs = prob["reals"], prob["pairs"]
    for _ in range(DET_POINTS):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 97))
        if char_value(B, x) != spectrum_value(reals, pairs, x):
            bad.append("char-poly")
            break
    return bad


# ---------------------------------------------------------------------------
# float outputs: similar matrices
# ---------------------------------------------------------------------------


def parse_float_matrix(raw, n: int):
    if not isinstance(raw, list) or len(raw) != n or any(
        not isinstance(r, list) or len(r) != n for r in raw
    ):
        return None
    return np.array(
        [[complex(*v) if isinstance(v, list) else v for v in row] for row in raw]
    )


def spectra_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance of a greedy closest-first pairing of two multisets."""
    D = np.abs(a[:, None] - b[None, :])
    worst = 0.0
    for _ in range(len(a)):
        i, j = np.unravel_index(np.argmin(D), D.shape)
        worst = max(worst, float(D[i, j]))
        D[i, :] = np.inf
        D[:, j] = np.inf
    return worst


def check_spectra(spec_a: np.ndarray, spec_b: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(spec_a))))
    dist = spectra_distance(spec_a, spec_b)
    return bool(np.isfinite(dist)) and dist <= SPECTRUM_REL_TOL * scale


def check_power_traces(A: np.ndarray, B: np.ndarray) -> bool:
    """tr(B^k) = tr(A^k), k = 1..3, within rounding of the summands."""
    Ak, Bk = np.eye(len(A)), np.eye(len(B))
    absA, absB = np.abs(A), np.abs(B)
    absAk, absBk = np.eye(len(A)), np.eye(len(B))
    for _ in range(3):
        Ak, Bk = Ak @ A, Bk @ B
        absAk, absBk = absAk @ absA, absBk @ absB
        scale = max(1.0, float(np.trace(absAk)), float(np.trace(absBk)))
        if not abs(np.trace(Bk) - np.trace(Ak)) <= POWER_TRACE_REL_TOL * scale:
            return False
    return True


def check_similar(prob: dict, out: dict, spec_a=None) -> list:
    """Judge a float similar-with-diagonal output against its input.

    ``spec_a`` overrides the input's spectrum (the self-test moves one
    eigenvalue through it).
    """
    n = prob["n"]
    B = parse_float_matrix(out.get("matrix"), n)
    if B is None:
        return ["shape"]
    if not np.all(np.isfinite(B)):
        return ["finite"]
    A = np.array(prob["A"], dtype=float)
    gammas = np.array(prob["gammas"], dtype=float)
    bad = []
    scale = max(1.0, float(np.max(np.abs(gammas))))
    if not np.all(np.abs(np.diag(B) - gammas) <= DIAG_REL_TOL * scale):
        bad.append("diagonal")
    if spec_a is None:
        spec_a = np.linalg.eigvals(A)
    if not check_spectra(spec_a, np.linalg.eigvals(B)):
        bad.append("spectrum")
    if not check_power_traces(A, B):
        bad.append("power-traces")
    return bad


def check(prob: dict, out: dict, rng: random.Random) -> list:
    if prob["kind"] == "realize-exact":
        return check_realization(prob, out, rng)
    return check_similar(prob, out)
