"""End-to-end acceptance checks.

One test per criterion; each prints a single pass line (visible with -s)
and pytest -v adds its own verdict per test.  Tolerances are stated
inline next to the assertions they guard.
"""

import random
import time
from fractions import Fraction as F

from diagforge.certify import certify
from diagforge.eigen import char_poly, eigenvalues, match_multisets, right_eigenvector
from diagforge.errors import ConvergenceError, FeasibilityError
from diagforge.matrix import DenseMatrix
from diagforge.nonneg import as_spectrum, construct_3x3, perfect_feasible, realize_mixed
from diagforge.scalars import exact_complex
from diagforge.similarity import embed_anchor, similar_with_diagonal


def _report(num: int, msg: str) -> None:
    print(f"criterion {num}: pass ({msg})")


SEVEN_SPECTRUM = [
    16, -1, -2,
    exact_complex(-2, 2), exact_complex(-2, -2),
    exact_complex(-2, 3), exact_complex(-2, -3),
]
SEVEN_DIAGONAL = (0, 1, 2, 0, 2, 0, 0)

# hand-derived from the constructions: triangular head block with the
# bridge value 6 in the corner, 3x3 chain block for -2+-3i, joined with
# the left eigenvector (25/73, 24/73, 24/73)
SEVEN_EXPECTED = [
    [0, 2, 4, 2, F(200, 73), F(192, 73), F(192, 73)],
    [1, 1, 4, 2, F(200, 73), F(192, 73), F(192, 73)],
    [2, 2, 2, 2, F(200, 73), F(192, 73), F(192, 73)],
    [4, 2, 4, 0, F(150, 73), F(144, 73), F(144, 73)],
    [0, 2, 4, 4, 2, 0, 4],
    [0, 2, 4, 4, F(25, 6), 0, F(11, 6)],
    [0, 2, 4, 4, 0, 6, 0],
]


def test_criterion_1_seven_by_seven_exact_realization():
    t0 = time.perf_counter()
    B, plan = realize_mixed(SEVEN_SPECTRUM, SEVEN_DIAGONAL, order="keep")
    elapsed = time.perf_counter() - t0
    assert B.exact
    assert B.to_lists() == SEVEN_EXPECTED
    assert plan.bridges == (6,)
    assert plan.glue_vectors == ((F(25, 73), F(24, 73), F(24, 73)),)
    assert elapsed < 1.0
    _report(1, f"7x7 entrywise exact, bridge 6, {elapsed * 1e3:.1f} ms")


def test_criterion_2_seven_by_seven_certification():
    B, _ = realize_mixed(SEVEN_SPECTRUM, SEVEN_DIAGONAL, order="keep")
    est = eigenvalues(B)
    m = match_multisets(est.values, SEVEN_SPECTRUM)
    assert m.max_distance <= 1e-9
    _report(2, f"spectrum recovered, max distance {m.max_distance:.2e} <= 1e-9")


def test_criterion_3_general_five_by_five():
    A = DenseMatrix([
        [4, 0, 4, -3, 5],
        [2, 3, 0, 2, 3],
        [0, -2, 2, 5, 4],
        [7, 1, 3, 4, 0],
        [2, 5, 3, 0, -2],
    ])
    gammas = (3, 5, -2, 6, -1)
    B, _ = similar_with_diagonal(A, gammas)
    assert B.diagonal() == (3.0, 5.0, -2.0, 6.0, -1.0)
    m = match_multisets(eigenvalues(B).values, eigenvalues(A.to_float()).values)
    assert m.max_distance <= 1e-7
    _report(3, f"diagonal exact, spectrum distance {m.max_distance:.2e} <= 1e-7")


def _naive_diagonal_rewrite(A: DenseMatrix, gammas):
    # the uncorrected recipe: embed an anchor, then rewrite the diagonal
    # as if the result already had constant row sums (it does not; the
    # sign-fixing diagonal similarity in between is the correction)
    M = embed_anchor(A, 0)
    q = [g - d for g, d in zip(gammas, M.diagonal())]
    rows = []
    for i in range(A.n):
        rows.append([
            gammas[j] if i == j else M[i, j] + q[j] for j in range(A.n)
        ])
    return DenseMatrix(rows)


def test_criterion_4_diagonal_branch_correction():
    rng = random.Random(20260401)
    done = 0
    while done < 200:
        n = rng.randint(2, 8)
        diag = [rng.randint(-9, 9) for _ in range(n)]
        if len(set(diag)) == 1:
            continue
        A = DenseMatrix.diagonal_matrix(diag)
        gs = [rng.randint(-9, 9) for _ in range(n - 1)]
        gs.append(A.trace() - sum(gs))
        B, _ = similar_with_diagonal(A, tuple(gs))
        assert B.diagonal() == tuple(gs)  # exact: the run stays rational
        m = match_multisets(eigenvalues(B).values, diag)
        assert m.max_distance <= 1e-7
        done += 1

    # counterexample guard: diag(1,2,3) with target (2,2,2)
    A = DenseMatrix.diagonal_matrix([1, 2, 3])
    naive = _naive_diagonal_rewrite(A, (2, 2, 2))
    # (t-2)(t^2-4t+7): roots 2, 2 +- i*sqrt(3) -- the wrong spectrum
    assert char_poly(naive) == [1, -6, 15, -14]
    bad = sorted(eigenvalues(naive).values, key=lambda z: z.imag)
    assert abs(bad[0] - complex(2, -3 ** 0.5)) <= 1e-8
    assert abs(bad[2] - complex(2, 3 ** 0.5)) <= 1e-8
    corrected, _ = similar_with_diagonal(A, (2, 2, 2))
    assert corrected.diagonal() == (2, 2, 2)
    assert char_poly(corrected) == [1, -6, 11, -6]  # (t-1)(t-2)(t-3)
    m = match_multisets(eigenvalues(corrected).values, [1, 2, 3])
    assert m.max_distance <= 1e-7
    _report(4, "200 diagonal rewrites exact; naive recipe counterexample held")


def test_criterion_5_narrow_wedge_property_suite():
    rng = random.Random(20260402)
    t0 = time.perf_counter()
    from diagforge.nonneg import realize_suleimanova

    for _ in range(1000):
        n_real = rng.randint(0, 5)
        n_pair = rng.randint(0, (12 - 1 - n_real) // 2)
        if n_real + n_pair == 0:
            n_real = 1
        reals = [-F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n_real)]
        pairs = []
        for _ in range(n_pair):
            x = F(rng.randint(1, 8), rng.randint(1, 4))
            y = x * F(rng.randint(0, 10), 10)  # |im| <= |re|, 0 = double real
            pairs.append((x, y))
        extra = F(rng.randint(0, 16), rng.randint(1, 4))
        lam1 = sum(-r for r in reals) + sum(2 * x + y for x, y in pairs) + extra
        vals = [lam1] + reals
        for x, y in pairs:
            if y == 0:
                vals += [-x, -x]
            else:
                vals += [exact_complex(-x, y), exact_complex(-x, -y)]
        n = len(vals)
        assert n <= 12
        total = lam1 + sum(reals) - sum(2 * x for x, _ in pairs)
        weights = [rng.randint(0, 9) for _ in range(n)]
        if sum(weights) == 0:
            gammas = (total,) + (F(0),) * (n - 1)
        else:
            gammas = tuple(total * F(w, sum(weights)) for w in weights)
        B = realize_suleimanova(vals, gammas)
        assert B.exact
        assert B.min_real_entry() >= 0  # exactly nonnegative
        assert all(sum(row) == lam1 for row in B.rows)  # exactly CS_lam1
        assert B.diagonal() == gammas  # exact diagonal
        m = match_multisets(eigenvalues(B).values, vals)
        assert m.max_distance <= 1e-7 * max(1.0, float(lam1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, f"1000 realizations exact, {elapsed:.1f}s < 30s")


def test_criterion_6_wide_wedge_and_mixed_property_suite():
    rng = random.Random(20260403)
    realized = 0
    infeasible = []
    for _ in range(500):
        f_real = rng.randint(0, 3)
        f_pair = rng.randint(0, 1)
        g_pair = rng.randint(1, 2)
        reals = [-F(rng.randint(1, 6), 2) for _ in range(f_real)]
        pairs = []
        for _ in range(f_pair):
            x = F(rng.randint(1, 5), 2)
            pairs.append((x, x * F(rng.randint(0, 10), 10)))
        for _ in range(g_pair):
            x = F(rng.randint(1, 5), 2)
            pairs.append((x, x * F(rng.randint(11, 17), 10)))
        extra = F(rng.randint(0, 12), 2)
        lam1 = sum(-r for r in reals) + sum(2 * x for x, _ in pairs) + extra
        vals = [lam1] + reals
        for x, y in pairs:
            if y == 0:
                vals += [-x, -x]
            else:
                vals += [exact_complex(-x, y), exact_complex(-x, -y)]
        n = len(vals)
        assert n <= 11
        total = lam1 + sum(reals) - sum(2 * x for x, _ in pairs)
        weights = [rng.randint(0, 9) for _ in range(n)]
        if sum(weights) == 0:
            gammas = (total,) + (F(0),) * (n - 1)
        else:
            gammas = tuple(total * F(w, sum(weights)) for w in weights)
        try:
            B, plan = realize_mixed(vals, gammas, order="auto")
        except FeasibilityError as exc:
            assert exc.condition, "infeasibility must name the violated condition"
            infeasible.append(exc.condition)
            print(f"infeasible instance: condition={exc.condition} "
                  f"level={exc.level} n={n}")
            continue
        cert = certify(B, spectrum=vals, diagonal=gammas, nonneg=True,
                       constant_row_sums=True)
        assert cert.ok, cert.to_dict()
        realized += 1
    assert realized + len(infeasible) == 500
    _report(6, f"{realized} realized and certified, "
               f"{len(infeasible)} infeasible (all with named conditions)")


def test_criterion_7_three_by_three_necessity_and_sufficiency():
    rng = random.Random(20260404)
    # necessity: the four feasibility conditions hold for every
    # nonnegative constant-row-sum 3x3 matrix's (spectrum, diagonal)
    for _ in range(1000):
        alpha = rng.uniform(1.0, 20.0)
        rows = []
        for _ in range(3):
            w = [rng.randint(0, 9) for _ in range(3)]
            while sum(w) == 0:
                w = [rng.randint(0, 9) for _ in range(3)]
            s = sum(w)
            rows.append([alpha * x / s for x in w])
        A = DenseMatrix(rows)
        est = sorted(eigenvalues(A).values, key=lambda z: -z.real)
        lam1 = est[0]
        assert abs(lam1.imag) <= 1e-9 * alpha
        report = perfect_feasible(
            lam1.real, est[1], est[2], *A.diagonal(), tol=1e-9
        )
        assert report.ok, (A.to_lists(), report.to_dict())

    # sufficiency: random feasible wide-wedge triples realize and certify
    for _ in range(500):
        u = F(rng.randint(1, 8), rng.randint(1, 4))
        y = u * F(rng.randint(10, 17), 10)
        extra = F(rng.randint(0, 12), rng.randint(1, 3))
        lam1 = 2 * u + extra
        a = F(rng.randint(0, 10), 10)
        b = F(rng.randint(0, 10), 10)
        lo, hi = min(a, b), max(a, b)
        gammas = (extra * lo, extra * (hi - lo), extra * (1 - hi))
        pair = exact_complex(-u, y)
        B = construct_3x3(lam1, pair, gammas)
        cert = certify(
            B,
            spectrum=[lam1, pair, exact_complex(-u, -y)],
            diagonal=gammas,
            nonneg=True,
            constant_row_sums=True,
        )
        assert cert.ok, cert.to_dict()
    _report(7, "1000 necessity checks and 500 certified constructions")


def test_criterion_8_rank_one_shift_law():
    from diagforge.similarity import brauer_shift

    class Pair:
        def __init__(self, value, vector):
            self.value = value
            self.vector = vector

    rng = random.Random(20260405)
    done = 0
    attempts = 0
    while done < 500:
        attempts += 1
        assert attempts < 5000, "instance generation stalled"
        n = rng.randint(2, 6)
        A = DenseMatrix([[float(rng.randint(-5, 5)) for _ in range(n)]
                         for _ in range(n)])
        scale = max(1.0, A.max_abs())
        est = eigenvalues(A)
        # need a simple, well-separated real eigenvalue
        lam = None
        for z in est.values:
            if abs(z.imag) > 1e-9 * scale:
                continue
            gap = min((abs(z - w) for w in est.values if w is not z),
                      default=1.0)
            if gap >= 0.05:
                lam = z.real
                break
        if lam is None:
            continue
        try:
            pair = right_eigenvector(A, lam)
        except (ConvergenceError, ValueError):
            continue
        if pair.residual > 1e-8 * scale:
            continue
        if max(abs(complex(v).imag) for v in pair.vector) > 1e-9:
            continue
        vec = tuple(complex(v).real for v in pair.vector)
        q = tuple(float(rng.randint(-3, 3)) for _ in range(n))
        B = brauer_shift(A, Pair(lam, vec), q)
        shift = sum(qi * vi for qi, vi in zip(q, vec))
        expected = [z for z in est.values]
        expected.pop(min(range(len(expected)), key=lambda i: abs(expected[i] - lam)))
        expected.append(complex(lam + shift))
        m = match_multisets(eigenvalues(B).values, expected)
        tol_scale = max(1.0, max(abs(z) for z in expected))
        assert m.max_distance <= 1e-6 * tol_scale
        done += 1
    _report(8, f"500 shift-law instances within 1e-6 ({attempts} sampled)")
