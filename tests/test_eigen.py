import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import diagforge.eigen
from diagforge.eigen import (
    MatchResult,
    all_nonzero_eigenvector,
    char_poly,
    eigenvalues,
    match_multisets,
    right_eigenvector,
    same_char_poly,
)
from diagforge.errors import ConvergenceError
from diagforge.matrix import DenseMatrix
from diagforge.scalars import ComplexRational, exact_complex


def spectrum_of(a):
    return sorted(eigenvalues(a).values, key=lambda z: (z.real, z.imag))


class TestKnownSpectra:
    def test_diagonal(self):
        got = spectrum_of(DenseMatrix.diagonal_matrix([3.0, -1.0, 4.0]))
        want = [-1.0, 3.0, 4.0]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10)
            assert g.imag == 0.0

    def test_companion_of_cubic_with_roots_1_2_3(self):
        a = DenseMatrix([[6.0, -11.0, 6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        got = spectrum_of(a)
        for g, w in zip(got, [1.0, 2.0, 3.0]):
            assert g == pytest.approx(w, abs=1e-8)

    def test_rotation_block_gives_conjugate_pair(self):
        a = DenseMatrix([[-2.0, -3.0], [3.0, -2.0]])
        got = spectrum_of(a)
        assert got[0] == pytest.approx(complex(-2, -3), abs=1e-10)
        assert got[1] == pytest.approx(complex(-2, 3), abs=1e-10)
        # symmetrization returns exact conjugates for real input
        assert got[0].real == got[1].real
        assert got[0].imag == -got[1].imag

    def test_constant_row_sum_matrix(self):
        a = DenseMatrix([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
        got = spectrum_of(a)
        r5 = math.sqrt(5.0)
        want = [(-1 - r5) / 2, (-1 + r5) / 2, 3.0]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-8)


def test_char_poly_exact_oracle():
    # (t-3)(t+1)(t+2) = t^3 - 7t - 6
    a = DenseMatrix([[3, 0, 0], [4, -1, 0], [5, 0, -2]])
    assert char_poly(a) == [1, 0, -7, -6]


def test_char_poly_exact_with_fractions():
    a = DenseMatrix([[Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(-1, 3)]])
    # (t - 1/2)(t + 1/3) = t^2 - t/6 - 1/6
    assert char_poly(a) == [1, Fraction(-1, 6), Fraction(-1, 6)]


def faddeev_leverrier(rows, one):
    """Reference char poly by Faddeev-LeVerrier on plain row lists:
    M_0 = I, c_k = -tr(A M_{k-1}) / k, M_k = A M_{k-1} + c_k I.
    """
    n = len(rows)
    zero = one - one
    coeffs = [one]
    m = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [
            [sum(rows[i][l] * m[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = am[0][0]
        for i in range(1, n):
            tr = tr + am[i][i]
        ck = -tr / (k * one)
        coeffs.append(ck)
        m = [
            [am[i][j] + ck if i == j else am[i][j] for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def assert_exact_char_poly_matches_oracle(a):
    got = char_poly(a)
    assert got == faddeev_leverrier(a.rows, Fraction(1))
    assert all(type(c) in (Fraction, ComplexRational) for c in got)


def random_exact_entry(rng, density, complex_share):
    if rng.random() >= density:
        return 0
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if rng.random() < complex_share:
        return exact_complex(re, Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    return re


def test_exact_char_poly_matches_faddeev_on_random_matrices():
    rng = random.Random(20261018)
    for trial in range(120):
        n = rng.randint(1, 7)
        density = rng.choice([0.2, 0.5, 1.0])
        complex_share = 0.3 if trial % 4 == 0 else 0.0
        a = DenseMatrix(
            [
                [random_exact_entry(rng, density, complex_share) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert_exact_char_poly_matches_oracle(a)


@pytest.mark.parametrize(
    "rows",
    [
        # n = 1 and n = 2: no reduction step at all
        [[Fraction(-7, 3)]],
        [[exact_complex(1, 2)]],
        [[Fraction(1, 2), 3], [Fraction(-5, 4), 0]],
        # zero pivot H[1][0] with a nonzero entry below: row/column swap
        [[1, 2, 3], [0, 4, 5], [6, 7, Fraction(8, 3)]],
        [[0, 1, 0, 2], [0, 0, 3, 1], [0, 0, 0, 4], [5, 0, 0, 0]],
        # zero sub-column (reducible matrix): the step is skipped
        [[1, 2, 3], [0, 4, 5], [0, 7, 8]],
        [[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, -1]],
        # entries in Q(i), including a complex pivot
        [[1, exact_complex(0, 1), 2], [exact_complex(3, -1), 0, 1], [4, 5, exact_complex(-2, 1)]],
        [[0, 1, exact_complex(1, 1)], [0, 2, 0], [exact_complex(0, -3), 1, 1]],
    ],
)
def test_exact_char_poly_branches_match_faddeev(rows):
    assert_exact_char_poly_matches_oracle(DenseMatrix(rows))


TABLE = [int(p) for p in diagforge.eigen._table_primes()]


def test_table_primes_are_prime_by_trial_division():
    primes = diagforge.eigen._table_primes()
    assert len(primes) > 3000
    # largest first and distinct, all in (2^25, 2^26): the prime count
    # and the int64 bounds of the kernel rest on that window
    assert (np.diff(primes) < 0).all()
    assert 2**25 < primes[-1] and primes[0] < 2**26
    divisors = np.arange(2, math.isqrt(2**26) + 1)
    for chunk in np.array_split(divisors, 32):
        assert (primes[:, None] % chunk[None, :]).all()


def transvection_conjugate(rows, rng):
    """R X R^-1 for R a product of rational transvections I + c E_ij."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        # (I + c E_ij) X: row i += c row j; then X (I - c E_ij): column j -= c column i
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    return DenseMatrix(rows)


def same_char_poly_cases(rng, complex_share, max_n):
    """Seeded exact pairs: conjugates, and conjugates with one entry
    changed by 1/7.  A random scale of up to 32 bits spreads the rational
    pairs over every prime of the table."""
    cases = []
    for _ in range(60):
        n = rng.randint(2, max_n)
        bits = rng.choice([1, 16, 24, 32])
        scale = Fraction(rng.randint(1, 2**bits), rng.randint(1, 2**bits))
        rows = [
            [scale * random_exact_entry(rng, rng.choice([0.5, 1.0]), complex_share)
             for _ in range(n)]
            for _ in range(n)
        ]
        x = DenseMatrix(rows)
        y = transvection_conjugate(rows, rng)
        cases.append((x, y, True))
        changed = [list(r) for r in y.rows]
        changed[rng.randrange(n)][rng.randrange(n)] += Fraction(1, 7)
        cases.append((x, DenseMatrix(changed), None))
    return cases


def test_same_char_poly_on_rationals_is_the_char_poly_identity(monkeypatch):
    cases = same_char_poly_cases(random.Random(20261019), 0.0, max_n=9)
    cases += [
        (DenseMatrix._trusted([], True), DenseMatrix._trusted([], True), True),
        (DenseMatrix([[Fraction(-7, 3)]]), DenseMatrix([[Fraction(-7, 3)]]), True),
        (DenseMatrix([[Fraction(-7, 3)]]), DenseMatrix([[Fraction(-8, 3)]]), False),
        (DenseMatrix([[1, 2], [3, 4]]), DenseMatrix([[4, 3], [2, 1]]), True),
        (DenseMatrix([[1, 2], [3, 4]]), DenseMatrix([[4, 2], [3, 1]]), True),
        (DenseMatrix([[1, 2], [3, 4]]), DenseMatrix([[1, 3], [3, 4]]), False),
    ]
    want = [char_poly(x) == char_poly(y) for x, y, _ in cases]
    for (_, _, known), w in zip(cases, want):
        assert known is None or known == w
    assert want.count(False) >= 60

    def forbidden(*args, **kwargs):
        raise AssertionError("rational input fell back to char_poly")

    monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden)
    assert [same_char_poly(x, y) for x, y, _ in cases] == want


def count_char_poly(monkeypatch):
    original, calls = diagforge.eigen.char_poly, []

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(diagforge.eigen, "char_poly", counted)
    return calls


def test_same_char_poly_falls_back_over_gaussian_rationals(monkeypatch):
    cases = same_char_poly_cases(random.Random(20261020), 0.4, max_n=5)
    cases = [(x, y) for x, y, _ in cases if not (x.is_real() and y.is_real())]
    assert len(cases) >= 40
    want = [char_poly(x) == char_poly(y) for x, y in cases]
    assert True in want and False in want
    calls = count_char_poly(monkeypatch)
    assert [same_char_poly(x, y) for x, y in cases] == want
    assert len(calls) == 2 * len(cases)


def companion(coeffs):
    """Companion matrix of the monic polynomial [1, c1, ..., cn]."""
    n = len(coeffs) - 1
    rows = [[-c for c in coeffs[1:]]]
    rows += [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    return DenseMatrix(rows)


@pytest.mark.parametrize(
    "rows",
    [
        # zero pivot with a nonzero entry below: row/column swap
        [[1, 2, 3], [0, 4, 5], [6, 7, Fraction(8, 3)]],
        [[0, 1, 0, 2], [0, 0, 3, 1], [0, 0, 0, 4], [5, 0, 0, 0]],
        # zero sub-column: the step is skipped
        [[1, 2, 3], [0, 4, 5], [0, 7, 8]],
        [[2, 0, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, Fraction(-1, 9)]],
    ],
)
def test_same_char_poly_branches_against_the_companion_matrix(rows):
    x = DenseMatrix(rows)
    coeffs = char_poly(x)
    assert same_char_poly(x, companion(coeffs))
    coeffs[-1] += Fraction(1, 7)
    assert not same_char_poly(x, companion(coeffs))


P521, P607, P1279 = ((1 << e) - 1 for e in (521, 607, 1279))
TABLE_PREFIXES = (1, 2, 5, 20, 80)


@pytest.mark.parametrize(
    "value",
    [P521, P607, P1279, P521 * P607 * P1279]
    + [math.prod(TABLE[:j]) for j in TABLE_PREFIXES],
    ids=["p521", "p607", "p1279", "p521-p607-p1279"]
    + [f"table-{j}" for j in TABLE_PREFIXES],
)
def test_same_char_poly_rejects_a_difference_divisible_by_the_primes(value):
    # t and t - value agree modulo every prime that divides value; the
    # product of the first j table primes is below the bound, so the
    # identity must reach prime j + 1
    assert not same_char_poly(DenseMatrix([[0]]), DenseMatrix([[value]]))
    assert not same_char_poly(
        DenseMatrix([[1, 0], [0, 0]]), DenseMatrix([[1, 0], [0, value]])
    )
    assert same_char_poly(DenseMatrix([[value]]), DenseMatrix([[value]]))


def spy_on_primes(monkeypatch):
    """Record the primes of every modular char-poly run."""
    original, used = diagforge.eigen._char_polys_mod, []

    def spy(H, primes):
        used.extend(primes.tolist())
        return original(H, primes)

    monkeypatch.setattr(diagforge.eigen, "_char_polys_mod", spy)
    return used


def test_a_table_prime_dividing_a_row_lcm_is_skipped(monkeypatch):
    p0, p1 = TABLE[:2]
    x = DenseMatrix(
        [[Fraction(1, p0), 2, 0], [3, Fraction(5, p0 * p1), 1], [1, 1, Fraction(1, 3)]]
    )
    y = transvection_conjugate(x.rows, random.Random(20261020))
    changed = [list(r) for r in y.rows]
    changed[2][0] += Fraction(1, 7)
    used = spy_on_primes(monkeypatch)
    assert same_char_poly(x, y)
    assert not same_char_poly(x, DenseMatrix(changed))
    assert used and p0 not in used and p1 not in used
    assert TABLE[2] in used


P0 = TABLE[0]


@pytest.mark.parametrize(
    "rows",
    [
        # the (1, 0) pivot is 0 modulo P0 only: that slice swaps in row 2
        [[1, 2, 3], [P0, 4, 5], [6, 7, 8]],
        # the whole sub-column is 0 modulo P0 only: that slice skips the step
        [[1, 2, 3], [P0, 4, 5], [2 * P0, 7, 8]],
        # modulo P0 the first nonzero sub-column entry is in row 3
        [[1, 2, 3, 4], [P0, 5, 6, 7], [3 * P0, 8, 9, 1], [3, 1, 4, Fraction(1, 5)]],
    ],
)
def test_a_pivot_vanishing_modulo_one_prime(rows, monkeypatch):
    x = DenseMatrix(rows)
    coeffs = char_poly(x)
    used = spy_on_primes(monkeypatch)
    assert same_char_poly(x, companion(coeffs))
    coeffs[-1] += Fraction(1, 7)
    assert not same_char_poly(x, companion(coeffs))
    assert P0 in used


def test_sizes_0_and_1_are_decided_without_char_poly(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rational input fell back to char_poly")

    monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden)
    empty = DenseMatrix._trusted([], True)
    a, b = DenseMatrix([[Fraction(5, 3)]]), DenseMatrix([[Fraction(5, 4)]])
    assert same_char_poly(empty, empty)
    assert same_char_poly(a, a)
    assert not same_char_poly(a, b)
    assert not same_char_poly(empty, a)


def test_sizes_past_the_kernel_limit_fall_back_to_q(monkeypatch):
    monkeypatch.setattr(diagforge.eigen, "KERNEL_MAX_N", 3)
    calls = count_char_poly(monkeypatch)
    small = DenseMatrix([[1, 2, 3], [0, 4, 5], [6, 7, Fraction(8, 3)]])
    big = DenseMatrix([[0, 1, 0, 2], [0, 0, 3, 1], [0, 0, 0, 4], [5, 0, 0, 0]])
    assert same_char_poly(small, companion(char_poly(small)))
    assert not calls
    assert same_char_poly(big, companion(char_poly(big)))
    assert len(calls) == 2


def test_a_bound_beyond_the_table_falls_back_to_q(monkeypatch):
    value = 1 << (26 * len(TABLE))
    calls = count_char_poly(monkeypatch)
    assert not same_char_poly(DenseMatrix([[0]]), DenseMatrix([[value]]))
    assert len(calls) == 2


def test_char_poly_rejects_a_float_matrix():
    with pytest.raises(TypeError, match="exact matrix"):
        char_poly(DenseMatrix([[1.0, 2.0], [3.0, 4.0]]))


def test_dual_routes_agree_on_random_integer_matrices():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = DenseMatrix(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        qr = eigenvalues(a.to_float()).values
        exact = eigenvalues(a).values
        scale = max(1.0, max(abs(z) for z in qr))
        gap = min(
            (abs(x - y) for i, x in enumerate(qr) for y in qr[i + 1:]),
            default=scale,
        )
        # multiple eigenvalues cap the attainable accuracy of LAPACK; the
        # exact route is immune but must agree with it
        limit = 1e-6 if gap >= 1e-3 * scale else 1e-4
        assert match_multisets(qr, exact).max_distance <= limit * scale


def test_right_eigenvector_residual():
    a = DenseMatrix([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]])
    for lam in eigenvalues(a).values:
        pair = right_eigenvector(a, lam)
        assert pair.residual <= 1e-7
        av = a.to_float().matvec(pair.vector)
        for lhs, v in zip(av, pair.vector):
            assert complex(lhs) == pytest.approx(complex(lam) * complex(v), abs=1e-7)


def test_real_eigenvalue_of_real_matrix_has_a_real_eigenvector():
    # inverse iteration runs in complex arithmetic; the vector for a real
    # eigenvalue of a real matrix must come out real however the
    # imaginary rounding residue falls
    rng = np.random.default_rng(3)
    for n in (8, 16, 32):
        for _ in range(5):
            a = DenseMatrix(rng.integers(-9, 10, size=(n, n)).tolist()).to_float()
            for lam in eigenvalues(a).values:
                if lam.imag != 0.0:
                    continue
                pair = right_eigenvector(a, lam)
                assert all(type(v) is float for v in pair.vector)
                assert pair.residual <= 1e-7 * max(1.0, abs(lam))


def test_every_public_name_resolves():
    # a function deleted from a module must leave the package's export
    # list too, or `from diagforge import *` fails
    import diagforge

    missing = [name for name in diagforge.__all__ if not hasattr(diagforge, name)]
    assert missing == []


def test_constant_row_sum_fast_path_returns_exact_ones():
    a = DenseMatrix([[0, 1, 2], [1, 1, 1], [2, 0, 1]])
    pair = right_eigenvector(a, 3)
    assert pair.vector == (Fraction(1), Fraction(1), Fraction(1))
    assert pair.residual == 0.0


def test_all_nonzero_eigenvector_cases():
    # diagonal, non-scalar: every eigenvector has a zero entry
    d = DenseMatrix.diagonal_matrix([1, 2, 3])
    assert all_nonzero_eigenvector(d, eigenvalues(d), 1e-9) is None
    a = DenseMatrix([[0, 1, 2], [1, 1, 1], [2, 0, 1]])
    pair = all_nonzero_eigenvector(a, eigenvalues(a), 1e-9)
    assert pair is not None
    assert min(abs(complex(v)) for v in pair.vector) > 0


def _integer_conjugate(J, seed):
    """P J P^-1 for a dense unimodular integer P."""
    rng = random.Random(seed)
    n = len(J)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P_inv = [r[:] for r in P]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # P <- (I + c e_i e_j^T) P and P^-1 <- P^-1 (I - c e_i e_j^T)
        P[i] = [x + c * y for x, y in zip(P[i], P[j])]
        for r in P_inv:
            r[j] -= c * r[i]
    return DenseMatrix(P) @ DenseMatrix(J) @ DenseMatrix(P_inv)


@pytest.mark.parametrize("alpha", [1, 5], ids=["smaller", "larger"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_tries_simple_groups_before_a_repeated_one(alpha, seed):
    # J_2(alpha) + [[2, -3], [3, 2]]: the simple pair 2 +- 3i has
    # zero-free eigenvectors, so the repeated alpha, at which a rank-one
    # rewrite can change the Jordan structure, must not be returned;
    # alpha = 5 leads in modulus, where a largest-first scan reaches it
    J = [[alpha, 1, 0, 0], [0, alpha, 0, 0], [0, 0, 2, -3], [0, 0, 3, 2]]
    a = _integer_conjugate(J, seed).to_float()
    pair = all_nonzero_eigenvector(a, eigenvalues(a), 1e-9)
    assert pair is not None
    assert abs(pair.value - complex(2, 3)) < 1e-6 or abs(pair.value - complex(2, -3)) < 1e-6


def test_search_takes_a_simple_real_group_before_larger_nonreal_ones():
    # spectrum 5 +- 5i, 2, -1: a real value is taken and its vector is real
    for seed in range(5):
        a = _integer_conjugate(
            [[5, -5, 0, 0], [5, 5, 0, 0], [0, 0, 2, 0], [0, 0, 0, -1]], seed
        ).to_float()
        pair = all_nonzero_eigenvector(a, eigenvalues(a), 1e-9)
        assert pair.value.imag == 0
        assert all(type(v) is float for v in pair.vector)


def test_match_multisets_reports_worst_distance():
    m = match_multisets([1.0, 2.0], [2.0, 1.5])
    assert m.max_distance == pytest.approx(0.5)
    with pytest.raises(ValueError):
        match_multisets([1.0], [1.0, 2.0])


def test_match_multisets_never_matches_non_finite_values():
    nan, inf = float("nan"), float("inf")
    assert match_multisets([nan, 1.0], [1.0, 2.0]).max_distance == inf
    assert match_multisets([1.0, 2.0], [2.0, complex(1.0, nan)]).max_distance == inf
    assert match_multisets([inf], [inf]).max_distance == inf


def greedy_match_oracle(computed, target):
    """The O(n^3) matching loop: a fresh minimum over all remaining pairs
    at each step.  Set iteration over small ints is ascending and ``min``
    keeps the first minimum, so ties go to (computed index, target index)."""
    a = [complex(z) for z in computed]
    b = [complex(z) for z in target]
    if not all(cmath.isfinite(z) for z in a + b):
        return (), math.inf
    left, right = set(range(len(a))), set(range(len(b)))
    pairs, worst = [], 0.0
    while left:
        i, j, d = min(
            ((i, j, abs(a[i] - b[j])) for i in left for j in right),
            key=lambda t: t[2],
        )
        pairs.append((i, j, d))
        worst = max(worst, d)
        left.remove(i)
        right.remove(j)
    return tuple(pairs), worst


def assert_matches_oracle(computed, target):
    m = match_multisets(computed, target)
    assert (m.pairs, m.max_distance) == greedy_match_oracle(computed, target)
    assert all(type(d) is float for _, _, d in m.pairs)


def test_match_multisets_equals_greedy_oracle_on_random_multisets():
    rng = random.Random(7)
    for n in range(1, 65):
        a = [complex(rng.gauss(0, 10), rng.gauss(0, 10)) for _ in range(n)]
        noisy = [z + complex(rng.gauss(0, 1e-6), rng.gauss(0, 1e-6)) for z in a]
        rng.shuffle(noisy)
        assert_matches_oracle(a, noisy)
        other = [complex(rng.gauss(0, 10), rng.gauss(0, 10)) for _ in range(n)]
        assert_matches_oracle(a, other)


def test_match_multisets_equals_greedy_oracle_on_ties():
    # draws from a 5-value pool: most distances tie, so the order in which
    # equally close pairs are taken decides the pairing
    rng = random.Random(11)
    pool = [0.0, 1.0, -1.0, 1j, complex(1, -1)]
    for n in range(1, 41):
        a = [rng.choice(pool) for _ in range(n)]
        b = [rng.choice(pool) for _ in range(n)]
        assert_matches_oracle(a, b)


def test_match_multisets_equals_greedy_oracle_on_edge_cases():
    nan, inf = float("nan"), float("inf")
    assert match_multisets([], []) == MatchResult((), 0.0)
    for computed, target in [
        ([], []),
        ([nan, 1.0], [1.0, 2.0]),
        ([1.0, 2.0], [2.0, complex(1.0, nan)]),
        ([inf], [inf]),
    ]:
        assert_matches_oracle(computed, target)


@pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
def test_float_spectrum_of_orthogonal_conjugate_at_benchmark_sizes(n):
    # A = Q D Q^T: Q orthogonal, D block diagonal with real 1x1 blocks
    # and 2x2 rotation blocks [[a, b], [-b, a]] (eigenvalues a +- ib)
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.zeros((n, n))
    want = []
    k = 0
    while k < n:
        if k + 1 < n and rng.random() < 0.5:
            a, b = rng.uniform(-10, 10), rng.uniform(0.5, 10)
            d[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
            want += [complex(a, b), complex(a, -b)]
            k += 2
        else:
            x = rng.uniform(-10, 10)
            d[k, k] = x
            want.append(complex(x))
            k += 1
    est = eigenvalues(DenseMatrix((q @ d @ q.T).tolist()))
    scale = max(abs(z) for z in want)
    assert match_multisets(est.values, want).max_distance <= 1e-9 * scale
    nonreal = [z for z in est.values if z.imag != 0.0]
    assert len(nonreal) == sum(1 for z in want if z.imag != 0.0)
    for z in nonreal:
        assert nonreal.count(z.conjugate()) == nonreal.count(z)
    assert est.residual <= 1e-9 * scale


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(diagforge.eigen.np.linalg, "eigvals", failing)
    a = DenseMatrix([[4.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 5.0, 2.0]])
    with pytest.raises(ConvergenceError, match="did not converge"):
        eigenvalues(a)
