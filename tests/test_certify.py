import importlib
import math
import random
from fractions import Fraction

import pytest

import diagforge.eigen
from diagforge.certify import certify
from diagforge.matrix import DenseMatrix
from diagforge.nonneg import realize_mixed, realize_suleimanova
from diagforge.scalars import exact_complex

GOOD = realize_suleimanova([5, -1, -2], (1, 1, 0))  # [[1,2,2],[2,1,2],[3,2,0]]


def test_full_pass():
    cert = certify(
        GOOD,
        spectrum=[5, -1, -2],
        diagonal=(1, 1, 0),
        nonneg=True,
        constant_row_sums=True,
    )
    assert cert.ok and bool(cert)
    assert cert.checks == {
        "spectrum": True,
        "diagonal": True,
        "nonneg": True,
        "constant_row_sums": True,
    }
    assert cert.spectrum_residual < 1e-8
    assert cert.min_entry == 0


def test_only_requested_checks_run():
    cert = certify(GOOD, diagonal=(1, 1, 0))
    assert set(cert.checks) == {"diagonal"}
    assert cert.ok


def test_wrong_spectrum_fails_with_residual():
    cert = certify(GOOD, spectrum=[5, -1, -1])
    assert not cert.ok
    assert cert.checks["spectrum"] is False
    assert cert.spectrum_residual > 0.5


def test_wrong_length_target_is_a_verdict_not_an_error():
    cert = certify(GOOD, spectrum=[5, -1])
    assert not cert.ok
    cert2 = certify(GOOD, diagonal=(1, 1))
    assert not cert2.ok


def test_planted_negative_entry_fails_nonneg():
    rows = [list(r) for r in GOOD.to_float().rows]
    rows[2][2] = -0.01
    cert = certify(DenseMatrix(rows), nonneg=True)
    assert not cert.ok
    assert cert.min_entry == -0.01


def test_tiny_float_noise_is_tolerated():
    rows = [list(r) for r in GOOD.to_float().rows]
    rows[2][2] = -1e-14
    cert = certify(DenseMatrix(rows), nonneg=True)
    assert cert.checks["nonneg"] is True


def test_exact_backend_rejects_any_negative():
    rows = [list(r) for r in GOOD.rows]
    rows[2][2] = Fraction(-1, 10**9)
    cert = certify(DenseMatrix(rows), nonneg=True)
    assert not cert.ok


def test_broken_row_sums_detected():
    rows = [list(r) for r in GOOD.rows]
    rows[0][1] += 1
    cert = certify(DenseMatrix(rows), constant_row_sums=True)
    assert not cert.ok


def test_diagonal_mismatch_detected():
    cert = certify(GOOD, diagonal=(1, 1, 1))
    assert not cert.ok


def test_to_dict_serializable_fields():
    cert = certify(GOOD, spectrum=[5, -1, -2], nonneg=True)
    d = cert.to_dict()
    assert d["ok"] is True
    assert set(d["checks"]) == {"spectrum", "nonneg"}
    assert all(len(pair) == 2 for pair in d["computed_spectrum"])
    assert "thresholds" in d


# criterion 1's realization over Q(i): spectrum 16, -1, -2, -2 +- 2i, -2 +- 3i
SEVEN = DenseMatrix([
    [0, 2, 4, 2, Fraction(200, 73), Fraction(192, 73), Fraction(192, 73)],
    [1, 1, 4, 2, Fraction(200, 73), Fraction(192, 73), Fraction(192, 73)],
    [2, 2, 2, 2, Fraction(200, 73), Fraction(192, 73), Fraction(192, 73)],
    [4, 2, 4, 0, Fraction(150, 73), Fraction(144, 73), Fraction(144, 73)],
    [0, 2, 4, 4, 2, 0, 4],
    [0, 2, 4, 4, Fraction(25, 6), 0, Fraction(11, 6)],
    [0, 2, 4, 4, 0, 6, 0],
])


class TestExactSpectrum:
    @pytest.fixture(autouse=True)
    def no_eigenvalues(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exact certification called eigenvalues()")

        # the package re-exports the function certify under the module's name
        certify_module = importlib.import_module("diagforge.certify")
        monkeypatch.setattr(certify_module, "eigenvalues", forbidden)

    def test_pass_is_decided_without_eigenvalues(self):
        cert = certify(GOOD, spectrum=[5, -1, -2], diagonal=(1, 1, 0))
        assert cert.ok
        assert cert.thresholds["spectrum"] == 0.0
        assert cert.spectrum_residual == 0.0
        assert cert.computed_spectrum == ()

    def test_entry_changed_by_a_seventh_is_rejected(self):
        rows = [list(r) for r in GOOD.rows]
        rows[2][0] += Fraction(1, 7)
        cert = certify(DenseMatrix(rows), spectrum=[5, -1, -2])
        assert cert.checks["spectrum"] is False
        assert cert.spectrum_residual == math.inf
        assert cert.to_dict()["spectrum_residual"] is None
        assert cert.computed_spectrum == ()

    def test_gaussian_rational_spectrum_is_accepted(self):
        spectrum = [
            16, -1, -2,
            exact_complex(-2, 2), exact_complex(-2, -2),
            exact_complex(-2, 3), exact_complex(-2, -3),
        ]
        cert = certify(SEVEN, spectrum=spectrum)
        assert cert.ok
        assert cert.spectrum_residual == 0.0

    def test_targets_not_closed_under_conjugation_are_rejected(self):
        # same trace as the true spectrum, but no real matrix has it
        spectrum = [
            16, -1, -2, -2,
            exact_complex(-2, 3), exact_complex(-2, -2), exact_complex(-2, -1),
        ]
        cert = certify(SEVEN, spectrum=spectrum)
        assert cert.checks["spectrum"] is False
        assert cert.spectrum_residual == math.inf


def test_exact_matrix_with_float_targets_takes_the_numeric_route():
    cert = certify(GOOD, spectrum=[5.0, -1.0, -2.0])
    assert cert.ok
    assert len(cert.computed_spectrum) == 3
    assert 0.0 < cert.thresholds["spectrum"] < 1e-6


def wedge_24():
    """A Suleimanova-type realization at n = 24 with seven conjugate
    pairs, as the wedge-exact benchmark workload builds them."""
    reals = [-Fraction(k % 12 + 1, k % 4 + 1) for k in range(9)]
    pairs = [(Fraction(k % 8 + 1, k % 3 + 1), Fraction(k + 1, 10)) for k in range(7)]
    spectrum = [-sum(reals) + sum(x * (2 + y) for x, y in pairs) + Fraction(7, 3)]
    spectrum += reals
    for x, y in pairs:
        spectrum += [exact_complex(-x, x * y), exact_complex(-x, -x * y)]
    weights = [(3 * k) % 10 for k in range(24)]
    gammas = [sum(spectrum) * Fraction(w, sum(weights)) for w in weights]
    return realize_suleimanova(spectrum, gammas), spectrum, gammas


def chain_18():
    """A mixed Smigoc realization at n = 18 (six wide pairs, three reals
    and one narrow pair), as the chain-exact benchmark workload builds
    them; its identity bound is past 2^1279."""
    reals = [-Fraction(k + 1, 2) for k in range(3)]
    pairs = [(Fraction(3, 2), Fraction(3, 10))]
    pairs += [(Fraction(k % 5 + 1, 2), Fraction(11 + k, 10)) for k in range(6)]
    spectrum = [-sum(reals) + sum(2 * x for x, _ in pairs) + Fraction(5, 2)]
    spectrum += reals
    for x, y in pairs:
        spectrum += [exact_complex(-x, x * y), exact_complex(-x, -x * y)]
    weights = [(7 * k) % 10 for k in range(18)]
    gammas = [sum(spectrum) * Fraction(w, sum(weights)) for w in weights]
    return spectrum, gammas


class TestModularIdentity:
    @pytest.fixture(autouse=True)
    def no_char_poly(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("exact certification called char_poly()")

        monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden)

    def test_wedge_realization_at_24_keeps_its_certificate(self):
        B, spectrum, gammas = wedge_24()
        cert = certify(
            B, spectrum=spectrum, diagonal=gammas, nonneg=True, constant_row_sums=True
        )
        names = ("spectrum", "diagonal", "nonneg", "constant_row_sums")
        assert cert.to_dict() == {
            "ok": True,
            "checks": dict.fromkeys(names, True),
            "thresholds": dict.fromkeys(names, 0.0),
            "spectrum_residual": 0.0,
            "diag_residual": 0.0,
            "min_entry": 0.0,
            "row_sum_deviation": 0.0,
            "computed_spectrum": [],
        }

    def test_chain_realization_at_18_keeps_its_certificate(self, monkeypatch):
        spectrum, gammas = chain_18()
        original, bounds = diagforge.eigen._residue_stack, []

        def spy(views, bound, values=()):
            bounds.append(bound)
            return original(views, bound, values)

        monkeypatch.setattr(diagforge.eigen, "_residue_stack", spy)
        B, plan = realize_mixed(spectrum, gammas, order="auto")
        assert B.n == 18 and max(bounds).bit_length() > 1279
        monkeypatch.undo()
        # the same checks with the identity decided over Q
        monkeypatch.setattr(
            importlib.import_module("diagforge.certify"), "char_poly_matches",
            lambda B, poly: [poly[0] * c for c in diagforge.eigen.char_poly(B)] == poly,
        )
        over_q = certify(
            B, spectrum=spectrum, diagonal=gammas, nonneg=True, constant_row_sums=True
        )
        assert plan.certificate == over_q
        assert plan.certificate.to_dict() == over_q.to_dict()
        assert over_q.ok and over_q.spectrum_residual == 0.0

    def test_wedge_targets_missing_a_conjugate_are_rejected(self):
        B, spectrum, _ = wedge_24()
        z = spectrum[-1]
        # a - bi replaced by a: same length and real trace, no longer
        # closed under conjugation
        cert = certify(B, spectrum=spectrum[:-1] + [z.re])
        assert cert.checks == {"spectrum": False}
        assert cert.spectrum_residual == math.inf


def expanded(targets):
    """prod(t - target) over Q(i), highest degree first."""
    poly = [Fraction(1)]
    for z in targets:
        poly = [a - z * b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def over_q(B, targets):
    """The spectrum verdict decided over Q: char_poly(B) == prod(t - target)."""
    return diagforge.eigen.char_poly(B) == expanded(targets)


def block_matrix(targets):
    """A real matrix with spectrum ``targets`` (closed under conjugation):
    the real values on the diagonal, [[a, -b], [b, a]] for each a + bi."""
    n = len(targets)
    rows = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for z in targets:
        if isinstance(z, Fraction):
            rows[k][k] = z
            k += 1
        elif z.im > 0:
            rows[k][k] = rows[k + 1][k + 1] = z.re
            rows[k][k + 1], rows[k + 1][k] = -z.im, z.im
            k += 2
    return rows


def conjugated(rows, rng):
    """rows conjugated by a few rational transvections: the same char
    poly, with row denominators."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    return DenseMatrix(rows)


def seeded_targets(rng, n):
    """Exact targets with denominators, a repeated value and conjugate
    pairs, real values first."""
    n_pairs = rng.randint(0, (n - 1) // 2)
    reals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n - 2 * n_pairs)]
    if len(reals) > 1:
        reals[-1] = reals[0]
    targets = list(reals)
    for _ in range(n_pairs):
        z = exact_complex(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                          Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        targets += [z, z.conjugate()]
    return targets


def spectrum_verdict(B, targets):
    return certify(B, spectrum=targets).checks["spectrum"]


class TestTargetPolynomial:
    def test_seeded_realizations_and_one_change_by_a_seventh(self, monkeypatch):
        rng = random.Random(20261021)
        cases = []
        for _ in range(30):
            targets = seeded_targets(rng, rng.randint(2, 9))
            B = conjugated(block_matrix(targets), rng)
            cases.append((B, targets, True))
            # one target changed by 1/7 (with its conjugate, so the
            # targets stay closed and the identity decides)
            k = rng.randrange(len(targets))
            z = targets[k]
            moved = list(targets)
            moved[k] = z + Fraction(1, 7)
            if not isinstance(z, Fraction):
                moved[targets.index(z.conjugate())] = z.conjugate() + Fraction(1, 7)
            cases.append((B, moved, False))
            # one entry of B changed by 1/7
            rows = [list(r) for r in B.rows]
            rows[rng.randrange(B.n)][rng.randrange(B.n)] += Fraction(1, 7)
            cases.append((DenseMatrix(rows), targets, None))
        want = [over_q(B, t) for B, t, _ in cases]
        assert [k for _, _, k in cases if k is not None] == [
            w for (_, _, k), w in zip(cases, want) if k is not None
        ]
        assert want.count(False) >= 40
        monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden_char_poly)
        assert [spectrum_verdict(B, t) for B, t, _ in cases] == want

    def test_a_target_over_the_largest_table_prime(self, monkeypatch):
        p = int(diagforge.eigen._table_primes()[0])
        targets = [Fraction(1, p), Fraction(-2, 3), Fraction(5)]
        # B's row lcms carry p, so p is skipped
        B = conjugated(block_matrix(targets), random.Random(7))
        # an integer B: p divides L_q only, so p is used
        C = DenseMatrix([[0, 1, 0], [0, 0, 1], [2, -3, 1]])
        cases = [(B, targets), (B, [Fraction(2, p)] + targets[1:]), (C, targets)]
        want = [over_q(X, t) for X, t in cases]
        assert want == [True, False, False]
        used = spy_on_kernel(monkeypatch)
        assert [spectrum_verdict(X, t) for X, t in cases] == want
        assert p not in used[0][1] and p in used[2][1]

    def test_targets_missing_a_conjugate_fail(self):
        z = exact_complex(Fraction(-1, 2), Fraction(3, 4))
        targets = [Fraction(2), z, z.conjugate()]
        B = conjugated(block_matrix(targets), random.Random(3))
        for bad in ([Fraction(2), z, z], [Fraction(2), z, z.re], [z.re, z, z.conjugate()]):
            assert not over_q(B, bad)
            assert not spectrum_verdict(B, bad)
        assert over_q(B, targets) and spectrum_verdict(B, targets)

    def test_size_1(self, monkeypatch):
        B = DenseMatrix([[Fraction(-7, 3)]])
        cases = [[Fraction(-7, 3)], [Fraction(-7, 3) + Fraction(1, 7)], [Fraction(7, 3)]]
        want = [over_q(B, t) for t in cases]
        assert want == [True, False, False]
        monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden_char_poly)
        assert [spectrum_verdict(B, t) for t in cases] == want

    def test_the_kernel_runs_one_slice_per_prime(self, monkeypatch):
        B, spectrum, _ = wedge_24()
        calls = spy_on_kernel(monkeypatch)
        assert spectrum_verdict(B, spectrum)
        ((slices, primes),) = calls
        assert slices == len(primes) == len(set(primes)) > 1
        # same_char_poly still runs both of its matrices, 2K slices
        del calls[:]
        assert diagforge.eigen.same_char_poly(B, B)
        ((slices, primes),) = calls
        assert slices == len(primes) == 2 * len(set(primes))


def forbidden_char_poly(*args, **kwargs):
    raise AssertionError("rational certification fell back to char_poly")


def spy_on_kernel(monkeypatch):
    """Record (slices, primes) of every modular char-poly run."""
    original, calls = diagforge.eigen._char_polys_mod, []

    def spy(H, primes):
        calls.append((H.shape[0], primes.tolist()))
        return original(H, primes)

    monkeypatch.setattr(diagforge.eigen, "_char_polys_mod", spy)
    return calls


def fraction_certificate_fields(B):
    """The nonneg and row-sum fields of an exact certificate, computed
    entry by entry on the Fractions: the reference for the view."""
    worst = min(x for row in B.rows for x in row)
    sums = [sum(row) for row in B.rows]
    return {
        "nonneg": worst >= 0,
        "min_entry": float(worst),
        "constant_row_sums": all(s == sums[0] for s in sums),
        "row_sum_deviation": max(abs(float(s - sums[0])) for s in sums),
    }


def rational_cases():
    rng = random.Random(20261022)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) if rng.random() < 0.6 else 0
             for _ in range(n)]
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            rows[rng.randrange(n)] = [0] * n
        if rng.random() < 0.3:
            # nonnegative rows with one common sum
            rows = [[abs(x) for x in r] for r in rows]
            total = max(sum(r) for r in rows) + 1
            rows = [r[:-1] + [total - sum(r[:-1])] for r in rows]
        cases.append(DenseMatrix(rows))
    return cases


def test_the_integer_view_keeps_the_fraction_verdicts():
    cases = rational_cases()
    seen = set()
    for B in cases:
        cert = certify(B, nonneg=True, constant_row_sums=True)
        want = fraction_certificate_fields(B)
        got = {
            "nonneg": cert.checks["nonneg"],
            "min_entry": cert.min_entry,
            "constant_row_sums": cert.checks["constant_row_sums"],
            "row_sum_deviation": cert.row_sum_deviation,
        }
        assert got == want
        assert B.min_real_entry() == min(x for row in B.rows for x in row)
        seen.add((want["nonneg"], want["constant_row_sums"]))
    # both verdicts of both checks occur
    assert {n for n, _ in seen} == {c for _, c in seen} == {True, False}


def test_the_wedge_route_builds_one_view_per_matrix(monkeypatch):
    matrix = importlib.import_module("diagforge.matrix")
    original, built = matrix._scale_to_integers, []

    def spy(rows):
        built.append(rows)
        return original(rows)

    certify_module = importlib.import_module("diagforge.certify")
    at_certify = []

    def certify_spy(B, **kwargs):
        at_certify.append(list(built))
        return certify(B, **kwargs)

    monkeypatch.setattr(matrix, "_scale_to_integers", spy)
    monkeypatch.setattr(certify_module, "certify", certify_spy)
    spectrum = [Fraction(9), Fraction(-2, 3), exact_complex(-1, Fraction(1, 2)),
                exact_complex(-1, Fraction(-1, 2)), Fraction(-3)]
    B, plan = realize_mixed(spectrum, [Fraction(1, 3), 0, 1, 1, 1])
    assert plan.certificate.ok
    # the floor check in realize_suleimanova built B's view, and the
    # certification read it without building another
    assert [[rows is B.rows for rows in seen] for seen in at_certify] == [[True]]
    assert len(built) == 1


def test_an_entry_beyond_the_float_range_is_judged_exactly():
    big = 10**400
    B = DenseMatrix([[-big, 0], [0, 3]])
    cert = certify(B, spectrum=[3, -big], diagonal=[-big, 3], nonneg=True,
                   constant_row_sums=True)
    assert cert.checks == {"spectrum": True, "diagonal": True, "nonneg": False,
                           "constant_row_sums": False}
    assert cert.min_entry == -math.inf and cert.row_sum_deviation == math.inf
    assert cert.to_dict()["min_entry"] is None
    assert cert.to_dict()["row_sum_deviation"] is None
    cert = certify(B, diagonal=[big, 3])
    assert not cert.ok and cert.diag_residual == math.inf
