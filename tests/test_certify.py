import importlib
import math
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

        def spy(rows, bound):
            bounds.append(bound)
            return original(rows, bound)

        monkeypatch.setattr(diagforge.eigen, "_residue_stack", spy)
        B, plan = realize_mixed(spectrum, gammas, order="auto")
        assert B.n == 18 and max(bounds).bit_length() > 1279
        monkeypatch.undo()
        # the same checks with the identity decided over Q
        monkeypatch.setattr(
            importlib.import_module("diagforge.certify"), "same_char_poly",
            lambda X, Y: diagforge.eigen.char_poly(X) == diagforge.eigen.char_poly(Y),
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
