import hashlib
import importlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import diagforge.eigen
from diagforge.cli import main, parse_matrix
from diagforge.eigen import SpectrumEstimate
from diagforge.errors import ConvergenceError
from diagforge.matrix import DenseMatrix
from diagforge.scalars import exact_complex


def run(tmp_path, problem, *args):
    inp = tmp_path / "problem.json"
    out = tmp_path / "result.json"
    inp.write_text(json.dumps(problem))
    code = main([args[0], "--input", str(inp), "--output", str(out),
                 *args[1:]])
    return code, json.loads(out.read_text()), out.read_text()


class TestClassify:
    def test_narrow_wedge(self, tmp_path):
        code, doc, _ = run(tmp_path, {"spectrum": [5, -1, -2]}, "classify")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["class"] == "SuleimanovaF"
        assert doc["flags"] == ["F", "F"]
        assert doc["perron"] == 5

    def test_outside_is_still_a_classification(self, tmp_path):
        code, doc, _ = run(tmp_path, {"spectrum": [5, -1, 2]}, "classify")
        assert code == 0
        assert doc["class"] == "Outside"

    def test_complex_entries(self, tmp_path):
        problem = {"spectrum": [7, -1, [-2, 3], [-2, -3]]}
        code, doc, _ = run(tmp_path, problem, "classify")
        assert code == 0
        assert doc["class"] == "Mixed"
        assert doc["flags"] == ["F", "G-F", "G-F"]

    def test_dominance_failure_is_infeasible(self, tmp_path):
        problem = {"spectrum": [3, [-2, 3], [-2, -3]]}
        code, doc, _ = run(tmp_path, problem, "classify")
        assert code == 3
        assert doc["status"] == "infeasible"
        assert doc["condition"] == "perron-dominance"


class TestRealizeNonnegative:
    PROBLEM = {
        "spectrum": [7, -1, [-2, 3], [-2, -3]],
        "diagonal": [1, 1, 0, 0],
    }

    def test_exact_output_uses_rational_strings(self, tmp_path):
        code, doc, text = run(
            tmp_path, self.PROBLEM, "realize", "--order", "keep", "--exact"
        )
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["matrix"][0] == [1, "54/29", "60/29", "60/29"]
        assert doc["matrix"][2] == [2, "18/5", 0, "7/5"]
        assert doc["plan"]["bridges"] == [5]
        assert doc["certificate"]["ok"] is True
        assert '"54/29"' in text

    def test_float_output_by_default(self, tmp_path):
        code, doc, _ = run(tmp_path, self.PROBLEM, "realize", "--order", "keep")
        assert code == 0
        assert doc["matrix"][0][1] == pytest.approx(54 / 29)

    def test_matrix_key_rejected(self, tmp_path):
        bad = {"matrix": [[1]], "diagonal": [1]}
        code, doc, _ = run(tmp_path, bad, "realize")
        assert code == 2
        assert doc["status"] == "error"

    def test_trace_mismatch_is_invalid_input(self, tmp_path):
        bad = dict(self.PROBLEM, diagonal=[1, 1, 1, 1])
        code, doc, _ = run(tmp_path, bad, "realize")
        assert code == 2

    def test_outside_spectrum_is_infeasible(self, tmp_path):
        bad = {"spectrum": [4, [-1, 3], [-1, -3]], "diagonal": [1, 1, 0]}
        code, doc, _ = run(tmp_path, bad, "realize")
        assert code == 3
        assert doc["condition"] == "outside-class"

    def test_exact_flag_rejects_floats(self, tmp_path):
        bad = dict(self.PROBLEM, diagonal=[1.0, 1, 0, 0])
        code, doc, _ = run(tmp_path, bad, "realize", "--exact")
        assert code == 2
        assert "not allowed with --exact" in doc["error"]

    def test_order_from_file_overridden_by_flag(self, tmp_path):
        # the file asks for caller order; the flag switches the planner,
        # visible in the recorded assignment and bridge
        problem = {
            "spectrum": [7, -1, [-2, 3], [-2, -3]],
            "diagonal": [0, 1, 0, 1],
            "order": "keep",
        }
        code, doc, _ = run(tmp_path, problem, "realize")
        assert code == 0
        assert doc["plan"]["assignment"] == [0, 1, 2, 3]
        assert doc["plan"]["bridges"] == [6.0]
        code, doc, _ = run(tmp_path, problem, "realize", "--order", "auto")
        assert code == 0
        assert doc["plan"]["assignment"] == [1, 3, 0, 2]
        assert doc["plan"]["bridges"] == [5.0]
        assert doc["diagonal"] == [0, 1, 0, 1]
        assert [doc["matrix"][i][i] for i in range(4)] == [0, 1, 0, 1]

    def test_seed_flag_is_rejected(self, tmp_path):
        inp = tmp_path / "problem.json"
        inp.write_text(json.dumps(self.PROBLEM))
        with pytest.raises(SystemExit) as exc:
            main(["realize", "--input", str(inp), "--seed", "3"])
        assert exc.value.code == 2

    def test_seed_key_is_ignored_like_any_unknown_key(self, tmp_path):
        _, _, plain = run(tmp_path, self.PROBLEM, "realize", "--exact")
        code, _, seeded = run(tmp_path, {**self.PROBLEM, "seed": 3}, "realize", "--exact")
        assert code == 0
        assert seeded == plain


class TestRealizeGeneral:
    def test_diagonal_matrix_correction(self, tmp_path):
        problem = {
            "mode": "general",
            "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
            "diagonal": [2, 2, 2],
        }
        code, doc, _ = run(tmp_path, problem, "realize", "--exact")
        assert code == 0
        assert doc["matrix"] == [[2, 0, -1], [0, 2, -1], [-1, 0, 2]]
        assert [s["op"] for s in doc["trace"]] == ["embed", "scale", "rank_one"]
        assert doc["certificate"]["ok"] is True

    def test_spectrum_key_rejected(self, tmp_path):
        bad = {"mode": "general", "spectrum": [1], "diagonal": [1]}
        code, _, _ = run(tmp_path, bad, "realize")
        assert code == 2

    def test_unknown_mode(self, tmp_path):
        bad = {"mode": "fast", "matrix": [[1]], "diagonal": [1]}
        code, _, _ = run(tmp_path, bad, "realize")
        assert code == 2


class TestSimilar:
    def test_general_matrix(self, tmp_path):
        problem = {
            "matrix": [[4, 1, 0], [2, -1, 3], [0, 5, 2]],
            "diagonal": [5, 1, -1],
        }
        code, doc, _ = run(tmp_path, problem, "similar")
        assert code == 0
        assert [doc["matrix"][i][i] for i in range(3)] == [5, 1, -1]
        assert doc["certificate"]["ok"] is True

    def test_missing_matrix(self, tmp_path):
        code, _, _ = run(tmp_path, {"diagonal": [1]}, "similar")
        assert code == 2

    def test_diagonal_with_every_value_repeated_is_infeasible(self, tmp_path):
        # no diagonal value is a simple eigenvalue to anchor the rewrite at
        problem = {"matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                   "diagonal": [0, 0, 3, 3]}
        code, doc, _ = run(tmp_path, problem, "similar", "--exact")
        assert code == 3
        assert doc["status"] == "infeasible"
        assert doc["condition"] == "no-simple-anchor"

    def test_convergence_failure_is_exit_four(self, tmp_path, monkeypatch):
        def stalled(A, tol=1e-10):
            raise ConvergenceError("QR iteration did not converge within 0 sweeps")

        monkeypatch.setattr(diagforge.eigen, "eigenvalues", stalled)
        problem = {
            "matrix": [[4, 1, 0], [2, -1, 3], [0, 5, 2]],
            "diagonal": [5, 1, -1],
        }
        code, doc, _ = run(tmp_path, problem, "similar")
        assert code == 4
        assert doc == {
            "status": "convergence-failure",
            "error": "QR iteration did not converge within 0 sweeps",
        }


class TestLapackFailure:
    def test_similar_exits_four(self, tmp_path, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(diagforge.eigen.np.linalg, "eigvals", failing)
        problem = {
            "matrix": [[4.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 5.0, 2.0]],
            "diagonal": [5.0, 1.0, -1.0],
        }
        code, doc, _ = run(tmp_path, problem, "similar")
        assert code == 4
        assert doc["status"] == "convergence-failure"
        assert "did not converge" in doc["error"]


class TestNonFiniteSpectrum:
    def test_nan_spectrum_is_a_certification_failure(self, tmp_path, monkeypatch):
        def nan_spectrum(B, tol=1e-10):
            return SpectrumEstimate((complex(float("nan"), 0.0),) * B.n, 0.0)

        # the package re-exports the function certify under the module's name
        certify_module = importlib.import_module("diagforge.certify")
        monkeypatch.setattr(certify_module, "eigenvalues", nan_spectrum)
        # on the float backend: an exact output is certified by char-poly
        # identity and never reaches eigenvalues()
        problem = {"spectrum": [5.0, -1.0, -2.0], "diagonal": [1.0, 1.0, 0.0]}
        code, doc, _ = run(tmp_path, problem, "realize")
        assert code == 4
        assert doc["status"] == "certification-failure"
        cert = doc["certificate"]
        assert cert["ok"] is False
        assert cert["checks"]["spectrum"] is False
        assert cert["spectrum_residual"] is None
        assert cert["computed_spectrum"] == [[None, 0.0]] * 3


# Exact Suleimanova-type problems (n = 23, 24, 24): regression problems for
# the modular char-poly identity, which must certify their correct
# realizations exactly.
WEDGE_FAULT_PROBLEMS = (
    (
        '{"spectrum": ["7301/120", "-8/3", -5, -1, -11, -3, "-5/2", [-2,'
        ' "6/5"], [-2, "-6/5"], ["-5/2", "1/2"], ["-5/2", "-1/2"],'
        ' ["-5/4", "9/8"], ["-5/4", "-9/8"], [-4, "8/5"], [-4, "-8/5"],'
        ' [-1, "1/5"], [-1, "-1/5"], [-2, "1/5"], [-2, "-1/5"], ["-1/2",'
        ' "1/2"], ["-1/2", "-1/2"], [-1, "1/10"], [-1, "-1/10"]],'
        ' "diagonal": ["2583/4000", "287/2000", "2583/4000",'
        ' "2009/4000", "287/1000", "287/800", "287/2000", "861/4000",'
        ' "287/4000", 0, "287/1000", "2009/4000", "287/2000", "287/500",'
        ' "287/4000", "287/4000", "2583/4000", 0, "287/800", "287/1000",'
        ' "2009/4000", "861/2000", "287/1000"]}'
    ),
    (
        '{"spectrum": ["12701/120", "-11/2", -1, -5, "-11/3", "-1/2",'
        ' [-7, "7/5"], [-7, "-7/5"], [-5, "5/2"], [-5, "-5/2"], ["-7/4",'
        ' "7/8"], ["-7/4", "-7/8"], [-6, "21/5"], [-6, "-21/5"], [-4,'
        ' "2/5"], [-4, "-2/5"], ["-7/2", "7/4"], ["-7/2", "-7/4"],'
        ' ["-2/3", "1/15"], ["-2/3", "-1/15"], [-2, "7/5"], [-2,'
        ' "-7/5"], -7, -7], "diagonal": ["53/360", "53/120", "53/60",'
        ' "53/40", "53/360", "53/45", "53/360", "371/360", "53/45",'
        ' "53/45", "53/120", "53/40", "53/360", "371/360", "371/360",'
        ' "53/120", "53/60", 0, "53/120", "371/360", 0, "53/120",'
        ' "53/45", "53/180"]}'
    ),
    (
        '{"spectrum": ["2709/40", -2, ["-3/2", "6/5"], ["-3/2", "-6/5"],'
        ' ["-5/2", "5/4"], ["-5/2", "-5/4"], [-1, "3/10"], [-1,'
        ' "-3/10"], [-5, "3/2"], [-5, "-3/2"], ["-1/4", "1/40"],'
        ' ["-1/4", "-1/40"], ["-4/3", "6/5"], ["-4/3", "-6/5"], [-2,'
        ' "2/5"], [-2, "-2/5"], ["-1/3", "1/10"], ["-1/3", "-1/10"],'
        ' ["-3/4", "3/20"], ["-3/4", "-3/20"], ["-8/3", "8/5"], ["-8/3",'
        ' "-8/5"], [-6, 6], [-6, -6]], "diagonal": ["2287/11760",'
        ' "2287/2940", "2287/5880", 0, "2287/11760", "2287/2940",'
        ' "2287/5880", "2287/1960", "2287/2940", "2287/1470",'
        ' "2287/1960", "6861/3920", "2287/2352", "2287/11760",'
        ' "2287/2352", "2287/1680", "2287/2940", "2287/2352",'
        ' "2287/2352", "2287/1470", "2287/5880", "2287/2940",'
        ' "2287/3920", "2287/5880"]}'
    ),
)


class TestExactCertification:
    @pytest.mark.parametrize("problem", WEDGE_FAULT_PROBLEMS)
    def test_large_wedge_realization_certifies(self, tmp_path, problem):
        code, doc, _ = run(tmp_path, json.loads(problem), "realize", "--exact")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["certificate"]["checks"]["spectrum"] is True


class TestVerify:
    GOOD = [[1, 2, 2], [2, 1, 2], [3, 2, 0]]  # spectrum {5,-1,-2}, CS 5

    def test_pass(self, tmp_path):
        problem = {
            "matrix": self.GOOD,
            "spectrum": [5, -1, -2],
            "diagonal": [1, 1, 0],
            "nonneg": True,
            "constant_row_sums": True,
        }
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 0
        assert doc["status"] == "pass"
        assert all(doc["certificate"]["checks"].values())

    def test_fail_is_exit_one(self, tmp_path):
        problem = {"matrix": self.GOOD, "spectrum": [5, -1, -1]}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 1
        assert doc["status"] == "fail"

    def test_needs_a_target(self, tmp_path):
        code, _, _ = run(tmp_path, {"matrix": self.GOOD}, "verify")
        assert code == 2

    @pytest.mark.parametrize("key", ["nonneg", "constant_row_sums"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_flags_must_be_booleans(self, tmp_path, key, value):
        problem = {"matrix": [[1, -1], [0, 2]], key: value}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 2
        assert doc["status"] == "error"
        assert key in doc["error"]

    def test_unknown_mode_rejected(self, tmp_path):
        problem = {"matrix": self.GOOD, "spectrum": [5, -1, -2], "mode": "nonsense"}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 2
        assert doc["status"] == "error"
        assert "mode" in doc["error"]

    def test_nonnegative_mode_checks_nonneg(self, tmp_path):
        problem = {"matrix": [[1, -1], [0, 2]], "mode": "nonnegative"}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 1
        assert doc["certificate"]["checks"] == {"nonneg": False}
        problem["nonneg"] = False
        problem["diagonal"] = [1, 2]
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 0
        assert set(doc["certificate"]["checks"]) == {"diagonal"}


class TestRoundTrip:
    def test_realize_then_verify(self, tmp_path):
        problem = {
            "spectrum": [7, -1, [-2, 3], [-2, -3]],
            "diagonal": [1, 1, 0, 0],
        }
        code, doc, _ = run(tmp_path, problem, "realize", "--order", "keep")
        assert code == 0
        check = {
            "matrix": doc["matrix"],
            "spectrum": problem["spectrum"],
            "diagonal": problem["diagonal"],
            "nonneg": True,
            "constant_row_sums": True,
        }
        code, doc2, _ = run(tmp_path, check, "verify")
        assert code == 0
        assert doc2["status"] == "pass"


class TestParsing:
    def test_bad_rational_string(self, tmp_path):
        code, doc, _ = run(tmp_path, {"spectrum": [5, "x/y"]}, "classify")
        assert code == 2

    def test_nonsquare_matrix(self, tmp_path):
        bad = {"matrix": [[1, 2], [3]], "diagonal": [1, 2]}
        code, _, _ = run(tmp_path, bad, "similar")
        assert code == 2

    def test_missing_input_file(self, tmp_path):
        out = tmp_path / "result.json"
        code = main(["classify", "--input", str(tmp_path / "nope.json"),
                     "--output", str(out)])
        assert code == 2

    def test_stdout_default(self, tmp_path, capsys):
        inp = tmp_path / "p.json"
        inp.write_text(json.dumps({"spectrum": [5, -1, -2]}))
        code = main(["classify", "--input", str(inp)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "SuleimanovaF"

    @pytest.mark.parametrize(
        "raw, exact_only",
        [
            ([[1, 2], [3, 4]], True),
            ([[1, "1/2"], [[0, 1], -3]], True),
            ([[1, 2.5], [3, 4]], False),
            ([[1, [0.0, 1.0]], ["1/2", 4]], False),
        ],
        ids=["int", "exact", "float", "complex"],
    )
    def test_parsed_matrix_equals_the_validated_one(self, raw, exact_only, monkeypatch):
        # the parser normalizes every entry itself, so building the matrix
        # must not run the validating constructor again
        def forbidden(self, rows):
            raise AssertionError("parse_matrix re-validated its rows")

        parsed_via_init = DenseMatrix(parse_matrix(raw, exact_only).rows)
        monkeypatch.setattr(DenseMatrix, "__init__", forbidden)
        parsed = parse_matrix(raw, exact_only)
        assert (parsed.exact, parsed.rows) == (parsed_via_init.exact, parsed_via_init.rows)
        types = [type(x) for r in parsed.rows for x in r]
        assert types == [type(x) for r in parsed_via_init.rows for x in r]

    def test_rational_strings_accepted_in_input(self, tmp_path):
        problem = {"spectrum": [5, "-1/2", "-3/2"]}
        code, doc, _ = run(tmp_path, problem, "classify", "--exact")
        assert code == 0
        assert doc["tail"] == ["-1/2", "-3/2"]


class TestNonFiniteInput:
    MATRIX = [[4.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 5.0, 2.0]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_in_matrix(self, tmp_path, bad):
        matrix = [row[:] for row in self.MATRIX]
        matrix[1][2] = bad
        problem = {"matrix": matrix, "diagonal": [5.0, 1.0, -1.0]}
        code, doc, _ = run(tmp_path, problem, "similar")
        assert code == 2
        assert doc["status"] == "error"
        assert "not a finite number" in doc["error"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_in_diagonal(self, tmp_path, bad):
        problem = {"matrix": self.MATRIX, "diagonal": [5.0, bad, -1.0]}
        code, doc, _ = run(tmp_path, problem, "similar")
        assert code == 2
        assert "not a finite number" in doc["error"]

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), [-2.0, float("nan")]])
    def test_in_spectrum(self, tmp_path, bad):
        problem = {"spectrum": [7.0, -1.0, bad], "diagonal": [1.0, 1.0, 0.0]}
        code, doc, _ = run(tmp_path, problem, "realize")
        assert code == 2
        assert "not a finite number" in doc["error"]


class TestCertifiedOnce:
    def test_realize_emits_the_plan_certificate(self, tmp_path, monkeypatch):
        certify_module = importlib.import_module("diagforge.certify")
        cli_module = importlib.import_module("diagforge.cli")
        original = certify_module.certify
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(certify_module, "certify", counted)
        monkeypatch.setattr(cli_module, "certify", counted)
        problem = {
            "spectrum": [7, -1, [-2, 3], [-2, -3]],
            "diagonal": [1, 1, 0, 0],
        }
        code, doc, _ = run(tmp_path, problem, "realize", "--exact")
        assert code == 0
        assert len(calls) == 1
        cert = doc["certificate"]
        assert cert["ok"] is True
        assert set(cert["checks"]) == {
            "spectrum", "diagonal", "nonneg", "constant_row_sums",
        }

    def test_realize_general_is_similar_plus_mode(self, tmp_path):
        problem = {
            "matrix": [[4, 1, 0], [2, -1, 3], [0, 5, 2]],
            "diagonal": [5, 1, -1],
        }
        code, sim, _ = run(tmp_path, problem, "similar", "--exact")
        assert code == 0
        code, gen, _ = run(tmp_path, dict(problem, mode="general"), "realize", "--exact")
        assert code == 0
        assert gen.pop("mode") == "general"
        assert gen == sim


class TestExactSimilar:
    def test_constant_row_sums_at_24_certify_without_char_poly(
        self, tmp_path, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("similar --exact called char_poly")

        monkeypatch.setattr(diagforge.eigen, "char_poly", forbidden)
        n = 24
        rows = [[(7 * i + 3 * j) % 11 - 5 for j in range(n - 1)] for i in range(n)]
        for r in rows:
            r.append(10 - sum(r))
        gammas = [Fraction(k % 5, 3) for k in range(n - 1)]
        gammas.append(sum(rows[i][i] for i in range(n)) - sum(gammas))
        problem = {"matrix": rows, "diagonal": [str(g) for g in gammas]}
        code, doc, text = run(tmp_path, problem, "similar", "--exact")
        assert code == 0
        assert [s["op"] for s in doc["trace"]] == ["rank_one"]
        # the output certified by char-poly identity over Q, byte for byte
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8fe3f7a46da1a3d0eda423a8ca4c3762e05963149a4e6db8c9fda8a3180d116c"
        )


class TestTolerance:
    """A tolerance from ``--tol`` or from the file's ``tol`` or
    ``tolerance`` key must be a finite number > 0; anything else is
    invalid input (exit 2), not a failure of some other kind."""

    PROBLEM = {
        "matrix": [[4.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 5.0, 2.0]],
        "diagonal": [5.0, 1.0, -1.0],
    }

    def assert_invalid(self, code, doc):
        assert code == 2
        assert doc["status"] == "error"
        assert "tolerance must be a finite number > 0" in doc["error"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "0"])
    def test_flag(self, tmp_path, bad):
        self.assert_invalid(*run(tmp_path, self.PROBLEM, "similar", f"--tol={bad}")[:2])

    @pytest.mark.parametrize("flag", ["--tol", "--to"])
    @pytest.mark.parametrize("bad", ["-1e-3", "-inf", "-1"])
    def test_flag_with_a_separate_negative_value(self, tmp_path, bad, flag):
        code, doc, text = run(tmp_path, self.PROBLEM, "similar", flag, bad)
        self.assert_invalid(code, doc)
        assert text == run(tmp_path, self.PROBLEM, "similar", f"--tol={bad}")[2]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", -1, 0, "0", True, [1e-9]])
    def test_document_key(self, tmp_path, bad):
        problem = dict(self.PROBLEM, tol=bad)
        self.assert_invalid(*run(tmp_path, problem, "similar")[:2])

    @pytest.mark.parametrize(
        "command, problem",
        [
            ("classify", {"spectrum": [5, -1, -2]}),
            ("realize", {"spectrum": [5, -1, -2], "diagonal": [2, 1, 0]}),
            ("realize", dict(PROBLEM, mode="general")),
            ("similar", PROBLEM),
        ],
        ids=["classify", "realize", "realize-general", "similar"],
    )
    def test_every_command_checks_the_tolerance_key(self, tmp_path, command, problem):
        problem = dict(problem, tolerance="nan")
        self.assert_invalid(*run(tmp_path, problem, command)[:2])

    @pytest.mark.parametrize(
        "settings, flags",
        [({"tol": "1e-8"}, ["--tol", "1e-6"]), ({"tol": None, "tolerance": None}, [])],
        ids=["flag-over-key", "null-is-default"],
    )
    def test_finite_positive_or_absent_tolerance_is_accepted(
        self, tmp_path, settings, flags
    ):
        code, doc, _ = run(tmp_path, dict(self.PROBLEM, **settings), "similar", *flags)
        assert code == 0
        assert doc["certificate"]["ok"] is True


cli = importlib.import_module("diagforge.cli")


def general_path(monkeypatch):
    """Send every section through parse_scalar, as before the one-pass path."""
    monkeypatch.setattr(cli, "_plain_numbers", lambda values, exact_only: None)


def one_pass_only(monkeypatch):
    """Fail any section that reaches parse_scalar."""

    def forbidden(raw, exact_only):
        raise AssertionError("the one-pass path called parse_scalar")

    monkeypatch.setattr(cli, "parse_scalar", forbidden)


class TestOnePassParse:
    MATRICES = {
        "int": [[4, 1, 0], [2, -1, 3], [0, 5, 2]],
        "float": [[4.0, 1.5, 0.0], [2.0, -1.0, 3.25], [0.0, 5.0, 2.0]],
        "mixed": [[4, 1.5, 0], [2, -1, 3], [0, 5, 2]],
    }
    VECTORS = {"int": [5, 1, -1], "float": [5.5, 1.0, -1.5], "mixed": [5, 1.5, -1]}

    @pytest.mark.parametrize("kind", sorted(MATRICES))
    def test_matrix_equals_the_general_path(self, kind, monkeypatch):
        raw = self.MATRICES[kind]
        with monkeypatch.context() as m:
            general_path(m)
            expected = parse_matrix(raw, False)
        one_pass_only(monkeypatch)
        parsed = parse_matrix(raw, False)
        assert (parsed.exact, parsed.rows) == (expected.exact, expected.rows)
        assert [type(x) for r in parsed.rows for x in r] == [
            type(x) for r in expected.rows for x in r
        ]
        assert parsed.exact == (kind == "int")

    @pytest.mark.parametrize("kind", sorted(VECTORS))
    def test_vector_equals_the_general_path(self, kind, monkeypatch):
        raw = self.VECTORS[kind]
        with monkeypatch.context() as m:
            general_path(m)
            expected = cli.parse_vector(raw, "diagonal", False)
        one_pass_only(monkeypatch)
        parsed = cli.parse_vector(raw, "diagonal", False)
        assert parsed == expected
        assert [type(x) for x in parsed] == [type(x) for x in expected]
        assert {type(x) for x in parsed} == ({int} if kind == "int" else {float})

    @pytest.mark.parametrize(
        "problem, flags, code, message",
        [
            ({"matrix": [[4, True], [2, 1]], "diagonal": [3, 2]}, [], 2,
             "booleans are not numbers"),
            ({"matrix": [[4.0, 1.0], [2.0, 1.0]], "diagonal": [3.0, 2.0]}, ["--exact"],
             2, "not allowed with --exact"),
            ({"matrix": [[4, "1/2"], [2, 1]], "diagonal": ["7/2", "3/2"]}, [], 0, None),
            ({"matrix": [[4, [1, 2]], [[2, -1], 1]], "diagonal": [3, 2]}, [], 0, None),
            ({"matrix": [[4, 1, 0], [2, 1]], "diagonal": [3, 2]}, [], 2,
             "must be square"),
            ({"matrix": [[4.0, True], [2.0, 1]], "diagonal": [3.0, 2.0]}, [], 2,
             "booleans are not numbers"),
            ({"matrix": [[4.0, 1.0], [2.0, 1.0]], "diagonal": [3.0, False]}, [], 2,
             "booleans are not numbers"),
            ({"matrix": [[4, 1], [2, 1]], "diagonal": [3.5, 1.5]}, ["--exact"], 2,
             "not allowed with --exact"),
            ({"matrix": [[4, 1], [2, 1]], "diagonal": ["7/2", ["3/2", 0]]}, [], 0, None),
            # json.load reads NaN and Infinity, which json.dumps writes
            ({"matrix": [[4.0, math.nan], [2.0, 1.0]], "diagonal": [3.0, 2.0]}, [], 2,
             "not a finite number"),
            ({"matrix": [[4, 1], [2, math.inf]], "diagonal": [3, 2]}, [], 2,
             "not a finite number"),
            ({"matrix": [[4.0, 1.0], [2.0, 1.0]], "diagonal": [3.0, -math.inf]}, [], 2,
             "not a finite number"),
        ],
        ids=["bool", "exact-float", "rational", "pair", "nonsquare",
             "float-bool", "vector-bool", "vector-exact-float", "vector-rational-pair",
             "nan", "infinity", "vector-minus-infinity"],
    )
    def test_fallbacks_keep_status_and_message(
        self, tmp_path, monkeypatch, problem, flags, code, message
    ):
        got = run(tmp_path, problem, "similar", *flags)
        with monkeypatch.context() as m:
            general_path(m)
            expected = run(tmp_path, problem, "similar", *flags)
        assert got == expected
        assert got[0] == code
        if message is not None:
            assert got[1]["status"] == "error"
            assert message in got[1]["error"]

    @pytest.mark.parametrize(
        "problem",
        [
            {"matrix": [[1.5, 10**400], [2, 3]], "diagonal": [1, 3.5]},
            {"matrix": [[1.5, 2], [2, 3]], "diagonal": [10**400, 3.5]},
        ],
        ids=["matrix", "vector"],
    )
    def test_int_beyond_the_float_range_among_floats(self, tmp_path, monkeypatch, problem):
        code, doc, text = run(tmp_path, problem, "similar")
        assert code == 2
        assert doc["status"] == "error"
        assert "too large" in doc["error"]
        with monkeypatch.context() as m:
            general_path(m)
            assert run(tmp_path, problem, "similar") == (code, doc, text)


class TestExactBeyondTheFloatRange:
    @pytest.mark.parametrize("flags", [(), ("--exact",)], ids=["plain", "exact"])
    @pytest.mark.parametrize(
        "problem, section",
        [
            ({"matrix": [[10**400, 1], [2, 3]], "diagonal": [10**400, 3]}, "matrix"),
            ({"matrix": [[1, 1], [2, 3]], "diagonal": [10**400, 4 - 10**400]}, "diagonal"),
        ],
        ids=["matrix", "diagonal"],
    )
    def test_float_route_reports_invalid_input(self, tmp_path, problem, section, flags):
        # an exact problem that takes the float route cannot convert it
        code, doc, _ = run(tmp_path, problem, "similar", *flags)
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"].startswith(f"{section} entry beyond the float range")

    def test_verify_returns_its_certificate(self, tmp_path):
        # the nonneg verdict is exact; the minimum entry has no float
        problem = {"matrix": [[-10**400, 0], [0, 3]], "nonneg": True}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 1
        assert doc["status"] == "fail"
        assert doc["certificate"]["checks"] == {"nonneg": False}
        assert doc["certificate"]["min_entry"] is None

    def test_verify_against_float_targets_reports_invalid_input(self, tmp_path):
        # float targets need the matrix's float spectrum, which overflows
        problem = {"matrix": [[10**400, 0], [0, 3]], "spectrum": [1.5, 3.0]}
        code, doc, _ = run(tmp_path, problem, "verify")
        assert code == 2
        assert doc["status"] == "error"
        assert "beyond the float range" in doc["error"]

    def test_realize_reports_invalid_input(self, tmp_path):
        problem = {"spectrum": [10**400, 0], "diagonal": [10**400, 0]}
        code, doc, _ = run(tmp_path, problem, "realize", "--exact")
        assert code == 2
        assert doc["status"] == "error"
        assert doc["error"].startswith("spectrum value beyond the float range")

    def test_exact_route_needs_no_float(self, tmp_path):
        # a diagonal matrix takes the exact route, floats never enter
        problem = {"matrix": [[10**400, 0], [0, 3]], "diagonal": [3, 10**400]}
        code, doc, _ = run(tmp_path, problem, "similar", "--exact")
        assert code == 0
        assert [doc["matrix"][i][i] for i in range(2)] == [3, 10**400]


class TestEmitMatrix:
    def per_entry(self, B, exact_out):
        return [[cli.emit_scalar(v, exact_out) for v in row] for row in B.rows]

    def test_real_float_matrix_is_emitted_as_its_rows(self, monkeypatch):
        B = DenseMatrix._from_array(np.array([[1.5, -2.0], [0.25, 3.0]]))
        expected = self.per_entry(B, False)

        def forbidden(v, exact_out):
            raise AssertionError("emit_matrix went entry by entry")

        monkeypatch.setattr(cli, "emit_scalar", forbidden)
        assert cli.emit_matrix(B, False) == expected
        assert cli.emit_matrix(DenseMatrix(B.rows), False) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.5, complex(0, 1)], [0.25, 3.0]],
            [[complex(1.5, 0), 2.0], [0.25, 3.0]],
            [[Fraction(1, 2), 2], [3, Fraction(-7, 3)]],
        ],
        ids=["complex", "complex-zero-imaginary", "exact"],
    )
    @pytest.mark.parametrize("exact_out", [False, True])
    def test_complex_and_exact_go_entry_by_entry(self, rows, exact_out, monkeypatch):
        B = DenseMatrix(rows)
        expected = self.per_entry(B, exact_out)
        calls = []
        original = cli.emit_scalar

        def counted(v, exact_out):
            calls.append(v)
            return original(v, exact_out)

        monkeypatch.setattr(cli, "emit_scalar", counted)
        assert cli.emit_matrix(B, exact_out) == expected
        assert len(calls) >= B.n * B.n

    @pytest.mark.parametrize(
        "v, exact_out, expected",
        [
            (1.5, False, "1.5"),
            (-0.0, True, "-0.0"),
            (3, True, "3"),
            (Fraction(7, 2), False, "3.5"),
            (Fraction(7, 2), True, '"7/2"'),
            (Fraction(4), False, "4"),
            (complex(1, -2), True, "[1.0, -2.0]"),
            (exact_complex(Fraction(1, 2), 3), False, "[0.5, 3]"),
            (exact_complex(Fraction(1, 2), 3), True, '["1/2", 3]'),
        ],
    )
    def test_emit_scalar_for_every_type(self, v, exact_out, expected):
        assert json.dumps(cli.emit_scalar(v, exact_out)) == expected

    def test_float_tuples_in_trace_data(self, monkeypatch):
        original = cli.emit_scalar

        def no_floats(v, exact_out):
            if type(v) is float:
                raise AssertionError("a float tuple went entry by entry")
            return original(v, exact_out)

        monkeypatch.setattr(cli, "emit_scalar", no_floats)
        data = {"scale": (1.0, -0.5), "rank_one": (0.25, 2.0), "i": 2}
        assert cli.emit_nested(data, False) == {
            "scale": [1.0, -0.5], "rank_one": [0.25, 2.0], "i": 2,
        }
        mixed = (complex(1, 2), Fraction(1, 2))
        assert cli.emit_nested(mixed, True) == [[1.0, 2.0], "1/2"]


class TestParserReuse:
    ORDER = {"spectrum": [7, -1, [-2, 3], [-2, -3]], "diagonal": [0, 1, 0, 1]}
    # the diagonal misses the trace by 1e-8: within --tol 1e-6, not the default
    TOL = {"matrix": [[4.0, 1.0], [2.0, 1.0]], "diagonal": [3.0, 2.00000001]}

    def test_built_once_across_calls(self, tmp_path, monkeypatch):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            assert run(tmp_path, self.ORDER, "realize")[0] == 0
        assert run(tmp_path, self.TOL, "similar", "--tol", "1e-6")[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize(
        "problem, command, first, second",
        [
            (ORDER, "realize", ["--order", "keep"], []),
            (ORDER, "realize", [], ["--order", "keep"]),
            (TOL, "similar", ["--tol", "1e-6"], []),
            (ORDER, "realize", ["--exact"], []),
            (ORDER, "realize", ["--exact", "--order", "keep"], ["--order", "auto"]),
        ],
        ids=["order", "order-after-none", "tol", "exact", "exact-and-order"],
    )
    def test_no_flag_leaks_into_the_next_call(
        self, tmp_path, monkeypatch, problem, command, first, second
    ):
        monkeypatch.setattr(cli, "_parser", None)
        fresh = run(tmp_path, problem, command, *second)
        monkeypatch.setattr(cli, "_parser", None)
        before = run(tmp_path, problem, command, *first)
        assert before != fresh
        assert run(tmp_path, problem, command, *second) == fresh
