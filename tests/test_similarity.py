import cmath
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diagforge.eigen
import diagforge.matrix
from diagforge.certify import certify
from diagforge.eigen import char_poly, eigenvalues, match_multisets, right_eigenvector
from diagforge.errors import CertificationError, FeasibilityError
from diagforge.matrix import DenseMatrix, exact_nullspace
from diagforge.similarity import (
    DiagonalTarget,
    _certified,
    brauer_shift,
    embed_anchor,
    set_diagonal_cs,
    similar_with_diagonal,
)

CS3 = DenseMatrix([[0, 1, 2], [1, 1, 1], [2, 0, 1]])  # row sums 3


class TestDiagonalTarget:
    def test_nonnegative_mode_rejects_negative(self):
        DiagonalTarget((1, 0, 2), mode="nonnegative")
        with pytest.raises(ValueError):
            DiagonalTarget((1, -1, 3), mode="nonnegative")

    def test_general_mode_allows_negative(self):
        t = DiagonalTarget((1, -1, 3))
        assert t.total() == 3


class TestSetDiagonalCS:
    def test_rewrite_oracle(self):
        a = DenseMatrix([[3, 0, 0], [4, -1, 0], [5, 0, -2]])  # row sums 3
        b = set_diagonal_cs(a, (0, 0, 0))
        assert b.to_lists() == [[0, 1, 2], [1, 0, 2], [2, 1, 0]]
        assert char_poly(b) == char_poly(a)

    def test_requires_constant_row_sums(self):
        with pytest.raises(ValueError, match="constant row sums"):
            set_diagonal_cs(DenseMatrix.diagonal_matrix([1, 2, 3]), (2, 2, 2))

    def test_requires_matching_trace(self):
        with pytest.raises(ValueError, match="trace mismatch"):
            set_diagonal_cs(CS3, (1, 1, 3))

    def test_diagonal_written_exactly_on_floats(self):
        a = CS3.to_float()  # trace 2
        b = set_diagonal_cs(a, (0.1, 0.2, 1.7))
        assert b.diagonal() == (0.1, 0.2, 1.7)


def test_embed_anchor_is_a_similarity():
    a = DenseMatrix([[4, 0, 4], [2, 3, 0], [0, -2, 2]])
    for anchor in range(3):
        assert char_poly(embed_anchor(a, anchor)) == char_poly(a)
    with pytest.raises(ValueError):
        embed_anchor(a, 3)


def test_embed_anchor_exposes_total_support_eigenvector():
    # for diagonal input the embedded matrix has (1,-1,...,-1) as an
    # eigenvector for the anchor entry
    m = embed_anchor(DenseMatrix.diagonal_matrix([1, 2, 3]), 0)
    v = (Fraction(1), Fraction(-1), Fraction(-1))
    mv = m.matvec(v)
    assert mv == tuple(1 * x for x in v)


class TestBrauerShift:
    def test_zero_sum_shift_preserves_spectrum(self):
        pair = right_eigenvector(CS3, 3)
        b = brauer_shift(CS3, pair, (Fraction(1), Fraction(-1, 2), Fraction(-1, 2)))
        assert char_poly(b) == char_poly(CS3)
        assert b.diagonal() != CS3.diagonal()

    def test_shift_moves_exactly_the_certified_eigenvalue(self):
        pair = right_eigenvector(CS3, 3)
        b = brauer_shift(CS3, pair, (Fraction(1), Fraction(0), Fraction(0)))
        # 3 moves to 3 + v^T q = 4, the other two stay
        got = sorted(eigenvalues(b).values, key=lambda z: z.real)
        want = sorted(
            [complex(4.0)]
            + [z for z in eigenvalues(CS3).values if abs(z - 3) > 1e-6],
            key=lambda z: z.real,
        )
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-8)

    def test_rejects_stale_eigenpair(self):
        class Stale:
            value = 3.0
            vector = (1.0, 2.0, -1.0)

        with pytest.raises(ValueError, match="residual"):
            brauer_shift(CS3, Stale(), (1.0, 0.0, 0.0))


class TestSimilarWithDiagonal:
    def test_diagonal_input_exact_oracle(self):
        b, trace = similar_with_diagonal(DenseMatrix.diagonal_matrix([1, 2, 3]), (2, 2, 2))
        assert b.to_lists() == [[2, 0, -1], [0, 2, -1], [-1, 0, 2]]
        assert [s.op for s in trace.steps] == ["embed", "scale", "rank_one"]
        assert trace.replay(DenseMatrix.diagonal_matrix([1, 2, 3])).to_lists() == b.to_lists()

    def test_constant_row_sum_input_stays_exact(self):
        b, trace = similar_with_diagonal(CS3, (2, 0, 0))
        assert b.exact
        assert b.diagonal() == (2, 0, 0)
        assert char_poly(b) == char_poly(CS3)
        assert [s.op for s in trace.steps] == ["rank_one"]

    def test_general_float_route(self):
        a = DenseMatrix(
            [[4, 1, 0, 2], [2, -1, 3, 1], [0, 5, 2, 2], [1, 1, 1, 3]]
        )
        gammas = (5, 1, 0, 2)
        assert sum(gammas) == a.trace()
        b, trace = similar_with_diagonal(a, gammas)
        assert b.diagonal() == (5.0, 1.0, 0.0, 2.0)
        m = match_multisets(eigenvalues(b).values, eigenvalues(a.to_float()).values)
        assert m.max_distance < 1e-7
        replayed = trace.replay(a)
        for i in range(4):
            for j in range(4):
                assert replayed[i, j] == pytest.approx(b[i, j], abs=1e-12)

    def test_random_float_instances(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 5)
            a = DenseMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            scale = max(1.0, a.max_abs())
            if a.is_scalar_matrix(tol=1e-12 * scale):
                continue
            gs = [rng.randint(-3, 3) for _ in range(n - 1)]
            gs.append(a.trace() - sum(gs))
            b, _ = similar_with_diagonal(a, tuple(gs))
            assert b.diagonal() == tuple(float(g) for g in gs)
            m = match_multisets(
                eigenvalues(b).values, eigenvalues(a.to_float()).values
            )
            assert m.max_distance < 1e-6 * scale

    def test_scalar_matrix_is_infeasible(self):
        with pytest.raises(FeasibilityError) as err:
            similar_with_diagonal(DenseMatrix.diagonal_matrix([2, 2, 2]), (1, 2, 3))
        assert err.value.condition == "scalar-input"

    def test_trace_mismatch_rejected(self):
        with pytest.raises(ValueError, match="trace mismatch"):
            similar_with_diagonal(DenseMatrix.diagonal_matrix([1, 2, 3]), (1, 1, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            similar_with_diagonal(DenseMatrix.diagonal_matrix([1, 2, 3]), (3, 3))


def _nullity(B: DenseMatrix, lam) -> int:
    """dim ker(B - lam I), exactly."""
    shifted = B - DenseMatrix.diagonal_matrix([lam] * B.n)
    return len(exact_nullspace(shifted))


class TestDiagonalAnchor:
    """The exact diagonal route rewrites at a simple eigenvalue, so B is
    similar to A: for a diagonal A that means B is diagonalizable, with
    dim ker(B - lam I) equal to the multiplicity of lam on A's diagonal."""

    def test_repeated_value_at_index_zero(self):
        A = DenseMatrix.diagonal_matrix([1, 1, 2])
        B, trace = similar_with_diagonal(A, (0, 0, 4))
        assert B.diagonal() == (0, 0, 4)
        assert _nullity(B, 1) == 2 and _nullity(B, 2) == 1
        assert [s.data for s in trace.steps][:1] == [2]
        assert trace.replay(A) == B

    def test_criterion_4_generator_keeps_the_jordan_structure(self):
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
            assert B.exact and B.diagonal() == tuple(gs)
            for lam in set(diag):
                assert _nullity(B, lam) == diag.count(lam), (diag, gs)
            done += 1

    def test_every_value_repeated_is_infeasible(self):
        with pytest.raises(FeasibilityError) as err:
            A = DenseMatrix.diagonal_matrix([1, 1, 2, 2])
            similar_with_diagonal(A, (0, 0, 3, 3))
        assert err.value.condition == "no-simple-anchor"


def _jordan_conjugate(seed):
    """Integer P J P^-1 for a Jordan form J with 2x2 blocks, P unimodular,
    plus an integer target diagonal with the right trace."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    J = [[0] * n for _ in range(n)]
    for i in range(n):
        J[i][i] = rng.randint(-3, 3)
    for b in range(rng.randint(1, n // 2)):
        k = 2 * b
        if k + 1 >= n:
            break
        J[k + 1][k + 1] = J[k][k]
        J[k][k + 1] = 1
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    P_inv = [row[:] for row in P]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        # P <- (I + c e_i e_j^T) P and P^-1 <- P^-1 (I - c e_i e_j^T)
        P[i] = [a + c * b for a, b in zip(P[i], P[j])]
        for r in P_inv:
            r[j] -= c * r[i]
    A = DenseMatrix(P) @ DenseMatrix(J) @ DenseMatrix(P_inv)
    gammas = [rng.randint(-3, 3) for _ in range(n - 1)]
    gammas.append(A.trace() - sum(gammas))
    return A, J, tuple(gammas)


class TestCertification:
    def test_dense_integer_input_skips_the_exact_char_poly(self, monkeypatch):
        def no_char_poly(A):
            raise RuntimeError("exact char poly computed for a float output")

        spectra = []
        real_eigenvalues = diagforge.eigen.eigenvalues

        def counted(A, *args, **kwargs):
            est = real_eigenvalues(A, *args, **kwargs)
            spectra.append(est)
            return est

        monkeypatch.setattr(diagforge.eigen, "char_poly", no_char_poly)
        monkeypatch.setattr(diagforge.eigen, "eigenvalues", counted)
        rng = random.Random(20)
        n = 20
        a = DenseMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        gammas = [rng.randint(-9, 9) for _ in range(n - 1)]
        gammas.append(a.trace() - sum(gammas))
        b, trace = similar_with_diagonal(a, tuple(gammas))
        assert b.diagonal() == tuple(float(g) for g in gammas)
        assert [s.op for s in trace] == ["to_float", "scale", "rank_one"]
        # once for A (eigenvector search and certification), once for B
        assert len(spectra) == 2
        assert all(cmath.isfinite(z) for est in spectra for z in est.values)

    def test_eigenvector_search_runs_through_the_traced_name(self, monkeypatch):
        # the benchmark's tracer times the search by replacing this
        # module attribute, as here; a search that bypasses the name
        # reads 0 in its span
        sizes = []
        real_search = diagforge.eigen.all_nonzero_eigenvector

        def counted(A, *args):
            sizes.append(A.n)
            return real_search(A, *args)

        monkeypatch.setattr(diagforge.eigen, "all_nonzero_eigenvector", counted)
        rng = random.Random(20)
        n = 20
        a = DenseMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        gammas = [rng.randint(-9, 9) for _ in range(n - 1)]
        gammas.append(a.trace() - sum(gammas))
        similar_with_diagonal(a, tuple(gammas))
        assert sizes == [n]

    def test_anchor_search_reuses_the_spectrum_of_a(self, monkeypatch):
        spectra = []
        real_eigenvalues = diagforge.eigen.eigenvalues

        def counted(A):
            spectra.append(A)
            return real_eigenvalues(A)

        monkeypatch.setattr(diagforge.eigen, "eigenvalues", counted)
        a = DenseMatrix.diagonal_matrix([1.0, 2.0, 3.0])
        b, trace = similar_with_diagonal(a, (2.0, 2.0, 2.0))
        assert b.diagonal() == (2.0, 2.0, 2.0)
        assert [s.op for s in trace] == ["embed", "scale", "rank_one"]
        # once for A, whose spectrum also serves the anchor embedding (a
        # matrix similar to A), and once for B
        assert len(spectra) == 2

    def test_tampered_float_output_is_rejected(self):
        a = DenseMatrix([[4, 1, 0, 2], [2, -1, 3, 1], [0, 5, 2, 2], [1, 1, 1, 3]])
        target = DiagonalTarget((5, 1, 0, 2))
        b, trace = similar_with_diagonal(a, target)
        spec_a = eigenvalues(a.to_float())
        _certified(a, b, target, list(trace), spec_a)
        rows = b.to_lists()
        rows[0][1] += 1.0
        with pytest.raises(CertificationError, match="spectrum distance"):
            _certified(a, DenseMatrix(rows), target, list(trace), spec_a)

    @pytest.mark.parametrize(
        "a, gammas",
        [(CS3, (2, 0, 0)), (DenseMatrix.diagonal_matrix([1, 2, 3]), (2, 2, 2))],
        ids=["constant-row-sum", "diagonal"],
    )
    def test_exact_routes_reject_a_different_char_poly(self, a, gammas):
        target = DiagonalTarget(gammas)
        b, trace = similar_with_diagonal(a, target)
        assert b.exact
        rows = b.to_lists()
        rows[0][1] += 1
        tampered = DenseMatrix(rows)
        assert tampered.diagonal() == b.diagonal()
        with pytest.raises(CertificationError, match="char poly identical: False"):
            _certified(a, tampered, target, list(trace))

    @pytest.mark.parametrize("seed", [20, 22, 28, 31])
    def test_jordan_block_conjugates_certify(self, seed):
        a, J, gammas = _jordan_conjugate(seed)
        b, trace = similar_with_diagonal(a, gammas)
        assert b.diagonal() == tuple(float(g) for g in gammas)
        assert trace.steps[0].op == "to_float"
        jordan = [complex(J[i][i]) for i in range(a.n)]
        scale = max(1.0, max(abs(z) for z in jordan))
        m = match_multisets(eigenvalues(b).values, jordan)
        assert m.max_distance <= 1e-7 * scale


def _has_real_zero_free_eigenvector(a: np.ndarray) -> bool:
    """Whether some real eigenvalue of the real array ``a`` has an
    eigenvector with no zero entry (at the search's 1e-8 threshold)."""
    w, v = np.linalg.eig(a)
    for k in np.flatnonzero(w.imag == 0):
        mags = np.abs(v[:, k])
        if mags.min() > 1e-8 * mags.max():
            return True
    return False


class TestRealArithmetic:
    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_real_input_with_a_usable_real_eigenvalue_gets_a_real_output(self, kind):
        rng = random.Random(f"real-output:{kind}")
        checked = 0
        for n in (4, 5, 8, 11, 16, 23, 32):
            for _ in range(3):
                if kind == "int":
                    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                    gammas = [rng.randint(-9, 9) for _ in range(n - 1)]
                else:
                    rows = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
                    gammas = [rng.uniform(-5, 5) for _ in range(n - 1)]
                a = DenseMatrix(rows)
                gammas.append(a.trace() - sum(gammas))
                arr = np.array(rows, dtype=float)
                if not _has_real_zero_free_eigenvector(arr):
                    continue
                checked += 1
                b, _ = similar_with_diagonal(a, tuple(gammas))
                assert all(type(x) is float for r in b.rows for x in r)
                cert = certify(
                    b, spectrum=np.linalg.eigvals(arr).tolist(), diagonal=gammas
                )
                assert cert.ok
        assert checked >= 14

    def test_no_real_eigenvalue_gets_a_certified_complex_output(self):
        # rotation blocks with spectra +-i and 1 +- 2i: nothing real to pick
        a = DenseMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]])
        gammas = (1, 0, 0, 1)
        b, _ = similar_with_diagonal(a, gammas)
        assert any(isinstance(x, complex) and x.imag for r in b.rows for x in r)
        cert = certify(b, spectrum=[1j, -1j, 1 + 2j, 1 - 2j], diagonal=gammas)
        assert cert.ok

    @pytest.mark.parametrize("kind", ["int", "float"])
    def test_facts_of_each_matrix_are_computed_once(self, kind, monkeypatch):
        # A's rows become one array, and each matrix's array, max |entry|
        # and realness are computed once; B is built from its array
        conversions = []
        remembered = []
        real_entries_array = diagforge.matrix._entries_array
        real_remember = DenseMatrix._remember

        def entries_array(rows, exact):
            conversions.append(len(rows))
            return real_entries_array(rows, exact)

        def remember(self, arr):
            remembered.append(self)  # kept alive, so ids stay distinct
            real_remember(self, arr)

        monkeypatch.setattr(diagforge.matrix, "_entries_array", entries_array)
        monkeypatch.setattr(DenseMatrix, "_remember", remember)
        rng = random.Random(32)
        n = 32
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if kind == "float":
            rows = [[x + 0.5 for x in r] for r in rows]
        a = DenseMatrix(rows)
        gammas = [rng.randint(-9, 9) for _ in range(n - 1)]
        gammas.append(a.trace() - sum(gammas))
        b, _ = similar_with_diagonal(a, tuple(gammas))
        assert conversions == [n]
        # A, B and, for exact A, its float copy, which shares A's array
        assert len({id(m) for m in remembered}) == len(remembered)
        assert len(remembered) == (3 if kind == "int" else 2)
        assert any(m is b for m in remembered)


def test_every_tracer_patch_point_is_bound():
    # perfbench/spans.py replaces these attributes by name; a renamed or
    # deleted one would stop every traced benchmark run at install time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, attr, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )
