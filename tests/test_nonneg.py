import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagforge.eigen import char_poly, eigenvalues, match_multisets
from diagforge.errors import CertificationError, FeasibilityError
from diagforge.matrix import DenseMatrix, exact_nullspace, row_sums
from diagforge.nonneg import (
    Spectrum,
    SpectrumClass,
    _chain,
    as_spectrum,
    check_trace,
    classify,
    construct_3x3,
    perfect_feasible,
    realize_mixed,
    realize_smigoc,
    realize_suleimanova,
    smigoc_glue,
    suleimanova_primitive,
)
from diagforge.scalars import exact_complex


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def expected_char_poly(spec: Spectrum):
    # product of (t - r) over reals and (t^2 - 2xt + x^2 + y^2) over pairs
    poly = [Fraction(1), -Fraction(spec.perron)]
    for r in spec.tail_reals:
        poly = poly_mul(poly, [Fraction(1), -Fraction(r)])
    for z in spec.tail_pairs:
        x, y = Fraction(z.re), Fraction(z.im)
        poly = poly_mul(poly, [Fraction(1), -2 * x, x * x + y * y])
    return poly


class TestSpectrum:
    def test_normalization_order(self):
        s = as_spectrum([-2, 5, exact_complex(-1, 2), -3, exact_complex(-1, -2)])
        assert s.perron == 5
        assert s.tail == (
            -2,
            -3,
            exact_complex(-1, 2),
            exact_complex(-1, -2),
        )
        assert s.tail_pairs == (exact_complex(-1, 2),)
        assert s.trace() == -2

    def test_unpaired_complex_rejected(self):
        with pytest.raises(ValueError, match="conjugat"):
            as_spectrum([5, exact_complex(-1, 2)])

    def test_no_real_element_rejected(self):
        with pytest.raises(ValueError, match="real"):
            as_spectrum([exact_complex(1, 1), exact_complex(1, -1)])

    def test_dominance_violation(self):
        with pytest.raises(FeasibilityError) as err:
            as_spectrum([3, exact_complex(-2, 3), exact_complex(-2, -3)])
        assert err.value.condition == "perron-dominance"

    def test_negative_dominant_value(self):
        with pytest.raises(FeasibilityError) as err:
            as_spectrum([-1, -2])
        assert err.value.condition == "perron-dominance"

    def test_float_near_conjugates_are_symmetrized(self):
        s = as_spectrum([5.0, complex(-1, 2 + 1e-11), complex(-1, -2)])
        z, w = s.tail
        assert z.real == w.real and z.imag == -w.imag

    def test_values_roundtrip(self):
        s = as_spectrum([4, -1, -2])
        assert s.values == (4, -1, -2)
        assert len(s) == 3


class TestClassify:
    def test_all_f(self):
        c = classify(as_spectrum([5, -1, -2]))
        assert c.tag is SpectrumClass.SULEIMANOVA_F
        assert c.flags == ("F", "F")

    def test_pair_on_f_boundary(self):
        # |re| = |im| still counts as the narrow wedge
        c = classify(as_spectrum([8, exact_complex(-2, 2), exact_complex(-2, -2)]))
        assert c.tag is SpectrumClass.SULEIMANOVA_F

    def test_wide_wedge_only(self):
        c = classify(as_spectrum([7, exact_complex(-2, 3), exact_complex(-2, -3)]))
        assert c.tag is SpectrumClass.SMIGOC_G
        assert c.flags == ("G-F", "G-F")
        assert c.gf_count == 2 and c.f_count == 0

    def test_mixed(self):
        vals = [
            16, -1, -2,
            exact_complex(-2, 2), exact_complex(-2, -2),
            exact_complex(-2, 3), exact_complex(-2, -3),
        ]
        c = classify(as_spectrum(vals))
        assert c.tag is SpectrumClass.MIXED
        assert c.flags == ("F", "F", "F", "F", "G-F", "G-F")

    def test_outside(self):
        c = classify(as_spectrum([5, -1, 2]))
        assert c.tag is SpectrumClass.OUTSIDE
        assert "outside" in c.flags
        c2 = classify(as_spectrum([4, exact_complex(-1, 3), exact_complex(-1, -3)]))
        assert c2.tag is SpectrumClass.OUTSIDE

    def test_to_dict(self):
        d = classify(as_spectrum([5, -1, -2])).to_dict()
        assert d["tag"] == "SuleimanovaF"
        assert d["flags"] == ["F", "F"]


def test_check_trace_returns_bool():
    assert check_trace([5, -1, -2], (1, 1, 0))
    assert not check_trace([5, -1, -2], (1, 1, 1))


class TestSuleimanova:
    def test_template_real_tail(self):
        b = suleimanova_primitive([5, -1, -2])
        assert b.to_lists() == [[5, 0, 0], [6, -1, 0], [7, 0, -2]]

    def test_template_pair_tail(self):
        b = suleimanova_primitive([4, exact_complex(-1, 1), exact_complex(-1, -1)])
        assert b.to_lists() == [[4, 0, 0], [6, -1, -1], [4, 1, -1]]

    def test_template_rejects_wide_pair(self):
        with pytest.raises(FeasibilityError) as err:
            suleimanova_primitive([7, exact_complex(-2, 3), exact_complex(-2, -3)])
        assert err.value.condition == "outside-F"

    def test_realize_oracle(self):
        b = realize_suleimanova([5, -1, -2], (1, 1, 0))
        assert b.to_lists() == [[1, 2, 2], [2, 1, 2], [3, 2, 0]]

    def test_realize_zero_diagonal(self):
        b = realize_suleimanova([3, -1, -2], (0, 0, 0))
        assert b.to_lists() == [[0, 1, 2], [1, 0, 2], [2, 1, 0]]

    def test_realize_trace_mismatch(self):
        with pytest.raises(ValueError, match="trace"):
            realize_suleimanova([5, -1, -2], (1, 1, 1))

    def test_realize_negative_diagonal(self):
        with pytest.raises(ValueError):
            realize_suleimanova([5, -1, -2], (3, -1, 0))

    def test_negative_entry_is_a_certification_error(self, monkeypatch):
        import diagforge.nonneg

        def negative_entry(T, gs):
            B = DenseMatrix([[1, 2, 2], [2, 1, 2], [-1, 6, 0]])
            return B, tuple(g - d for g, d in zip(gs, T.diagonal()))

        monkeypatch.setattr(diagforge.nonneg, "_rewrite_diagonal", negative_entry)
        with pytest.raises(CertificationError, match="negative entry"):
            realize_suleimanova([5, -1, -2], (1, 1, 0))


@st.composite
def f_spectrum_and_diagonal(draw):
    n_real = draw(st.integers(min_value=0, max_value=3))
    n_pair = draw(st.integers(min_value=0, max_value=2))
    if n_real + n_pair == 0:
        n_real = 1
    small = st.fractions(
        min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=8
    )
    reals = [-draw(small) for _ in range(n_real)]
    pairs = []
    for _ in range(n_pair):
        x = draw(small)
        # 0 < |im| <= |re| keeps the pair in the narrow wedge without
        # collapsing to a real value
        y = draw(
            st.fractions(
                min_value=Fraction(1, 8), max_value=Fraction(1), max_denominator=8
            )
        ) * x
        pairs.append(exact_complex(-x, y))
    extra = draw(st.fractions(min_value=0, max_value=Fraction(3), max_denominator=8))
    lam1 = sum(-r for r in reals) + sum(2 * (-z.re) + z.im for z in pairs) + extra
    vals = [lam1] + reals
    for z in pairs:
        vals += [z, exact_complex(z.re, -z.im)]
    n = len(vals)
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
    )
    total = lam1 + sum(reals) + sum(2 * z.re for z in pairs)
    if sum(weights) == 0:
        gammas = (total,) + (Fraction(0),) * (n - 1)
    else:
        gammas = tuple(total * Fraction(w, sum(weights)) for w in weights)
    return vals, gammas


@given(f_spectrum_and_diagonal())
@settings(max_examples=120, deadline=None)
def test_suleimanova_realization_is_exact(case):
    vals, gammas = case
    spec = as_spectrum(vals)
    b = realize_suleimanova(spec, gammas)
    assert b.exact
    assert b.min_real_entry() >= 0
    assert all(s == spec.perron for s in row_sums(b))
    assert b.diagonal() == gammas
    assert char_poly(b) == expected_char_poly(spec)


class TestPerfectFeasible:
    def test_all_conditions_hold(self):
        r = perfect_feasible(5, exact_complex(-1, 2), exact_complex(-1, -2), 3, 0, 0)
        assert r.ok and bool(r)
        assert r.failing == ()

    def test_second_symmetric_violation(self):
        pair = exact_complex(Fraction(-1, 10), 4)
        r = perfect_feasible(
            5, pair, exact_complex(pair.re, -4), Fraction(24, 5), 0, 0
        )
        assert not r.ok
        assert r.failing == ("second_symmetric",)

    def test_bounds_violation(self):
        r = perfect_feasible(3, -1, -2, 4, -4, 0)
        assert "bounds" in r.failing

    def test_trace_violation(self):
        r = perfect_feasible(3, -1, -2, 1, 1, 1)
        assert "trace" in r.failing

    def test_diagonal_max_violation(self):
        # real tail above every diagonal entry
        r = perfect_feasible(6, 3, -3, 2, 2, 2)
        assert r.failing == ("diagonal_max",)

    def test_report_dict(self):
        d = perfect_feasible(5, -1, -1, 1, 1, 1).to_dict()
        assert set(d) >= {
            "ok", "bounds", "trace", "second_symmetric", "diagonal_max", "margins"
        }
        assert d["ok"] is True and d["trace"] is True


class TestConstruct3x3:
    def test_oracle_from_wide_pair(self):
        b = construct_3x3(6, exact_complex(-2, 3), (2, 0, 0))
        assert b.to_lists() == [
            [2, 0, 4],
            [Fraction(25, 6), 0, Fraction(11, 6)],
            [0, 6, 0],
        ]
        assert char_poly(b) == [1, -2, -11, -78]  # (t-6)(t^2+4t+13)

    def test_degenerate_corner_companion(self):
        b = construct_3x3(5, 0, (0, 0, 5))
        assert b.to_lists() == [[0, 0, 5], [5, 0, 0], [0, 0, 5]]
        assert char_poly(b) == [1, -5, 0, 0]

    def test_outside_wide_wedge(self):
        with pytest.raises(FeasibilityError) as err:
            construct_3x3(4, exact_complex(-1, 3), (2, 0, 0))
        assert err.value.condition == "outside-G"

    def test_dominance_failure(self):
        with pytest.raises(FeasibilityError) as err:
            construct_3x3(3, exact_complex(-2, 3), (0, 0, 0))
        assert err.value.condition == "perron-dominance"

    def test_trace_mismatch(self):
        with pytest.raises(ValueError, match="trace"):
            construct_3x3(5, exact_complex(-1, 1), (2, 1, 5))

    def test_negative_diagonal(self):
        with pytest.raises(ValueError):
            construct_3x3(5, exact_complex(-1, 1), (-1, 2, 2))

    def test_float_inputs(self):
        b = construct_3x3(6.0, complex(-2.0, 3.0), (2.0, 0.0, 0.0))
        assert b.diagonal() == (2.0, 0.0, 0.0)
        m = match_multisets(
            eigenvalues(b).values, [6.0, complex(-2, 3), complex(-2, -3)]
        )
        assert m.max_distance < 1e-8

    @pytest.mark.parametrize(
        "lam1, pair, gammas",
        [
            (6, complex(-2, 3), (0, 0, 2)),
            (6, exact_complex(-2, 3), (0.0, 0.0, 2.0)),
            (3, 0, (0.0, 0.0, 3.0)),  # the degenerate corner
        ],
    )
    def test_mixed_backends_go_float(self, lam1, pair, gammas):
        b = construct_3x3(lam1, pair, gammas)
        assert b == construct_3x3(
            float(lam1), complex(pair), tuple(float(g) for g in gammas)
        )
        assert all(type(x) is float for row in b.rows for x in row)

    def test_random_feasible_triples(self):
        rng = random.Random(99)
        for _ in range(50):
            u = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            y = u * Fraction(rng.randint(10, 17), 10)
            extra = Fraction(rng.randint(0, 12), rng.randint(1, 3))
            lam1 = 2 * u + extra
            cut1 = Fraction(rng.randint(0, 10), 10)
            cut2 = Fraction(rng.randint(0, 10), 10)
            lo, hi = min(cut1, cut2), max(cut1, cut2)
            gammas = (extra * lo, extra * (hi - lo), extra * (1 - hi))
            b = construct_3x3(lam1, exact_complex(-u, y), gammas)
            assert b.min_real_entry() >= 0
            assert b.diagonal() == gammas
            assert all(s == lam1 for s in row_sums(b))
            spec = as_spectrum([lam1, exact_complex(-u, y), exact_complex(-u, -y)])
            assert char_poly(b) == expected_char_poly(spec)


class TestGlue:
    HALF = (Fraction(1, 2), Fraction(1, 2))  # left 1-vector of [[0,1],[1,0]]

    def test_two_by_two_oracle(self):
        a1 = DenseMatrix([[1, 2], [2, 1]])  # corner 1 = row sum of a2
        a2 = DenseMatrix([[0, 1], [1, 0]])
        c = smigoc_glue(a1, a2, self.HALF)
        assert c.to_lists() == [[1, 1, 1], [2, 0, 1], [2, 1, 0]]
        # spectra: {3,-1} and {1,-1} merge to {3,-1,-1}
        assert char_poly(c) == [1, -1, -5, -3]

    def test_one_by_one_is_identity(self):
        a1 = DenseMatrix([[1, 2], [2, 1]])
        c = smigoc_glue(a1, DenseMatrix([[1]]), (1,))
        assert c.to_lists() == a1.to_lists()

    def test_corner_mismatch_rejected(self):
        with pytest.raises(ValueError, match="trailing diagonal"):
            smigoc_glue(
                DenseMatrix([[1, 2], [2, 5]]), DenseMatrix([[0, 1], [1, 0]]), self.HALF
            )

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="glue vector length"):
            smigoc_glue(
                DenseMatrix([[1, 2], [2, 1]]), DenseMatrix([[0, 1], [1, 0]]), (1,)
            )

    def test_float_block_takes_the_vector_as_floats(self):
        a1 = DenseMatrix([[1.0, 2.0], [2.0, 1.0]])
        c = smigoc_glue(a1, DenseMatrix([[0, 1], [1, 0]]), self.HALF)
        assert not c.exact
        assert c == DenseMatrix([[1.0, 1.0, 1.0], [2.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def _sum1_left_null_vector(a, value):
    """The left eigenvector of ``a`` for a simple eigenvalue, entry sum 1."""
    (v,) = exact_nullspace((a - DenseMatrix.diagonal_matrix([value] * a.n)).transpose())
    return tuple(x / sum(v) for x in v)


@st.composite
def glue_instance(draw):
    ints = st.integers(min_value=0, max_value=6)
    n2 = draw(st.integers(min_value=1, max_value=3))
    alpha = Fraction(draw(st.integers(min_value=1, max_value=9)))
    rows = []
    for _ in range(n2):
        w = draw(st.lists(ints, min_size=n2, max_size=n2).filter(lambda ws: sum(ws)))
        s = sum(w)
        rows.append([alpha * Fraction(x, s) for x in w])
    a2 = DenseMatrix(rows)
    m = draw(st.integers(min_value=2, max_value=3))
    entries = st.integers(min_value=-4, max_value=6)
    a1_rows = [[draw(entries) for _ in range(m)] for _ in range(m)]
    a1_rows[m - 1][m - 1] = alpha
    return DenseMatrix([[Fraction(x) for x in row] for row in a1_rows]), a2, alpha


@given(glue_instance())
@settings(max_examples=80, deadline=None)
def test_glue_spectrum_law(case):
    a1, a2, alpha = case
    # alpha is a2's Perron value, so semisimple: some left alpha-vector
    # has a nonzero entry sum
    basis = exact_nullspace(
        (a2 - DenseMatrix.diagonal_matrix([alpha] * a2.n)).transpose()
    )
    v = next(v for v in basis if sum(v))
    c = smigoc_glue(a1, a2, tuple(x / sum(v) for x in v))
    assert c.n == a1.n + a2.n - 1
    # char(C) * (t - alpha) = char(A1) * char(A2)
    lhs = poly_mul(char_poly(c), [Fraction(1), -alpha])
    rhs = poly_mul(char_poly(a1), char_poly(a2))
    assert lhs == rhs


@pytest.mark.parametrize("tag", [SpectrumClass.SMIGOC_G, SpectrumClass.MIXED])
def test_chain_vector_is_the_left_perron_vector(tag):
    # the closed-form glue vectors against exact Gauss-Jordan: _chain's
    # vector is the chain's sum-1 left null vector of (C - lam I), the
    # mixed join glues with it, and the outermost block's own vector is
    # the first of the chain's glue vectors
    rng = random.Random(f"glue-vector:{tag.value}")
    for k in range(40):
        vals, gammas = _in_class_problem(rng, tag)
        b, plan = realize_mixed(vals, gammas, order="keep")
        n2 = 2 * len(plan.chain_part) + 1
        lam = plan.bridges[0] if tag is SpectrumClass.MIXED else plan.head_part[0]
        chain, bridges, ts, u = _chain(
            lam, plan.chain_part, gammas[b.n - n2 :], 1e-9, level=1
        )
        trailing = [row[b.n - n2 :] for row in b.rows[b.n - n2 :]]
        assert chain == DenseMatrix(trailing), k
        assert u == _sum1_left_null_vector(chain, lam), k
        if tag is SpectrumClass.MIXED:
            assert plan.glue_vectors[0] == u, k
        if ts:
            block = DenseMatrix([row[-3:] for row in chain.rows[-3:]])
            assert ts[0] == _sum1_left_null_vector(block, bridges[0]), k


class TestRealizeSmigoc:
    def test_exact_five_by_five_chain(self):
        spec = [
            10,
            exact_complex(-1, Fraction(3, 2)), exact_complex(-1, Fraction(-3, 2)),
            exact_complex(-2, 3), exact_complex(-2, -3),
        ]
        gammas = (1, 1, 1, 1, 0)
        b = realize_smigoc(spec, gammas)
        assert b.exact
        assert b.diagonal() == gammas
        assert all(s == 10 for s in row_sums(b))
        assert b.min_real_entry() >= 0
        assert char_poly(b) == expected_char_poly(as_spectrum(spec))

    def test_real_tail_rejected(self):
        with pytest.raises(FeasibilityError) as err:
            realize_smigoc([5, -1, exact_complex(-1, 1), exact_complex(-1, -1)],
                           (1, 1, 1, 0))
        assert err.value.condition == "real-tail"

    def test_outside_rejected(self):
        with pytest.raises(FeasibilityError) as err:
            realize_smigoc([4, exact_complex(-1, 3), exact_complex(-1, -3)],
                           (1, 1, 0))
        assert err.value.condition == "outside-class"

    def test_trace_mismatch(self):
        with pytest.raises(ValueError, match="trace"):
            realize_smigoc([7, exact_complex(-2, 3), exact_complex(-2, -3)],
                           (1, 1, 0))


class TestRealizeMixed:
    def test_mixed_keep_order(self):
        spec = [7, -1, exact_complex(-2, 3), exact_complex(-2, -3)]
        gammas = (1, 1, 0, 0)
        b, plan = realize_mixed(spec, gammas, order="keep")
        assert b.diagonal() == gammas
        assert b.min_real_entry() >= 0
        assert plan.tag is SpectrumClass.MIXED
        assert plan.bridges == (5,)
        assert plan.assignment == (0, 1, 2, 3)
        assert plan.permutation == (0, 1, 2, 3)
        assert char_poly(b) == expected_char_poly(as_spectrum(spec))

    def test_pure_chain_bridge_values(self):
        spec = [
            10,
            exact_complex(-1, Fraction(3, 2)), exact_complex(-1, Fraction(-3, 2)),
            exact_complex(-2, 3), exact_complex(-2, -3),
        ]
        b, plan = realize_mixed(spec, (1, 1, 1, 1, 0), order="keep")
        assert plan.tag is SpectrumClass.SMIGOC_G
        # bridge c = (10 - 1 - 1) - (1 + 1) joins the inner block to the
        # outer 3x3 built from the widest pair
        assert plan.bridges == (6,)
        assert plan.glue_vectors == (
            (Fraction(18, 73), Fraction(30, 73), Fraction(25, 73)),
        )
        assert sum(plan.glue_vectors[0]) == 1

    def test_pure_f_dispatch(self):
        b, plan = realize_mixed([5, -1, -2], (1, 1, 0), order="keep")
        assert plan.tag is SpectrumClass.SULEIMANOVA_F
        assert plan.bridges == ()
        assert b.to_lists() == [[1, 2, 2], [2, 1, 2], [3, 2, 0]]

    def test_auto_prefers_descending_assignment(self):
        # auto routes the largest diagonal entries to the triangular head
        # block before trying anything else; keep consumes them in caller
        # order; both must restore the caller's diagonal at the end
        spec = [7, -1, exact_complex(-2, 3), exact_complex(-2, -3)]
        gammas = (0, 1, 0, 1)
        b, plan = realize_mixed(spec, gammas, order="auto")
        assert b.diagonal() == gammas
        assert b.min_real_entry() >= 0
        assert plan.assignment == (1, 3, 0, 2)
        assert plan.bridges == (5,)
        assert sorted(plan.permutation) == [0, 1, 2, 3]
        assert char_poly(b) == expected_char_poly(as_spectrum(spec))
        b2, plan2 = realize_mixed(spec, gammas, order="keep")
        assert plan2.assignment == (0, 1, 2, 3)
        assert plan2.bridges == (6,)
        assert b2.diagonal() == b.diagonal()

    def test_float_route(self):
        spec = [7.0, -1.0, complex(-2, 3), complex(-2, -3)]
        b, plan = realize_mixed(spec, (1.0, 1.0, 0.0, 0.0), order="keep")
        assert not b.exact
        assert b.diagonal() == (1.0, 1.0, 0.0, 0.0)
        m = match_multisets(eigenvalues(b).values, spec)
        assert m.max_distance < 1e-7

    def test_outside_lists_offenders(self):
        with pytest.raises(FeasibilityError) as err:
            realize_mixed([5, -1, 2], (3, 2, 1))
        assert err.value.condition == "outside-class"

    def test_trace_mismatch(self):
        with pytest.raises(ValueError, match="trace"):
            realize_mixed([5, -1, -2], (1, 1, 1))

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            realize_mixed([5, -1, -2], (1, 1, 0), order="sorted")

    def test_plan_to_dict_keys(self):
        _, plan = realize_mixed([5, -1, -2], (1, 1, 0))
        d = plan.to_dict()
        assert set(d) == {
            "class", "head_part", "chain_part", "assignment",
            "permutation", "bridges", "glue_vectors",
        }


@st.composite
def mixed_instance(draw):
    # one or two wide pairs, up to two F elements, trace-matched diagonal
    n_f = draw(st.integers(min_value=0, max_value=2))
    n_g = draw(st.integers(min_value=1, max_value=2))
    reals = [-Fraction(draw(st.integers(min_value=1, max_value=6)), 2)
             for _ in range(n_f)]
    pairs = []
    for _ in range(n_g):
        u = Fraction(draw(st.integers(min_value=1, max_value=5)), 2)
        y = u * Fraction(draw(st.integers(min_value=11, max_value=17)), 10)
        pairs.append(exact_complex(-u, y))
    extra = Fraction(draw(st.integers(min_value=0, max_value=10)), 2)
    # |x + iy| <= 2|x| inside the wide wedge, so this lam1 dominates
    lam1 = sum(-r for r in reals) + sum(2 * (-z.re) for z in pairs) + extra
    vals = [lam1] + reals
    for z in pairs:
        vals += [z, exact_complex(z.re, -z.im)]
    n = len(vals)
    total = lam1 + sum(reals) + sum(2 * z.re for z in pairs)
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)
    )
    if sum(weights) == 0:
        gammas = (total,) + (Fraction(0),) * (n - 1)
    else:
        gammas = tuple(total * Fraction(w, sum(weights)) for w in weights)
    return vals, gammas


@given(mixed_instance())
@settings(max_examples=60, deadline=None)
def test_mixed_realization_certifies_exactly(case):
    vals, gammas = case
    spec = as_spectrum(vals)
    b, plan = realize_mixed(spec, gammas, order="auto")
    assert b.exact
    assert b.min_real_entry() >= 0
    assert all(s == spec.perron for s in row_sums(b))
    assert b.diagonal() == gammas
    assert char_poly(b) == expected_char_poly(spec)
    # one bridge per glue: m pairs need m-1 chain joins, plus the head join
    m = len(plan.chain_part)
    want = m if plan.tag is SpectrumClass.MIXED else m - 1
    assert len(plan.bridges) == want
    assert all(c >= 0 for c in plan.bridges)


def test_plan_carries_the_passing_certificate():
    spec = [7, -1, exact_complex(-2, 3), exact_complex(-2, -3)]
    b, plan = realize_mixed(spec, (1, 1, 0, 0), order="keep")
    cert = plan.certificate
    assert cert.ok
    assert set(cert.checks) == {"spectrum", "diagonal", "nonneg", "constant_row_sums"}
    assert cert.thresholds["diagonal"] == 0.0
    assert "certificate" not in plan.to_dict()
    # the certificate takes no part in comparing plans
    _, again = realize_mixed(spec, (1, 1, 0, 0), order="keep")
    assert again == plan


def _in_class_problem(rng, tag):
    """A random exact spectrum of class ``tag`` and a shuffled nonnegative
    diagonal with its trace.  Wide pairs have 1 < |Im/Re| <= 1.73 <
    sqrt(3); narrow pairs 0 < |Im/Re| <= 1."""

    def re_part():
        return Fraction(rng.randint(1, 12), rng.randint(1, 4))

    n_g = 0 if tag is SpectrumClass.SULEIMANOVA_F else rng.randint(1, 6)
    n_real = 0 if tag is SpectrumClass.SMIGOC_G else rng.randint(0, 6)
    n_fpair = 0 if tag is SpectrumClass.SMIGOC_G else rng.randint(0, 3)
    if tag is not SpectrumClass.SMIGOC_G and n_real + n_fpair == 0:
        n_real = 1
    reals = [-Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n_real)]
    pairs = []
    for _ in range(n_fpair):
        x = re_part()
        pairs.append(exact_complex(-x, x * Fraction(rng.randint(1, 10), 10)))
    for _ in range(n_g):
        x = re_part()
        pairs.append(exact_complex(-x, x * Fraction(rng.randint(101, 173), 100)))
    # a zero trace forces the all-zero diagonal
    extra = 0 if rng.random() < 0.1 else Fraction(rng.randint(0, 40), rng.randint(1, 4))
    total = -sum(reals) + sum(-2 * z.re for z in pairs)
    vals = [total + extra] + reals
    for z in pairs:
        vals += [z, exact_complex(z.re, -z.im)]
    weights = [rng.choice((0, 0, 1, 2, 5, 9)) for _ in vals]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    gammas = [extra * Fraction(w, sum(weights)) for w in weights]
    rng.shuffle(gammas)
    return vals, tuple(gammas)


@pytest.mark.parametrize(
    "tag",
    [SpectrumClass.SULEIMANOVA_F, SpectrumClass.SMIGOC_G, SpectrumClass.MIXED],
)
def test_every_assignment_is_feasible_on_exact_input(tag, monkeypatch):
    # the trace condition alone makes any order feasible (see the proof in
    # realize_mixed), so "keep" never fails and "auto" needs one attempt,
    # also at the sizes (n > 12) and pair counts (up to 6) of larger lists
    import diagforge.nonneg

    attempt = diagforge.nonneg._attempt
    calls = []

    def counted(*args):
        calls.append(1)
        return attempt(*args)

    monkeypatch.setattr(diagforge.nonneg, "_attempt", counted)
    rng = random.Random(f"assignment:{tag.value}")
    sizes = []
    for k in range(60):
        vals, gammas = _in_class_problem(rng, tag)
        assert classify(vals).tag is tag
        sizes.append(len(vals))
        for order in ("keep", "auto"):
            calls.clear()
            b, plan = realize_mixed(vals, gammas, order=order)
            assert plan.certificate.ok, (k, order)
            assert b.exact and b.diagonal() == gammas, (k, order)
            assert len(calls) == 1, (k, order)
    assert max(sizes) > 12


@pytest.mark.parametrize(
    "tag",
    [SpectrumClass.SULEIMANOVA_F, SpectrumClass.SMIGOC_G, SpectrumClass.MIXED],
)
def test_exact_realization_checks_only_at_entry_and_exit(tag, monkeypatch):
    # realize_mixed validates its input once and certifies its output once;
    # on exact input every builder in between is unchecked, so none of the
    # validating entry points runs outside the certification, and no
    # matrix goes through the validating constructor
    import importlib

    import diagforge
    import diagforge.eigen
    import diagforge.matrix
    import diagforge.nonneg
    import diagforge.similarity

    # the package re-exports the function certify under the module's name
    certify_module = importlib.import_module("diagforge.certify")
    calls, certifying = [], []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            if name == "DenseMatrix.__init__" or not certifying:
                calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    certify = certify_module.certify

    def certify_spy(*args, **kwargs):
        # the certification reads B's row sum (to deflate its identity),
        # and is the one check of the output
        certifying.append(1)
        try:
            return certify(*args, **kwargs)
        finally:
            certifying.pop()

    monkeypatch.setattr(certify_module, "certify", certify_spy)

    monkeypatch.setattr(
        DenseMatrix, "__init__", spy("DenseMatrix.__init__", DenseMatrix.__init__)
    )
    for module in (diagforge, diagforge.matrix, diagforge.eigen,
                   diagforge.nonneg, diagforge.similarity):
        monkeypatch.setattr(
            module, "is_constant_row_sum",
            spy("is_constant_row_sum", module.is_constant_row_sum),
        )
    for name in ("perfect_feasible", "construct_3x3", "smigoc_glue",
                 "realize_suleimanova"):
        for module in (diagforge, diagforge.nonneg):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    rng = random.Random(f"checked once:{tag.value}")
    for k in range(20):
        vals, gammas = _in_class_problem(rng, tag)
        for order in ("keep", "auto"):
            b, plan = realize_mixed(vals, gammas, order=order)
            assert plan.certificate.ok and b.diagonal() == gammas, (k, order)
            assert calls == [], (k, order)
