import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagforge.eigen import char_poly, eigenvalues, match_multisets
from diagforge.matrix import (
    DenseMatrix,
    diag_similarity,
    exact_nullspace,
    is_constant_row_sum,
    permute_similarity,
    rank_one_add,
    row_sums,
)
from diagforge.scalars import ComplexRational, exact_complex, to_float
from diagforge.similarity import embed_anchor, set_diagonal_cs


class TestDenseMatrix:
    def test_basic_ops(self):
        a = DenseMatrix([[1, 2], [3, 4]])
        b = DenseMatrix([[0, 1], [1, 0]])
        assert (a + b).to_lists() == [[1, 3], [4, 4]]
        assert (a - b).to_lists() == [[1, 1], [2, 4]]
        assert (a @ b).to_lists() == [[2, 1], [4, 3]]
        assert a.transpose().to_lists() == [[1, 3], [2, 4]]
        assert a.trace() == 5
        assert a.diagonal() == (1, 4)
        assert a[1, 0] == 3
        assert a.matvec((1, 1)) == (3, 7)

    def test_constructors(self):
        assert DenseMatrix.identity(2).to_lists() == [[1, 0], [0, 1]]
        assert DenseMatrix.diagonal_matrix([5, 6]).to_lists() == [[5, 0], [0, 6]]
        with pytest.raises(ValueError):
            DenseMatrix([[1, 2], [3]])

    def test_exact_flag_and_float_conversion(self):
        a = DenseMatrix([[Fraction(1, 2), 0], [0, 1]])
        assert a.exact
        af = a.to_float()
        assert not af.exact
        assert af[0, 0] == 0.5


def test_rank_one_add_moves_single_eigenvalue():
    # diag(1,2,3) has eigenvector e1 for 1; adding e1*(1,0,0)^T shifts 1 -> 2
    a = DenseMatrix.diagonal_matrix([1.0, 2.0, 3.0])
    b = rank_one_add(a, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    got = sorted(z.real for z in eigenvalues(b).values)
    assert got == pytest.approx([2.0, 2.0, 3.0], abs=1e-9)


def test_row_sums_and_constant_row_sum_detection():
    cs = DenseMatrix([[0, 1, 2], [1, 1, 1], [2, 0, 1]])
    assert row_sums(cs) == (3, 3, 3)
    assert is_constant_row_sum(cs) == 3
    assert is_constant_row_sum(DenseMatrix([[1, 0], [0, 2]])) is None


def test_permute_similarity_relabels_rows_and_columns():
    a = DenseMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    p = permute_similarity(a, (2, 0, 1))
    assert p.diagonal() == (9, 1, 5)
    assert p[0, 1] == a[2, 0]


def test_exact_nullspace_known_kernel():
    a = DenseMatrix([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    basis = exact_nullspace(a)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0
    assert any(x != 0 for x in v)


@st.composite
def small_int_matrix(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    entries = st.integers(min_value=-6, max_value=6)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return DenseMatrix(rows)


@given(small_int_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_char_poly_invariant_under_permutation_similarity(a, rng):
    perm = list(range(a.n))
    rng.shuffle(perm)
    assert char_poly(permute_similarity(a, tuple(perm))) == char_poly(a)


@given(small_int_matrix(), st.data())
@settings(max_examples=60, deadline=None)
def test_char_poly_invariant_under_diagonal_similarity(a, data):
    d = data.draw(
        st.lists(
            st.sampled_from([1, -1, 2, 3]), min_size=a.n, max_size=a.n
        )
    )
    b = diag_similarity(a, tuple(Fraction(x) for x in d))
    assert char_poly(b) == char_poly(a)


def test_similarity_preserves_float_spectrum():
    a = DenseMatrix([[4.0, 1.0, 0.0], [2.0, -1.0, 3.0], [0.0, 5.0, 2.0]])
    b = diag_similarity(a, (1.0, -2.0, 4.0))
    m = match_multisets(eigenvalues(b).values, eigenvalues(a).values)
    assert m.max_distance < 1e-8


# -- matrices the library builds without re-validating entries ------------

# constant row sums 3 on every backend, so set_diagonal_cs applies too
TRUSTED_CASES = {
    "exact": (
        DenseMatrix([[Fraction(1, 2), 1, Fraction(3, 2)], [1, 1, 1], [2, 0, 1]]),
        (Fraction(1, 2), -1, 2),
    ),
    "exact-complex": (
        DenseMatrix(
            [[exact_complex(0, 1), 1, exact_complex(2, -1)], [1, 1, 1], [2, 0, 1]]
        ),
        (exact_complex(1, 1), Fraction(-1, 3), 2),
    ),
    "float": (
        DenseMatrix([[0.5, 1.0, 1.5], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
        (0.5, -1.0, 2.0),
    ),
    "float-complex": (
        DenseMatrix([[1j, 1.0, 2.0 - 1j], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
        (1.0 + 1.0j, -0.25, 2.0),
    ),
}

TRUSTED_OPS = {
    "to_float": lambda a, v: a.to_float(),
    "add": lambda a, v: a + a.transpose(),
    "sub": lambda a, v: a - a.transpose(),
    "matmul": lambda a, v: a @ a.transpose(),
    "scale": lambda a, v: a.scale(v[0]),
    "transpose": lambda a, v: a.transpose(),
    "rank_one_add": lambda a, v: rank_one_add(a, v, v[::-1]),
    "diag_similarity": lambda a, v: diag_similarity(a, v),
    "permute_similarity": lambda a, v: permute_similarity(a, (2, 0, 1)),
    # trace-preserving diagonal: gamma_i = a_ii + q_i with sum(q) = 0
    "set_diagonal_cs": lambda a, v: set_diagonal_cs(
        a, tuple(d + q for d, q in zip(a.diagonal(), (v[0], v[1], -v[0] - v[1])))
    ),
    "embed_anchor": lambda a, v: embed_anchor(a, 1),
}


@pytest.mark.parametrize("case", TRUSTED_CASES)
@pytest.mark.parametrize("op", TRUSTED_OPS)
def test_library_built_matrix_equals_validated_construction(case, op):
    a, v = TRUSTED_CASES[case]
    m = TRUSTED_OPS[op](a, v)
    ref = DenseMatrix(m.rows)
    assert (m.n, m.exact, m.rows) == (ref.n, ref.exact, ref.rows)
    types = [type(x) for r in m.rows for x in r]
    assert types == [type(x) for r in ref.rows for x in r]
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert m == ref and hash(m) == hash(ref)
    with pytest.raises(AttributeError, match="immutable"):
        m.rows = ref.rows


def test_library_built_matrices_cover_complex_rational_entries():
    a, v = TRUSTED_CASES["exact-complex"]
    for op in TRUSTED_OPS.values():
        m = op(a, v)
        if m.exact:
            assert any(isinstance(x, ComplexRational) for r in m.rows for x in r)


@pytest.mark.parametrize("case", TRUSTED_CASES)
def test_array_facts_are_built_once_and_match_the_rows(case):
    a, _ = TRUSTED_CASES[case]
    a = a.to_float() if case.startswith("exact") else a
    arr = a.to_numpy()
    assert a.to_numpy() is arr
    assert not arr.flags.writeable
    assert arr.tolist() == a.to_lists()
    assert a.max_abs() == max(abs(x) for r in a.rows for x in r)
    assert a.is_real() == all(not isinstance(x, complex) or x.imag == 0 for r in a.rows for x in r)


def test_float_scalar_matrix_is_judged_within_the_tolerance():
    a = DenseMatrix([[2.0, 1e-13], [0.0, 2.0 + 1e-13j]])
    assert a.is_scalar_matrix(tol=1e-12)
    assert not a.is_scalar_matrix(tol=1e-14)
    assert not DenseMatrix([[2.0, 0.0], [0.0, 2.1]]).is_scalar_matrix(tol=1e-12)


def test_complex_entries_with_zero_imaginary_part_count_as_real():
    a = DenseMatrix([[1.0 + 0j, 2.0], [3.0, -4.0]])
    assert a.to_numpy().dtype == complex
    assert a.is_real()
    assert a.max_abs() == 4.0


# -- the float branches compute on arrays: the loop versions as reference --


def _float_case(seed, complex_entries):
    rng = random.Random(seed)
    n = rng.randint(2, 12)

    def draw():
        x = rng.uniform(-5, 5)
        return complex(x, rng.uniform(-5, 5)) if complex_entries and rng.random() < 0.5 else x

    return DenseMatrix([[draw() for _ in range(n)] for _ in range(n)]), rng


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", range(10))
def test_float_branches_match_their_loop_versions(seed, complex_entries):
    # real entries: the same float operations in the same order, so the
    # results are equal bit for bit; complex division and multiplication
    # may round differently in numpy, so complex entries get a tolerance
    a, rng = _float_case(seed, complex_entries)
    n, rows = a.n, a.rows

    def same(m, ref):
        if complex_entries:
            assert all(
                abs(complex(x) - complex(y)) <= 1e-14 * max(1.0, abs(complex(y)))
                for r, rr in zip(m.rows, ref) for x, y in zip(r, rr)
            )
        else:
            assert m.to_lists() == ref

    d = tuple(rng.uniform(0.5, 2) * rng.choice([-1, 1]) for _ in range(n))
    same(diag_similarity(a, d), [
        [rows[i][j] if i == j else rows[i][j] * (d[j] / d[i]) for j in range(n)]
        for i in range(n)
    ])
    anchor = rng.randrange(n)
    ref = [list(r) for r in rows]
    for i in range(n):
        ref[i][anchor] = sum(rows[i])
    ref = [r if i == anchor else [x - y for x, y in zip(r, ref[anchor])]
           for i, r in enumerate(ref)]
    same(embed_anchor(a, anchor), ref)
    # a with its last column set for row sums 3 (up to rounding)
    cs = DenseMatrix([list(r[:-1]) + [3.0 - sum(r[:-1])] for r in rows])
    sums = [sum(r) for r in cs.rows]
    assert is_constant_row_sum(cs, tol=1e-6) == sum(sums) / n
    assert is_constant_row_sum(a) is None
    gs = [to_float(x) + rng.uniform(-1, 1) for x in cs.diagonal()[:-1]]
    gs.append(cs.trace() - sum(gs))
    q = [g - x for g, x in zip(gs, cs.diagonal())]
    same(set_diagonal_cs(cs, gs, tol=1e-6), [
        [gs[j] if i == j else cs.rows[i][j] + q[j] for j in range(n)] for i in range(n)
    ])


# -- the integer view of a rational matrix ---------------------------------


def _rational_case(seed):
    """A seeded rational matrix with negative entries and a zero row."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    rows = [
        [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) if rng.random() < 0.7 else 0
         for _ in range(n)]
        for _ in range(n)
    ]
    rows[rng.randrange(n)] = [0] * n
    return DenseMatrix(rows)


@pytest.mark.parametrize("seed", range(12))
def test_integer_view_is_the_row_scaling(seed):
    a = _rational_case(seed)
    view = a._integer_view()
    assert a._integer_view() is view
    rows, lcm_prod, height = view
    want_l = want_h = 1
    for (r, ints), row in zip(rows, a.rows):
        # r_i is the least positive integer that makes row i integral
        assert r == next(k for k in itertools.count(1) if all((k * x).denominator == 1 for x in row))
        assert ints == [int(r * x) for x in row]
        sq = sum(v * v for v in ints)
        norm = next(h for h in itertools.count() if h * h >= sq)
        want_l *= r
        want_h *= r + norm
    assert (lcm_prod, height) == (want_l, want_h)


def test_only_a_rational_matrix_has_an_integer_view():
    assert DenseMatrix([[1.5, 2.0], [0.0, 1.0]])._integer_view() is None
    a = DenseMatrix([[exact_complex(1, 2), 0], [0, 1]])
    assert a._integer_view() is None and a._integer_view() is None
    assert a.min_real_entry() == 0


@pytest.mark.parametrize("seed", range(12))
def test_min_real_entry_reads_the_integer_view(seed):
    a = _rational_case(seed)
    got = a.min_real_entry()
    assert type(got) is Fraction
    assert got == min(x for r in a.rows for x in r)
