"""Immutable dense square matrices and the structural operations on them.

Entries live on one of two backends (see :mod:`diagforge.scalars`): exact
rational entries, or float/complex entries.  Every operation is pure; the
inputs are never modified.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .scalars import (
    coerce_scalars,
    is_real,
    re_part,
    scalar_abs,
    scalar_family,
    to_float,
)


def normalize_vector(values: Sequence, family: Optional[str] = None) -> tuple:
    """Normalize a vector of scalars onto one backend.

    With ``family`` given ('exact' or 'float'), integers adapt to it and a
    contradicting entry raises.  Without it, the vector's own family wins
    (all-int vectors stay exact).
    """
    own = scalar_family(values)
    if family is None:
        family = "exact" if own == "int" else own
    elif own != "int" and own != family:
        raise TypeError(f"{own} vector used in {family} context; convert explicitly")
    return tuple(coerce_scalars(values, family))


def _entries_array(rows, exact: bool) -> np.ndarray:
    """Rows of normalized scalars as one array: complex when any entry is
    complex (``ComplexRational`` included), else float."""
    if exact:
        rows = [[to_float(x) for x in r] for r in rows]
    # numpy infers float64 from Python floats, complex128 if one is complex
    return np.array(rows)


def _scale_to_integers(rows):
    """Rows of ``Fraction`` entries scaled to integers: a list of
    (r_i, r_i * row_i) pairs, where r_i is the lcm of the denominators in
    row i, with L = prod r_i and H = prod (r_i + ceil(||r_i row_i||_2));
    False when an entry is not rational (a ``ComplexRational``)."""
    out = []
    lcm_prod = height = 1
    for row in rows:
        try:
            dens = [x.denominator for x in row]
        except AttributeError:
            return False
        r = math.lcm(*dens)
        ints = [x.numerator * (r // d) for x, d in zip(row, dens)]
        out.append((r, ints))
        lcm_prod *= r
        height *= r + _ceil_norm(ints)
    return out, lcm_prod, height


def _ceil_norm(ints: list) -> int:
    """ceil(||ints||_2) for a list of integers."""
    sq = sum(map(operator.mul, ints, ints))
    norm = math.isqrt(sq)
    return norm + (norm * norm < sq)


class DenseMatrix:
    """Square matrix with immutable entries on a single scalar backend."""

    # ``_numeric`` is None until first use, then (array, max |entry|,
    # realness) of the entries, computed once (see :meth:`_facts`);
    # ``_integer`` likewise holds the integer view of an exact matrix
    # (see :meth:`_integer_view`)
    __slots__ = ("n", "rows", "exact", "_numeric", "_integer")

    def __init__(self, rows):
        data = [list(r) for r in rows]
        n = len(data)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for r in data:
            if len(r) != n:
                raise ValueError("matrix must be square")
        family = scalar_family(x for r in data for x in r)
        if family == "int":
            family = "exact"
        normalized = [coerce_scalars(r, family) for r in data]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in normalized))
        object.__setattr__(self, "exact", family == "exact")
        object.__setattr__(self, "_numeric", None)
        object.__setattr__(self, "_integer", None)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def _trusted(cls, rows, exact: bool) -> "DenseMatrix":
        """Wrap rows the library computed itself, without re-validating them.

        Contract: ``rows`` is a non-empty square list of rows whose entries
        are already normalized onto one backend, the one ``exact`` names:
        ``Fraction``/``ComplexRational`` when exact, ``float``/``complex``
        otherwise (no ``int``, ``bool`` or numpy scalar).  Arithmetic on
        the entries of normalized matrices and vectors keeps that form.
        The result is then equal, entry type for entry type, to
        ``DenseMatrix(rows)``.  Rows from outside the library go through
        the validating constructor instead.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_numeric", None)
        object.__setattr__(self, "_integer", None)
        return self

    @classmethod
    def _from_ints(cls, flat: list, n: int) -> "DenseMatrix":
        """Wrap the n x n matrix whose row-major entries are the Python
        ints ``flat``, as the parser reads an all-integer section.

        The rows hold one ``Fraction`` per distinct value (``Fraction`` is
        immutable, so sharing one keeps the ``_trusted`` contract).  The
        integer view is set from the ints themselves: every r_i is 1, so
        L = 1 and H = prod (1 + ceil(||row_i||_2)).  The array is set from
        the ints when each converts to a float exactly (|v| < 2^53);
        otherwise :meth:`_facts` builds it on first use, and raises
        ``OverflowError`` for an int beyond the float range.
        """
        values = set(flat)
        fractions = {v: Fraction(v) for v in values}
        ints = [flat[i * n : (i + 1) * n] for i in range(n)]
        self = cls._trusted([tuple(map(fractions.__getitem__, r)) for r in ints], True)
        height = 1
        for row in ints:
            height *= 1 + _ceil_norm(row)
        object.__setattr__(self, "_integer", ([(1, row) for row in ints], 1, height))
        if -(2**53) < min(values) and max(values) < 2**53:
            self._remember(np.array(ints, dtype=float))
        return self

    @classmethod
    def _from_array(cls, arr: np.ndarray) -> "DenseMatrix":
        """Wrap a float or complex array the library computed itself.

        The rows are ``arr.tolist()`` (Python floats or complexes, as
        ``_trusted`` requires) and ``arr`` becomes the matrix's array.
        """
        self = cls._trusted(arr.tolist(), False)
        self._remember(arr)
        return self

    def _facts(self) -> tuple:
        """(array, max |entry|, whether every entry is real), computed on
        first use from the rows and then reused: the matrix is immutable."""
        if self._numeric is None:
            self._remember(_entries_array(self.rows, self.exact))
        return self._numeric

    def _remember(self, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        real = arr.dtype.kind != "c" or not arr.imag.any()
        object.__setattr__(self, "_numeric", (arr, float(np.max(np.abs(arr))), real))

    def _integer_view(self):
        """(rows, L, H) of :func:`_scale_to_integers` for a rational matrix,
        computed on first use and then reused; None unless every entry is
        rational (any float matrix, or an exact one with a nonreal entry)."""
        view = self._integer
        if view is None:
            view = _scale_to_integers(self.rows) if self.exact else False
            object.__setattr__(self, "_integer", view)
        return view or None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal_matrix(cls, entries: Sequence) -> "DenseMatrix":
        d = normalize_vector(entries)
        zero = Fraction(0) if scalar_family(d) != "float" else 0.0
        n = len(d)
        return cls([[d[i] if i == j else zero for j in range(n)] for i in range(n)])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def diagonal(self) -> tuple:
        return tuple(self.rows[i][i] for i in range(self.n))

    def trace(self):
        t = self.rows[0][0]
        for i in range(1, self.n):
            t = t + self.rows[i][i]
        return t

    def to_lists(self) -> list:
        return [list(r) for r in self.rows]

    # -- conversions ----------------------------------------------------

    def to_float(self) -> "DenseMatrix":
        """The matrix on the float backend, built from (and sharing) this
        matrix's array; an entry becomes ``complex`` when any entry is."""
        if not self.exact:
            return self
        return DenseMatrix._from_array(self.to_numpy())

    def to_numpy(self) -> np.ndarray:
        """The entries as a read-only array, complex when any entry is
        complex, else float; built once and then reused."""
        return self._facts()[0]

    # -- algebra --------------------------------------------------------

    def _require_same_backend(self, other: "DenseMatrix"):
        if self.exact != other.exact:
            raise TypeError("mixed exact/float matrices; convert explicitly")
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_backend(other)
        return DenseMatrix._trusted(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ],
            self.exact,
        )

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_backend(other)
        return DenseMatrix._trusted(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ],
            self.exact,
        )

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._require_same_backend(other)
        n = self.n
        out = []
        for i in range(n):
            ri = self.rows[i]
            out.append(
                [
                    sum(ri[k] * other.rows[k][j] for k in range(n))
                    for j in range(n)
                ]
            )
        return DenseMatrix._trusted(out, self.exact)

    def matvec(self, v: Sequence) -> tuple:
        x = normalize_vector(v, "exact" if self.exact else "float")
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(r[k] * x[k] for k in range(self.n)) for r in self.rows)

    def scale(self, s) -> "DenseMatrix":
        (s,) = normalize_vector([s], "exact" if self.exact else "float")
        return DenseMatrix._trusted([[s * x for x in r] for r in self.rows], self.exact)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix._trusted(
            [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)],
            self.exact,
        )

    # -- predicates -----------------------------------------------------

    def is_diagonal(self) -> bool:
        return all(
            not self.rows[i][j]
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def is_scalar_matrix(self, tol: float = 0.0) -> bool:
        """True when the matrix is alpha*I (within tol off the exact backend)."""
        d0 = self.rows[0][0]
        if self.exact or tol == 0.0:
            return self.is_diagonal() and all(x == d0 for x in self.diagonal())
        a = self.to_numpy()
        diag = np.diagonal(a)
        off = float(np.max(np.abs(a - np.diag(diag))))
        spread = float(np.max(np.abs(diag - diag[0])))
        return off <= tol and spread <= tol

    def max_abs(self) -> float:
        return self._facts()[1]

    def min_real_entry(self):
        """Smallest real part over all entries (entrywise bound helper).

        A rational matrix reads it from its integer view: the row i with
        the least min(r_i row_i) / r_i, compared exactly by cross
        multiplication, gives the smallest entry as one ``Fraction``."""
        view = self._integer_view()
        if view is None:
            return min(re_part(x) for r in self.rows for x in r)
        rows = iter(view[0])
        r, ints = next(rows)
        low, den = min(ints), r
        for r, ints in rows:
            m = min(ints)
            if m * den < low * r:
                low, den = m, r
        return Fraction(low, den)

    def is_real(self) -> bool:
        if not self.exact:
            return self._facts()[2]
        return all(is_real(x) for r in self.rows for x in r)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.exact == other.exact and self.rows == other.rows

    def __hash__(self):
        return hash((self.exact, self.rows))

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"DenseMatrix({self.n}x{self.n} {kind})"


# -- structural operations ---------------------------------------------


def rank_one_add(A: DenseMatrix, v: Sequence, q: Sequence) -> DenseMatrix:
    """Return A + v q^T (outer-product update)."""
    fam = "exact" if A.exact else "float"
    vv = normalize_vector(v, fam)
    qq = normalize_vector(q, fam)
    if len(vv) != A.n or len(qq) != A.n:
        raise ValueError("dimension mismatch")
    return DenseMatrix._trusted(
        [
            [A.rows[i][j] + vv[i] * qq[j] for j in range(A.n)]
            for i in range(A.n)
        ],
        A.exact,
    )


# on the float backend a scale entry at or below this fraction of the
# largest one counts as zero
SCALE_ZERO_TOL = 1e-10


def diag_similarity(A: DenseMatrix, d: Sequence) -> DenseMatrix:
    """Return D^{-1} A D for D = diag(d).

    Entries of d must be nonzero; on the float backend, |d_i| must exceed
    SCALE_ZERO_TOL * max|d_i|.  The diagonal of A is preserved entry for entry
    (the i==i ratio is taken as exactly one).
    """
    fam = "exact" if A.exact else "float"
    dd = normalize_vector(d, fam)
    if len(dd) != A.n:
        raise ValueError("dimension mismatch")
    if not A.exact:
        return DenseMatrix._from_array(_diag_similarity_array(A.to_numpy(), dd))
    if any(not x for x in dd):
        raise ValueError("zero scale entry in diagonal similarity")
    out = []
    for i in range(A.n):
        row = []
        for j in range(A.n):
            if i == j:
                row.append(A.rows[i][j])
            else:
                row.append(A.rows[i][j] * (dd[j] / dd[i]))
        out.append(row)
    return DenseMatrix._trusted(out, True)


def _diag_similarity_array(a: np.ndarray, d: tuple) -> np.ndarray:
    """D^{-1} a D for a float or complex array ``a`` and float scale
    entries ``d``: entry (i, j) is a_ij * (d_j / d_i), and the diagonal
    of ``a`` is kept entry for entry."""
    dmax = max(scalar_abs(x) for x in d)
    if dmax == 0.0 or any(scalar_abs(x) <= SCALE_ZERO_TOL * dmax for x in d):
        raise ValueError("near-zero scale entry in diagonal similarity")
    dv = np.array(d)
    out = a * (dv[None, :] / dv[:, None])
    np.fill_diagonal(out, np.diagonal(a))
    return out


def permute_similarity(A: DenseMatrix, perm: Sequence[int]) -> DenseMatrix:
    """Return P^T A P, i.e. entry (i, j) becomes A[perm[i]][perm[j]].

    ``perm`` is 0-based and must be a bijection on range(n).  The diagonal
    of the result reads A[perm[0]][perm[0]], A[perm[1]][perm[1]], ...
    """
    p = list(perm)
    if sorted(p) != list(range(A.n)):
        raise ValueError("perm must be a permutation of range(n)")
    return DenseMatrix._trusted(
        [[A.rows[p[i]][p[j]] for j in range(A.n)] for i in range(A.n)], A.exact
    )


def row_sums(A: DenseMatrix) -> tuple:
    return tuple(sum(r) for r in A.rows)


def is_constant_row_sum(A: DenseMatrix, tol: float = 1e-9):
    """Return the common row sum when all rows agree, else None.

    Exact backend: agreement must be exact and ``tol`` is ignored; a
    rational matrix is read from its integer view.  Float
    backend: the maximum deviation from the mean row sum must be at most
    ``tol * max(1, |mean|)``; the mean is returned.
    """
    if not A.exact:
        return _row_sum_mean(A.to_numpy(), tol)
    view = A._integer_view()
    if view is None:
        rows = iter(A.rows)
        alpha = sum(next(rows))
        return alpha if all(sum(r) == alpha for r in rows) else None
    # row i sums to s_i / r_i: compare the integer sums by cross multiplication
    (r0, ints), *rest = view[0]
    s0 = sum(ints)
    if all(sum(row) * r0 == s0 * r for r, row in rest):
        return Fraction(s0, r0)
    return None


def deflated_rows(A: DenseMatrix) -> Optional[list]:
    """The integer rows of D, D_ij = a_ij - a_0j for i, j >= 1: row 0
    subtracted from every other row, then row 0 and column 0 dropped.
    Row i comes as (m_i, m_i * row_i(D)), m_i = lcm(r_0, r_i), from A's
    integer view; None unless A is rational.

    When every row of A sums to alpha, S = I - (e - e_0) e_0^T gives
    S A S^-1 = [[alpha, *], [0, D]], so char(A) = (t - alpha) char(D).
    """
    view = A._integer_view()
    if view is None:
        return None
    (r0, top), *rest = view[0]
    top = top[1:]
    out = []
    for r, ints in rest:
        m = math.lcm(r, r0)
        u, v = m // r, m // r0
        out.append((m, [x * u - y * v for x, y in zip(ints[1:], top)]))
    return out


def _row_sums_array(a: np.ndarray) -> np.ndarray:
    """Row sums of a float or complex array, each added left to right
    from 0 as Python's ``sum`` of floats does (before Python 3.12)."""
    return np.cumsum(a, axis=1)[:, -1] + 0.0


def _row_sum_mean(a: np.ndarray, tol: float):
    """The float branch of :func:`is_constant_row_sum`, on an array."""
    sums = _row_sums_array(a)
    mean = sum(sums.tolist()) / len(sums)
    dev = float(np.max(np.abs(sums - mean)))
    if dev <= tol * max(1.0, scalar_abs(mean)):
        return mean
    return None


def exact_nullspace(A: DenseMatrix) -> list:
    """Basis of the nullspace of an exact-backend matrix.

    Gauss-Jordan elimination over the rational (or complex rational)
    field.  Returns a list of vectors (tuples); empty when A is regular.
    """
    if not A.exact:
        raise TypeError("exact_nullspace requires the exact backend")
    n = A.n
    M = [list(r) for r in A.rows]
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [M[i][j] - f * M[r][j] for j in range(n)]
        pivot_of_col[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivot_of_col]
    for f in free_cols:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for c, pr in pivot_of_col.items():
            x[c] = -M[pr][f]
        basis.append(tuple(x))
    return basis
