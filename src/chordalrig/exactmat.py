"""Exact rational linear algebra on small dense matrices.

Every entry is a Python Fraction, so all results are exact. Floats are
rejected outright; there is no rounding anywhere in this module.
Determinants and the one-pass rank profile run integer Bareiss
elimination after clearing denominators; the Gale columns' Cramer systems
call ``_int_determinant`` directly. The general-position sweep does not:
it shares one fraction-free cofactor basis per prefix of its subsets
(``framework._cofactor_step``). One kernel works on sparse rows
instead (``SparseRows``, {row: {column: entry}}): symmetric exchange-free
elimination in a given order, touching only the entries that elimination
changes. Its pivots decide PSD and rank, and the unit columns it divides
out are the factor L of L D L^T; for a maximal-rank stress with generic
rank profile, eliminated along a perfect elimination ordering, L is a
unit-triangular Gale matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

Rational = Fraction


class ExactMatError(Exception):
    """Base class for errors raised by this module."""


class ZeroPivot(ExactMatError):
    """Exchange-free elimination hit a zero pivot at 1-based step ``step``."""

    def __init__(self, step: int):
        super().__init__(f"zero pivot at elimination step {step}")
        self.step = step


class NotSymmetric(ExactMatError):
    pass


class DimensionMismatch(ExactMatError):
    pass


class SingularMatrix(ExactMatError):
    pass


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("matrix entries must be rational, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"matrix entries must be rational, got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of Fractions.

    ``rows`` and ``cols`` are counts; entries are read with ``A[i, j]``
    using 0-based indices. Diagnostics reported by the functions in this
    module (pivot steps, minor sizes, row/column subsets) are 1-based to
    line up with vertex labels elsewhere in the package.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, shape: tuple[int, int] | None = None):
        rows = tuple(tuple(_coerce(x) for x in row) for row in data)
        if shape is None:
            if not rows:
                raise DimensionMismatch("cannot infer shape of an empty matrix; pass shape=")
            nrows, ncols = len(rows), len(rows[0])
        else:
            nrows, ncols = shape
            if len(rows) != nrows:
                raise DimensionMismatch(f"expected {nrows} rows, got {len(rows)}")
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows in matrix literal")
        self.rows = nrows
        self.cols = ncols
        self._data = rows

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            if rows is None:
                raise DimensionMismatch("need explicit row count for a matrix with no columns")
            return cls.zeros(rows, 0)
        nrows = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(nrows)], shape=(nrows, len(cols)))

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._data)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "Matrix":
        return Matrix([[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                      shape=(self.cols, self.rows))

    def select(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        """Submatrix from 0-based row/column index sequences, in the given order."""
        return Matrix([[self._data[i][j] for j in col_idx] for i in row_idx],
                      shape=(len(row_idx), len(col_idx)))

    def mul_vector(self, vec: Sequence) -> tuple[Fraction, ...]:
        v = [_coerce(x) for x in vec]
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} against {self.cols} columns")
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self._data)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            bt = other.transpose()._data
            # Gale factors and stresses are mostly zeros; exact sums let the
            # zero terms be skipped without changing any entry.
            return Matrix([[sum(a * b for a, b in zip(row, col) if a and b) for col in bt]
                           for row in self._data], shape=(self.rows, other.cols))
        if isinstance(other, (int, Fraction)):
            s = _coerce(other)
            return Matrix([[x * s for x in row] for row in self._data], shape=(self.rows, self.cols))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
                      shape=(self.rows, self.cols))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    @property
    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        d = self._data
        return all(d[i][j] == d[j][i] for i in range(self.rows) for j in range(i + 1, self.cols))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _gauss_rows(a: Matrix, t: int) -> Iterator[list[list[Fraction]]]:
    """The working rows of ``gauss_steps``, yielded (and then mutated in
    place) after each step."""
    if not 0 <= t <= min(a.rows, a.cols):
        raise DimensionMismatch(f"step count {t} out of range for {a.rows}x{a.cols}")
    g = a.to_lists()
    for s in range(1, t + 1):
        p = g[s - 1][s - 1]
        if p == 0:
            raise ZeroPivot(s)
        pivot_row = g[s - 1]  # pre-division values feed the Schur update
        g[s - 1] = [x / p for x in pivot_row]
        for i in range(s, a.rows):
            row = g[i]
            f = row[s - 1]
            row[s - 1] = Fraction(0)
            if f:
                for j in range(s, a.cols):
                    row[j] -= f * pivot_row[j] / p
        yield g


def gauss_steps(a: Matrix, t: int) -> Iterator[Matrix]:
    """Yield the matrix after each of the first ``t`` elimination steps.

    Step s divides row s by its pivot, zeroes column s below the pivot and
    applies the Schur update to the trailing block. No row exchanges are
    performed: a zero pivot raises ZeroPivot(s). Rows above the pivot are
    never touched again, so the processed staircase has unit pivots.
    """
    for g in _gauss_rows(a, t):
        yield Matrix(g, shape=(a.rows, a.cols))


def gauss_step_sequence(a: Matrix, t: int) -> Matrix:
    """Matrix after the first ``t`` exchange-free elimination steps (t=0 returns a)."""
    g = None
    for g in _gauss_rows(a, t):
        pass
    return a if g is None else Matrix(g, shape=(a.rows, a.cols))


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale rationals by the lcm ``l`` of their denominators.

    Returns the integers ``l * x`` in order, and ``l``.
    """
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Each step k replaces the trailing block by 2x2 minors against the
    pivot divided by the previous pivot; by Sylvester's identity the
    division is exact, so every intermediate stays an integer minor of the
    input. A zero pivot is swapped with the first nonzero entry below it.
    ``rows`` is not modified.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def determinant(a: Matrix) -> Fraction:
    """Exact determinant via integer Bareiss elimination with row swaps.

    Each row is multiplied by the lcm of its denominators, so the scaled
    matrix is integral; its determinant, divided by the product of those
    multipliers, is the determinant of ``a``.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    rows = []
    scale = 1
    for row in a.data:
        ints, l = _integer_row(row)
        rows.append(ints)
        scale *= l
    return Fraction(_int_determinant(rows), scale)


def rank(a: Matrix) -> int:
    """Rank by row-echelon elimination with row exchanges."""
    m = a.to_lists()
    r = 0
    for c in range(a.cols):
        piv = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        for i in range(r + 1, a.rows):
            f = m[i][c]
            if f:
                for j in range(c, a.cols):
                    m[i][j] -= f * m[r][j] / lead
        r += 1
        if r == a.rows:
            break
    return r


def _leading_profile(a: Matrix) -> tuple[int, bool] | None:
    """One exchange-free integer Bareiss pass over a square matrix.

    Each row is first scaled by the lcm of its denominators, which scales
    the j-th leading principal minor by a positive factor; the pivot at
    step j is that scaled minor. At the first zero pivot, step k+1, the
    trailing block holds k+1-order bordered minors, so it is all zero
    exactly when the Schur complement of the leading k-block is.

    Returns ``(k, positive)`` when the leading k-block is nonsingular and
    its Schur complement is zero (or k = n): then k is the rank, the first
    k leading minors are nonzero, and ``positive`` says whether all k
    pivots are positive. For a symmetric matrix that decides PSD, since
    the matrix is congruent to diag(leading block, 0). Returns None when a
    zero pivot meets a nonzero trailing block: the rank exceeds k while
    minor k+1 vanishes, so the rank profile is not generic.
    """
    n = a.rows
    m = [_integer_row(row)[0] for row in a.data]
    prev = 1
    positive = True
    for k in range(n):
        pivot_row = m[k]
        pivot = pivot_row[k]
        if pivot == 0:
            if any(m[i][j] for i in range(k, n) for j in range(k, n)):
                return None
            return k, positive
        if pivot < 0:
            positive = False
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            m[i] = row[:k + 1] + [(x * pivot - f * y) // prev
                                  for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = pivot
    return n, positive


def has_generic_rank_profile(a: Matrix) -> tuple[bool, int]:
    """Whether the first rank(a) leading principal minors are all nonzero.

    Returns (decision, rank). One exchange-free integer Bareiss pass
    decides the profile and, when it is generic, yields the rank; only a
    non-generic profile pays for a separate ``rank``. The zero matrix
    vacuously qualifies with rank 0.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("generic rank profile needs a square matrix")
    if not a.is_symmetric:
        raise NotSymmetric("generic rank profile is defined here for symmetric matrices")
    profile = _leading_profile(a)
    if profile is None:
        return False, rank(a)
    return True, profile[0]


SparseRows = dict[int, dict[int, Fraction]]


def _sparse_rows(a: Matrix) -> SparseRows:
    """The nonzero entries of ``a`` as {row: {column: value}}, 0-based."""
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a.data)}


def _dense(rows: SparseRows, n: int) -> Matrix:
    """The n x n matrix whose entries absent from ``rows`` are zero."""
    zero = Fraction(0)
    return Matrix([[rows[i].get(j, zero) for j in range(n)] for i in range(n)],
                  shape=(n, n))


def _sparse_factor(rows: SparseRows, order: Sequence[int]
                   ) -> tuple[list[Fraction], list[dict[int, Fraction]], bool]:
    """Symmetric exchange-free elimination over sparse rows, in ``order``.

    ``rows`` holds the entries of a symmetric matrix by row, zeros omitted
    or not; ``order`` lists every row index once. A nonzero pivot d at v is
    eliminated: each entry (u, w) of v's remaining neighbours loses
    a_uv a_vw / d, so only the clique they span changes, and along a
    perfect elimination ordering of the matrix's pattern nothing fills in.
    A zero pivot over an all-zero row removes v unchanged.

    Returns the pivots in step order, the unit column {v: 1, u: a_uv / d}
    of each nonzero pivot d at v, and whether every step was one of those
    two. When it was, the matrix is L D L^T with L the columns and D their
    pivots. A zero pivot over a nonzero row stops the pass; it is the last
    pivot returned, with False.
    """
    work = {v: {w: x for w, x in row.items() if x} for v, row in rows.items()}
    if sorted(order) != sorted(work):
        raise DimensionMismatch("the order must list every row index exactly once")
    pivots = []
    columns = []
    for v in order:
        row = work.pop(v)
        pivot = row.pop(v, 0)
        pivots.append(pivot)
        if not pivot:
            if row:
                return pivots, columns, False
            continue
        column = {v: Fraction(1)}
        neighbours = list(row.items())
        for u, a in neighbours:
            urow = work[u]
            del urow[v]
            f = column[u] = a / pivot
            for w, b in neighbours:
                x = urow.get(w, 0) - f * b
                if x:
                    urow[w] = x
                else:
                    urow.pop(w, None)
        columns.append(column)
    return pivots, columns, True


def _sparse_profile(rows: SparseRows, order: Sequence[int]) -> tuple[int, bool] | None:
    """Rank and PSD by ``_sparse_factor``.

    When every step eliminates a nonzero pivot or skips a zero row, the
    matrix is congruent to the diagonal of its pivots: returns
    ``(rank, positive)``, with the rank the number of nonzero pivots, and
    the matrix PSD exactly when ``positive`` (every nonzero pivot is
    positive). A zero pivot over a nonzero row returns None: a congruent
    matrix then has a principal block [[0, a], [a, d]] with a != 0, so the
    matrix is not PSD. The answer does not depend on the order; the order
    only sets the fill, hence the work.
    """
    pivots, columns, complete = _sparse_factor(rows, order)
    if not complete:
        return None
    return len(columns), all(d > 0 for d in pivots if d)


def _rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    m = a.to_lists()
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        piv = next((i for i in range(r, a.rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return m, pivots


def null_space_basis(a: Matrix) -> Matrix:
    """Kernel basis from the reduced row echelon form.

    One basis column per free column of the RREF, in increasing free-column
    order: the free variable is set to 1 and each pivot variable to the
    negated RREF entry. Deterministic for a given input.
    """
    m, pivots = _rref(a)
    pivot_set = set(pivots)
    columns = []
    for f in range(a.cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * a.cols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -m[row_idx][f]
        columns.append(v)
    return Matrix.from_columns(columns, rows=a.cols)


UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class LinearSolution:
    """Classification of A x = b with an explicit witness for each case."""

    status: str
    solution: tuple[Fraction, ...] | None = None
    kernel: Matrix | None = None

    @property
    def is_unique(self) -> bool:
        return self.status == UNIQUE


def solve_linear(a: Matrix, b: Sequence) -> LinearSolution:
    """Solve A x = b exactly, reporting unique/inconsistent/underdetermined."""
    rhs = [_coerce(x) for x in b]
    if len(rhs) != a.rows:
        raise DimensionMismatch(f"rhs of length {len(rhs)} against {a.rows} rows")
    aug = Matrix([list(row) + [rhs[i]] for i, row in enumerate(a.data)],
                 shape=(a.rows, a.cols + 1))
    m, pivots = _rref(aug)
    if a.cols in pivots:
        return LinearSolution(INCONSISTENT)
    particular = [Fraction(0)] * a.cols
    for row_idx, p in enumerate(pivots):
        particular[p] = m[row_idx][a.cols]
    kernel = null_space_basis(a)
    if kernel.cols == 0:
        return LinearSolution(UNIQUE, solution=tuple(particular))
    return LinearSolution(UNDERDETERMINED, solution=tuple(particular), kernel=kernel)


def inverse(a: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix when none exists."""
    if a.rows != a.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    n = a.rows
    aug = Matrix([list(row) + [1 if i == j else 0 for j in range(n)]
                  for i, row in enumerate(a.data)], shape=(n, 2 * n))
    m, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix([row[n:] for row in m], shape=(n, n))


@dataclass(frozen=True)
class PsdResult:
    """Outcome of the exact PSD test.

    ``rank`` counts the pivots consumed; it equals the matrix rank exactly
    when ``is_psd`` holds. ``witness`` satisfies x^T A x < 0 when not PSD.
    """

    is_psd: bool
    rank: int
    witness: tuple[Fraction, ...] | None


def psd_check(a: Matrix) -> PsdResult:
    """Decide positive semidefiniteness by symmetric elimination.

    Pivots on the greatest remaining diagonal entry (ties to the lowest
    index). A residual that is all zero certifies PSD; a nonpositive
    greatest diagonal with a nonzero residual yields an explicit witness
    vector, lifted back through the pivot stack so that x^T A x < 0 holds
    for the original matrix.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("psd_check needs a square matrix")
    if not a.is_symmetric:
        raise NotSymmetric("psd_check needs a symmetric matrix")
    n = a.rows
    work = a.to_lists()
    active = list(range(n))
    steps: list[tuple[int, Fraction, dict[int, Fraction]]] = []
    while True:
        if all(work[i][j] == 0 for i in active for j in active):
            return PsdResult(True, len(steps), None)
        dmax, p = max(((work[i][i], i) for i in active), key=lambda t: (t[0], -t[1]))
        if dmax > 0:
            col = {q: work[q][p] for q in active if q != p}
            steps.append((p, dmax, col))
            active.remove(p)
            for i in active:
                f = work[i][p]
                if f:
                    for j in active:
                        work[i][j] -= f * work[p][j] / dmax
            continue
        # Not PSD: build a witness on the residual, then lift it.
        x: dict[int, Fraction] = {}
        neg = next((i for i in active if work[i][i] < 0), None)
        if neg is not None:
            x[neg] = Fraction(1)
        else:
            # All residual diagonals are zero, so some off-diagonal is not.
            i0, j0 = next((i, j) for i in active for j in active
                          if i < j and work[i][j] != 0)
            x[i0] = Fraction(1)
            x[j0] = Fraction(-1 if work[i0][j0] > 0 else 1)
        for p, d, col in reversed(steps):
            x[p] = -sum(col[q] * xv for q, xv in x.items()) / d
        witness = tuple(x.get(i, Fraction(0)) for i in range(n))
        value = sum(witness[i] * a[i, j] * witness[j] for i in range(n) for j in range(n))
        assert value < 0
        return PsdResult(False, len(steps), witness)
