"""Exact rational linear algebra: the two kernels the library runs.

Every entry is an int or a Python Fraction, so all results are exact.
Floats are rejected outright; there is no rounding anywhere in this
module. ``Matrix`` holds Fractions; the kernels below run on ints where
they can.

- ``_sparse_factor`` eliminates a symmetric matrix held as sparse rows
  (``SparseRows``, {row: {column: entry}}) without exchanges, in a given
  order, touching only the entries that elimination changes, with a 2x2
  block step at a zero pivot over a nonzero row, so it always completes.
  ``certify.psdize_stress`` hands it its input stress S as the integer
  rows of a congruent matrix M = C S C, C a positive integer diagonal
  (``_congruent_rows`` over S's nonzero entries, however S was built),
  and ``validate_stress_matrix`` hands it S's own rows; no stress that
  ``certify`` builds is eliminated again. Every division goes through
  ``_quotient``, which keeps an exact quotient an int. One pass decides
  rank, PSD and the generic rank profile in its order, which the
  congruence keeps, and keeps its steps, whose unit columns, read in S's
  scale, are the factor L of S = L D L^T; for a maximal-rank stress with
  generic rank profile, eliminated along a perfect elimination ordering,
  L is a unit-triangular Gale matrix, built in integers from the steps.
- ``_cofactor_step`` is the one integer elimination: a fraction-free
  Bareiss step that extends a run of integer rows (cleared of
  denominators by ``_integer_row``) and keeps the basis of the vectors
  orthogonal to it. ``_cofactor_basis`` pushes whole rows through it, for
  the rank of a matrix that is not symmetric (``rank``), the framework's
  span check and affine independence, and the one dependency that gives
  a Gale column. The general-position sweep shares one basis per prefix
  of its subsets instead. ``_integer_kernel`` pushes columns through it
  for the pivot columns of the reduced row echelon form, and one
  ``_cofactor_basis`` per free column for its kernel column, all in
  integers: the reflecting-hyperplane search and the canonical Gale
  matrix (``framework.gale_matrix``) read it as it is.

``Matrix.__mul__``, the dense product, is kept for callers that build
stresses such as Z D Z^T; no command runs it. It is summed fraction-free
(``_product``): each nonzero sum becomes one Fraction, and every zero of
the result is one shared ``Fraction(0)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Collection, Iterable, NamedTuple, Sequence


class ExactMatError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatch(ExactMatError):
    pass


# The one zero the dense kernels hand out; Fractions are immutable.
_ZERO = Fraction(0)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("matrix entries must be rational, got bool")
    if isinstance(value, int):
        return Fraction(value) if value else _ZERO
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"matrix entries must be rational, got {type(value).__name__}")


class Matrix:
    """Immutable dense matrix of Fractions. The library reads it by entry
    and by row (``data``) and transposes it; its one arithmetic, the
    product, serves callers that build stresses.

    ``rows`` and ``cols`` are counts; entries are read with ``A[i, j]``
    using 0-based indices. Diagnostics reported by the functions in this
    module (pivot steps, minor sizes, row/column subsets) are 1-based to
    line up with vertex labels elsewhere in the package.

    The constructors coerce every entry to a Fraction (ints, Fractions and
    strings; floats and bools raise TypeError). Results the library builds
    from Fractions it already holds, the product, the transpose and the
    dense view of a Gale matrix (``framework.GaleMatrix``), go through
    ``_of``, which takes its rows as they are.
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
    def _of(cls, data: tuple[tuple[Fraction, ...], ...], rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix over ``data``, a tuple of ``rows`` tuples
        of ``cols`` Fractions, kept as it is: nothing is coerced or
        checked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = rows, cols, data
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._data[i][j]

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._data]

    def transpose(self) -> "Matrix":
        data = tuple(zip(*self._data)) if self.rows else ((),) * self.cols
        return Matrix._of(data, self.cols, self.rows)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Matrix._of(_product(self._data, other._data, other.cols), self.rows, other.cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _integer_row(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Scale rationals by the lcm ``l`` of their denominators.

    Returns the integers ``l * x`` in order, and ``l``.
    """
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _product(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]], cols: int
             ) -> tuple[tuple[Fraction, ...], ...]:
    """The rows of the product of the rows ``a`` and ``b`` (``cols``
    columns), fraction-free.

    Column j of b is scaled to integers by the lcm m_j of its denominators
    and kept as the nonzero entries of each scaled row; row i of a is
    scaled by the lcm l_i of its own. Entry (i, j) is then s_ij /
    (l_i m_j), s_ij the sum over t of the scaled a_it b_tj, and summing
    each nonzero a_it against row t's nonzero entries skips only zero
    terms. Gale factors and stresses are mostly zeros, so this is far
    fewer terms than the rows x cols x inner products. Each nonzero sum
    is one Fraction; every other entry is the shared zero, so an empty
    inner dimension gives the zero matrix.
    """
    right = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    scale = [1] * cols
    for row in right:
        for j, x in row:
            scale[j] = math.lcm(scale[j], x.denominator)
    right = [[(j, x.numerator * (scale[j] // x.denominator)) for j, x in row] for row in right]
    out = []
    for row in a:
        nonzero = [(t, x) for t, x in enumerate(row) if x]
        l = math.lcm(*[x.denominator for _, x in nonzero])
        sums = [0] * cols
        for t, x in nonzero:
            x = x.numerator * (l // x.denominator)
            for j, y in right[t]:
                sums[j] += x * y
        out.append(tuple(Fraction(s, l * m) if s else _ZERO for s, m in zip(sums, scale)))
    return tuple(out)


def _unit_rows(k: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]


def _cofactor_step(basis: list[list[int]], prev: int, v: Sequence[int]
                   ) -> tuple[list[list[int]], int] | None:
    """Extend a run of integer rows by the row ``v``, fraction-free.

    ``basis`` spans the vectors orthogonal to every row of the run: the k
    unit vectors, with ``prev`` = 1, for the empty run, and one vector fewer
    per row. ``v`` depends on the run exactly when every y in the basis has
    <v, y> = 0; then None is returned. Otherwise the first y_j with
    p = <v, y_j> != 0 is the pivot, and every other y_i becomes
    (p y_i - <v, y_i> y_j) / prev, with ``prev`` the previous pivot. This
    is one step of Bareiss elimination on the columns of the rows stacked
    over the identity, so by Sylvester's identity the division is exact
    and every entry is a d x d minor of the d rows of the run, up to sign.
    After k-1 rows the one vector left is the cofactor vector of a last
    row, up to sign: its dot product with a row is the k x k determinant.
    Returns the new basis and ``p``.
    """
    dots = [sum(map(mul, y, v)) for y in basis]
    j = next((i for i, a in enumerate(dots) if a), None)
    if j is None:
        return None
    p, pivot = dots[j], basis[j]
    return [[(p * x - a * z) // prev for x, z in zip(y, pivot)]
            for i, (a, y) in enumerate(zip(dots, basis)) if i != j], p


def _cofactor_basis(rows: Iterable[Sequence[int]], k: int
                    ) -> tuple[list[list[int]], int, int]:
    """Push integer rows of length k through ``_cofactor_step`` from the
    empty run, skipping each row that depends on the rows kept, until k are
    kept.

    The step that keeps the first nonzero row v, with its first nonzero
    entry v_j as pivot, turns the unit vectors e_i, i != j, into
    v_j e_i - v_i e_j, so that basis is written down directly.

    Returns the basis left, which spans the vectors orthogonal to every
    row, the last pivot (1 when no row was kept) and the rank of the rows.
    """
    rows = iter(rows)
    for v in rows:
        j = next((i for i, a in enumerate(v) if a), None)
        if j is not None:
            break
    else:
        return _unit_rows(k), 1, 0
    p = v[j]
    basis = [[p if t == i else -v[i] if t == j else 0 for t in range(k)]
             for i in range(k) if i != j]
    prev, kept = p, 1
    for v in rows:
        if not basis:
            break
        step = _cofactor_step(basis, prev, v)
        if step is not None:
            basis, prev = step
            kept += 1
    return basis, prev, kept


def _integer_kernel(rows: Sequence[Sequence[int]], k: int) -> list[tuple[int, list[int]]]:
    """The kernel of integer rows of length k as their reduced row echelon
    form gives it, in integers.

    The columns go through ``_cofactor_step`` in order, and the ones it
    keeps, each independent of those before it, are the echelon form's
    pivot columns. A free column f depends on the pivots before it, which
    are independent, so ``_cofactor_basis`` over the rows restricted to
    those pivots and f leaves one vector y, with y_f != 0. Signed so that
    y_f > 0, y / y_f is the basis column of f: 1 at f, the negated echelon
    entry at each pivot and 0 elsewhere, since it is the one kernel vector
    that is 1 at f and 0 at the other free columns.

    Returns the pairs (f, y), y of length k, in increasing order of the
    free column f; the other columns are the pivots.
    """
    basis, prev, pivots, kernel = _unit_rows(len(rows)), 1, [], []
    for f in range(k):
        step = _cofactor_step(basis, prev, [row[f] for row in rows])
        if step is not None:
            basis, prev = step
            pivots.append(f)
            continue
        keep = pivots + [f]
        (y,), _, _ = _cofactor_basis(([row[i] for i in keep] for row in rows), len(keep))
        sign = 1 if y[-1] > 0 else -1
        column = [0] * k
        for i, x in zip(keep, y):
            column[i] = sign * x
        kernel.append((f, column))
    return kernel


SparseRows = dict[int, dict[int, Fraction]]


def _sparse_rows(a: Matrix) -> SparseRows:
    """The nonzero entries of ``a`` as {row: {column: value}}, 0-based."""
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a.data)}


def _congruent_rows(rows: SparseRows) -> tuple[SparseRows, list[int]]:
    """The square matrix a held by the sparse ``rows`` (rationals, 0-based,
    every row index from 0 to n-1 present in order) as the integer sparse
    rows of the congruent matrix C a C, C = diag(c) with c_u the lcm of the
    denominators of row u, and c.

    c_u a_uw is an integer, so every entry c_u a_uw c_w is one; each c_u is
    positive, so C a C has the rank, the inertia and the zero pattern of
    ``a``, and it is symmetric exactly when ``a`` is.
    """
    scale = [math.lcm(*[x.denominator for x in row.values()]) for row in rows.values()]
    return {u: {w: x.numerator * (cu // x.denominator) * scale[w] for w, x in row.items()}
            for (u, row), cu in zip(rows.items(), scale)}, scale


def _quotient(a, b):
    """a / b for rationals a and b != 0, ints or Fractions: an int when the
    quotient is one, else a Fraction. Two ints cost one ``divmod`` and, when
    it leaves a remainder, one Fraction; any other pair is divided as
    Fractions. Every division of ``_sparse_factor`` goes through here, and
    no ``/`` is applied to two ints."""
    if type(a) is int and type(b) is int:
        q, rem = divmod(a, b)
        return Fraction(a, b) if rem else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


class Elimination(NamedTuple):
    """What ``_sparse_factor`` finds along its order.

    ``first_zero`` is the 1-based step of the first zero pivot, None when
    there is none. ``steps`` holds each nonzero 1x1 step as (v, p, row), p
    the pivot and row v's other entries when it was eliminated, in the
    scale of the matrix eliminated: the unit column of the step is 1 at v
    and a / p at each entry a of the row.
    """

    rank: int
    psd: bool
    first_zero: int | None
    steps: list[tuple[int, int | Fraction, dict[int, int | Fraction]]]

    @property
    def generic(self) -> bool:
        """Whether the first ``rank`` leading principal minors in the order
        are nonzero."""
        return self.first_zero is None or self.first_zero > self.rank


def _schur_update(work: SparseRows, gone: Sequence[int], keys: Sequence[int],
                  entry: Callable[[int, int], int | Fraction]) -> None:
    """Drop the eliminated indices ``gone`` from the rows ``keys`` of the
    symmetric ``work``, then subtract ``entry(i, k)``, k >= i, from its
    entries (w_i, w_k) and (w_k, w_i), w = ``keys``: each symmetric pair is
    computed once, and zeros are dropped."""
    for i, w in enumerate(keys):
        wrow = work[w]
        for v in gone:
            wrow.pop(v, None)
        for k in range(i, len(keys)):
            x = keys[k]
            y = wrow.get(x, 0) - entry(i, k)
            if y:
                wrow[x] = work[x][w] = y
            else:
                wrow.pop(x, None)
                work[x].pop(w, None)


def _sparse_factor(rows: SparseRows, order: Sequence[int]) -> Elimination:
    """Symmetric exchange-free elimination over sparse rows, in ``order``.

    ``rows`` holds the entries of a symmetric matrix M by row, zeros
    omitted or not, as ints where it can: ``psdize_stress`` passes
    M = C S C for a stress S and C a diagonal of positive integers, which
    has S's rank and inertia by Sylvester's law, and whose leading
    principal minors in any order are S's times a product of c_v^2 > 0.
    ``order`` lists every row index once.

    A nonzero pivot p at v is eliminated: each entry (u, w) of v's
    remaining neighbours loses f_u a_vw, f_u = a_uv / p, so only the clique
    they span changes, and along a perfect elimination ordering of the
    matrix's pattern nothing fills in. A zero pivot over an all-zero row
    removes v unchanged. A zero pivot over a nonzero entry a = a_vu
    eliminates the block {v, u} instead (Bunch & Parlett's 2x2 pivot):
    [[0, a], [a, d]] has determinant -a^2 < 0, so by Haynsworth's inertia
    additivity the step adds 2 to the rank and one negative eigenvalue;
    entry (i, k) loses (a (x_i y_k + y_i x_k) - d x_i x_k) / a^2, x and y
    the entries at v and u.

    Every division is one ``_quotient``: an int when it is exact, else a
    Fraction, so the pass is exact either way. On a row of ints, with g
    the gcd of p and the row, f_u a_vw = (a_uv / g)(a_vw / g) t for
    t = g / (p / g), one quotient per step. When t is an int no update
    divides at all: on the congruent rows of a Gram stress Z Z^T along an
    ordering Z is unit-triangular in, pivot k is c_v^2 and row v holds the
    c_v c_w z_wk, so t is an int whenever every c_w z_wk is one.
    Otherwise each update is the quotient of (a_uv / g)(a_vw / g) t_num by
    t_den, an int whenever it is exact. On a row that holds a Fraction,
    each f_u is one quotient and each update the product f_u a_vw.

    So the pass always completes: the rank is the number of nonzero 1x1
    pivots plus 2 per block, and the matrix is PSD exactly when there is no
    block and every pivot is positive. Up to the first zero pivot, the
    pivots are the ratios of successive leading principal minors in the
    order, so the profile is generic exactly when that zero comes after
    step ``rank``. With no block, M is L D L^T with L the unit columns of
    the steps and D their pivots.
    """
    work = {v: {w: x for w, x in row.items() if x} for v, row in rows.items()}
    if sorted(order) != sorted(work):
        raise DimensionMismatch("the order must list every row index exactly once")
    steps = []
    blocks = 0
    first_zero = None
    for step, v in enumerate(order, 1):
        if v not in work:  # the partner of an earlier block
            continue
        row = work.pop(v)
        pivot = row.pop(v, 0)
        if pivot:
            keys, values = list(row), list(row.values())
            if type(pivot) is int and all(type(a) is int for a in values):
                g = math.gcd(pivot, *values)
                parts = [a // g for a in values]
                ratio = _quotient(g, pivot // g)
                if type(ratio) is int:
                    entry = lambda i, k: parts[i] * parts[k] * ratio
                else:
                    num, den = ratio.numerator, ratio.denominator
                    entry = lambda i, k: _quotient(parts[i] * parts[k] * num, den)
            else:
                factors = [_quotient(a, pivot) for a in values]
                entry = lambda i, k: factors[i] * values[k]
            _schur_update(work, [v], keys, entry)
            steps.append((v, pivot, row))
            continue
        if first_zero is None:
            first_zero = step
        if not row:
            continue
        u, a = next(iter(row.items()))
        urow = work.pop(u)
        d = urow.pop(u, 0)
        del row[u], urow[v]
        keys = list({**row, **urow})
        x = [row.get(w, 0) for w in keys]
        y = [urow.get(w, 0) for w in keys]
        a2 = a * a
        _schur_update(work, [v, u], keys, lambda i, k: _quotient(
            a * (x[i] * y[k] + y[i] * x[k]) - d * x[i] * x[k], a2))
        blocks += 1
    return Elimination(len(steps) + 2 * blocks,
                       not blocks and all(p > 0 for _, p, _ in steps),
                       first_zero, steps)


def rank(a: Matrix) -> int:
    """Rank, by ``_cofactor_basis`` over the rows cleared of denominators
    (``_integer_row``), or over their columns when there are more columns
    than rows: the basis then starts with min(rows, cols) vectors."""
    rows = [_integer_row(row)[0] for row in a.data]
    if a.cols > a.rows:
        rows = list(zip(*rows))
    return _cofactor_basis(rows, min(a.rows, a.cols))[2]
