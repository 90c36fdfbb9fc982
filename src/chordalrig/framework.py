"""Bar frameworks: rational point configurations on a graph, their Gale
matrices and equilibrium stresses.

A framework pairs a connected graph with one point per vertex; the points
must affinely span the ambient space. The extended configuration matrix
stacks each point over a row of ones; its kernel (the Gale space) carries
all stress matrices: S is a stress exactly when it is symmetric, kills the
extended configuration, and vanishes on non-edges. A Gale matrix Z, whose
columns span the Gale space, is held as integer columns (``GaleColumns``,
each column of Z over its pivot entry), and so is the Gram stress Z Z^T
until its entries are read; each entry is then summed over the columns
that meet it alone. Fraction matrices are views, built when first read.

Affine independence is decided on the points lifted to integer rows
l (p, 1), which a ``Framework`` computes once and keeps for every integer
check on its points. A run of such rows carries a fraction-free cofactor
basis (``exactmat._cofactor_step``, the library's one integer
elimination): the vectors orthogonal to every row so far, one fewer per
row, whose entries are minors of those rows. The span check and
``affinely_independent`` read the rank of the lifted rows off one pass
(``exactmat._cofactor_basis``): dim+1 for the span, one per point for
independence. The general-position sweep walks the prefixes of the
(dim+1)-subsets depth first, so each prefix's basis is shared by all its
extensions. A prefix of dim-1 rows has two basis vectors left; it costs
one projection onto them per later point, and its dependent pairs are
found by bucketing the projections by direction, not by one dot product
per subset.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

from .exactmat import (
    DimensionMismatch,
    Matrix,
    SparseRows,
    _cofactor_basis,
    _cofactor_step,
    _congruent_rows,
    _integer_kernel,
    _integer_row,
    _sparse_factor,
    _sparse_rows,
    _unit_rows,
    rank,
)
from .graphs import Graph, Ordering, gen_ktree

DEFAULT_POSITION_CAP = 200_000


class FrameworkError(Exception):
    pass


class DegenerateSpan(FrameworkError):
    """The points do not affinely span the ambient space."""


class NoGaleMatrix(FrameworkError):
    """Simplex frameworks (n = dim + 1) have a trivial Gale space."""


class NotEquilibrium(FrameworkError):
    pass


class InvalidStressMatrix(FrameworkError):
    pass


class GraphMismatch(FrameworkError):
    pass


class SizeMismatch(FrameworkError):
    pass


class SizeCapExceededError(FrameworkError):
    pass


def _coerce_point(p, dim: int | None) -> tuple[Fraction, ...]:
    # Fractions are immutable, so one is kept as it is, not copied
    pt = tuple(x if type(x) is Fraction else Fraction(x) if not isinstance(x, float)
               else _reject_float(x) for x in p)
    if dim is not None and len(pt) != dim:
        raise DimensionMismatch(f"point {pt} has {len(pt)} coordinates, expected {dim}")
    return pt


def _reject_float(x):
    raise TypeError("float coordinates are not allowed; use Fraction, int or string")


class Framework:
    """A connected graph together with one rational point per vertex."""

    __slots__ = ("graph", "dim", "points", "_lifted")

    def __init__(self, graph: Graph, dim: int, points: Sequence[Sequence]):
        if dim < 1:
            raise FrameworkError("ambient dimension must be at least 1")
        if len(points) != graph.n:
            raise FrameworkError(f"{len(points)} points for {graph.n} vertices")
        self.graph = graph
        self.dim = dim
        self.points = tuple(_coerce_point(p, dim) for p in points)
        if graph.n < dim + 1:
            raise DegenerateSpan(f"{graph.n} points cannot affinely span dimension {dim}")
        if not graph.is_connected():
            raise FrameworkError("framework graph must be connected")
        # each point lifted once, for every integer check that reads them
        self._lifted = tuple(map(_lift, self.points))
        if _cofactor_basis(self._lifted, dim + 1)[2] != dim + 1:
            raise DegenerateSpan("points do not affinely span the ambient space")

    @classmethod
    def _moved(cls, fw: "Framework", moved: Mapping[int, tuple[int, ...]]) -> "Framework":
        """``fw`` with the point of each 0-based vertex v in ``moved`` set to
        the point whose lift (``_lift``) is ``moved[v]``: X / D for the lift
        (X, D). The graph object and every other point and lift are
        ``fw``'s own, so nothing is coerced, lifted or searched again; only
        the span check is made, raising DegenerateSpan as ``__init__``."""
        out = cls.__new__(cls)
        out.graph, out.dim = fw.graph, fw.dim
        points, lifted = list(fw.points), list(fw._lifted)
        for v, q in moved.items():
            den = q[-1]
            points[v] = tuple(Fraction(x, den) for x in q[:-1])
            lifted[v] = q
        out.points, out._lifted = tuple(points), tuple(lifted)
        if _cofactor_basis(out._lifted, fw.dim + 1)[2] != fw.dim + 1:
            raise DegenerateSpan("points do not affinely span the ambient space")
        return out

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def rbar(self) -> int:
        """Dimension of the Gale space: n - dim - 1."""
        return self.n - self.dim - 1

    def point(self, v: int) -> tuple[Fraction, ...]:
        return self.points[v - 1]

    def __eq__(self, other):
        return (isinstance(other, Framework) and self.graph == other.graph
                and self.dim == other.dim and self.points == other.points)

    def __hash__(self):
        return hash((self.graph, self.dim, self.points))

    def __repr__(self):
        return f"Framework(n={self.n}, dim={self.dim})"


def affinely_independent(points: Sequence[Sequence]) -> bool:
    """Whether the points are affinely independent (no dimension assumed):
    the lifted points must have rank equal to their number."""
    pts = [_coerce_point(p, None) for p in points]
    if not pts:
        return True
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("points of differing dimension")
    return _cofactor_basis(map(_lift, pts), len(pts[0]) + 1)[2] == len(pts)


def _check_subset_cap(n: int, k: int, cap: int) -> None:
    total = math.comb(n, k)
    if total > cap:
        raise SizeCapExceededError(f"{total} subsets exceed the cap of {cap}")


def _first_dependent(lifted: Sequence[Sequence[int]], prefix: tuple[int, ...],
                     basis: list[list[int]], prev: int) -> tuple[int, ...] | None:
    """The lexicographically first dependent extension of ``prefix`` (rising
    0-based indices into ``lifted``, with ``basis`` and ``prev`` as
    ``_cofactor_step`` left them) by len(basis) >= 2 later rows; None when
    every extension is independent. A dependent prefix makes its first
    extension dependent; with two basis vectors left, the extensions by a
    pair are decided by ``_first_dependent_pair``."""
    start = prefix[-1] + 1 if prefix else 0
    if len(basis) == 2:
        pair = _first_dependent_pair(lifted, start, *basis)
        return None if pair is None else prefix + pair
    for i in range(start, len(lifted) - len(basis) + 1):
        step = _cofactor_step(basis, prev, lifted[i])
        if step is None:
            return prefix + tuple(range(i, i + len(basis)))
        found = _first_dependent(lifted, prefix + (i,), *step)
        if found is not None:
            return found
    return None


def _first_dependent_pair(lifted: Sequence[Sequence[int]], start: int,
                          a: Sequence[int], b: Sequence[int]) -> tuple[int, int] | None:
    """The lexicographically first pair i < j of indices from ``start`` on
    whose rows extend a run to a dependent one, where a and b span the
    vectors orthogonal to the run; None when there is none.

    The run is independent, so projecting a row q to (a.q, b.q) in Z^2 has
    the span of the run as its kernel: the run plus q, q' is dependent
    exactly when one projection is zero or the two are parallel. Each
    nonzero projection is divided by its gcd, signed so that its first
    nonzero entry is positive, and keyed by that direction. Scanning
    backwards, each i is paired with the smallest later index of the same
    direction or of a zero projection (any later index when its own is
    zero); the last i paired is the first in lexicographic order.
    """
    first_along: dict[tuple[int, int], int] = {}
    first_zero = None
    found = None
    for i in range(len(lifted) - 1, start - 1, -1):
        q = lifted[i]
        x, y = sum(map(mul, a, q)), sum(map(mul, b, q))
        if x or y:
            g = math.gcd(x, y)
            if x < 0 or x == 0 and y < 0:
                g = -g
            key = (x // g, y // g)
            j = first_along.get(key)
            first_along[key] = i
            if first_zero is not None and (j is None or first_zero < j):
                j = first_zero
        else:
            j = i + 1 if i + 1 < len(lifted) else None
            first_zero = i
        if j is not None:
            found = (i, j)
    return found


def is_general_position(fw: Framework, cap: int | None = None
                        ) -> tuple[bool, tuple[int, ...] | None]:
    """Check that every dim+1 points are affinely independent.

    Points p_1..p_k are affinely independent exactly when the k x k matrix
    of rows (p_i, 1) is nonsingular. The sweep reads the integer rows
    (l p, l) that the framework lifted once, with l the lcm of each point's
    denominators; scaling a row does not change whether the determinant
    vanishes. The prefixes of the k-subsets are walked depth first in
    lexicographic order, and each extends its parent's fraction-free
    cofactor basis by one row (``_cofactor_step``). With k-2 rows chosen
    two vectors are left; each later point costs one projection onto them,
    and the dependent pairs among those points are found by bucketing the
    projections by direction (``_first_dependent_pair``). So each
    (k-2)-prefix costs one projection per later point, not one dot product
    per subset, and no subset pays for a determinant of its own.

    The first violator in lexicographic order is returned as 1-based
    vertices. Raises SizeCapExceededError when there are more than ``cap``
    k-subsets, C(n, k); None means ``DEFAULT_POSITION_CAP``. The cap counts
    the subsets decided, not the projections made.
    """
    k = fw.dim + 1
    _check_subset_cap(fw.n, k, DEFAULT_POSITION_CAP if cap is None else cap)
    witness = _first_dependent(fw._lifted, (), _unit_rows(k), 1)
    if witness is None:
        return True, None
    return False, tuple(v + 1 for v in witness)


# Integer Gale columns {0-based vertex: int}: nonzero entries only, the
# pivot vertex first with a positive entry, and gcd 1. The column of Z is
# the column divided by its pivot entry, which is therefore the lcm of the
# denominators of that column of Z.
GaleColumns = list[dict[int, int]]


class GaleMatrix:
    """n x rbar matrix Z whose columns span the kernel of the extended
    configuration matrix; row v corresponds to vertex v.

    Z is held by its integer columns (``GaleColumns``): column j of Z is
    ``columns[j]`` divided by its pivot entry. The dense ``matrix`` of
    Fractions is built on first read and then kept; it is the one place
    where a Gale matrix makes Fractions. Gale matrices compare by n and
    their columns.
    """

    __slots__ = ("columns", "n", "_matrix")

    def __init__(self, columns: GaleColumns, n: int):
        self.columns, self.n, self._matrix = columns, n, None

    @property
    def rbar(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            zero = Fraction(0)
            dense = [[zero] * self.rbar for _ in range(self.n)]
            for j, col in enumerate(self.columns):
                d = next(iter(col.values()))
                for u, x in col.items():
                    dense[u][j] = Fraction(x, d)
            self._matrix = Matrix._of(tuple(map(tuple, dense)), self.n, self.rbar)
        return self._matrix

    def __eq__(self, other):
        if not isinstance(other, GaleMatrix):
            return NotImplemented
        return self.n == other.n and self.columns == other.columns

    def __repr__(self):
        return f"GaleMatrix(n={self.n}, rbar={self.rbar})"


def gale_matrix(fw: Framework) -> GaleMatrix:
    """Canonical Gale matrix: the kernel basis that the reduced row echelon
    form of the extended configuration matrix gives, whose column v is the
    point of v over a 1. Raises NoGaleMatrix for simplex frameworks.

    Each row of that matrix, cleared of denominators (``_integer_row``),
    keeps the row space, and ``_integer_kernel`` gives one integer vector y
    per free column f of the echelon form, with y_f > 0. The basis column
    of f is y / y_f: 1 at f, the negated echelon entry at each pivot column
    and 0 elsewhere. It is held as y divided by its gcd, f first
    (``GaleColumns``).
    """
    if fw.rbar == 0:
        raise NoGaleMatrix("simplex framework has no Gale matrix")
    rows = [_integer_row(coords)[0] for coords in zip(*fw.points)] + [[1] * fw.n]
    columns = []
    for f, y in _integer_kernel(rows, fw.n):
        g = math.gcd(*y)
        columns.append({f: y[f] // g, **{u: x // g for u, x in enumerate(y) if x and u != f}})
    assert len(columns) == fw.rbar
    return GaleMatrix(columns, fw.n)


class StressWeights:
    """Scalar weights on the edges of a graph, keyed by unordered pair."""

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[tuple[int, int], object]):
        norm = {}
        for (u, v), w in weights.items():
            if u == v:
                raise FrameworkError(f"loop weight at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in norm:
                raise FrameworkError(f"duplicate weight for edge {key}")
            norm[key] = Fraction(w) if not isinstance(w, float) else _reject_float(w)
        self.weights = norm

    def __getitem__(self, pair: tuple[int, int]) -> Fraction:
        u, v = pair
        return self.weights[(min(u, v), max(u, v))]

    def items(self):
        return sorted(self.weights.items())

    def __eq__(self, other):
        return isinstance(other, StressWeights) and self.weights == other.weights

    def __repr__(self):
        return f"StressWeights({dict(self.items())})"


def _check_weight_support(fw: Framework, omega: StressWeights) -> None:
    if set(omega.weights) != set(fw.graph.edges):
        raise FrameworkError("weights must be defined exactly on the edge set")


def verify_equilibrium_stress(fw: Framework, omega: StressWeights
                              ) -> tuple[bool, int | None]:
    """Check the per-vertex balance sum of w_ij (p_i - p_j) over edges at i.

    Returns (True, None) or (False, first violating vertex).
    """
    _check_weight_support(fw, omega)
    for i in range(1, fw.n + 1):
        pi = fw.point(i)
        total = [Fraction(0)] * fw.dim
        for j in fw.graph.neighbors(i):
            w = omega[(i, j)]
            pj = fw.point(j)
            for c in range(fw.dim):
                total[c] += w * (pi[c] - pj[c])
        if any(x != 0 for x in total):
            return False, i
    return True, None


def _gram_entries(columns: GaleColumns, n: int) -> SparseRows:
    """The nonzero entries of the Gram product S = Z Z^T of integer Gale
    columns (``GaleColumns``) of n vertices, {row: {column: Fraction}},
    every row from 0 to n-1 present in order. Column j of Z is w_j / d_j,
    d_j the pivot entry of w_j, so S_uw sums w_uj w_wj / d_j^2 over the
    columns j that hold both u and w: in integers over the lcm of those
    d_j^2 alone (``_integer_sum``). An entry whose terms cancel is left out.
    """
    terms: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for col in columns:
        items = list(col.items())
        d2 = items[0][1] ** 2
        for k, (u, a) in enumerate(items):
            for w, b in items[k:]:
                terms.setdefault((u, w) if u <= w else (w, u), []).append((a * b, d2))
    rows: SparseRows = {v: {} for v in range(n)}
    for (u, w), pairs in terms.items():
        num, den = _integer_sum(pairs)
        if num:
            rows[u][w] = rows[w][u] = Fraction(num, den)
    return rows


def _integer_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of the x / d of the pairs (x, d), d > 0, as one pair over
    the lcm of the d, added pairwise in rounds: a balanced tree, so the
    long entries of a vertex that many columns meet are not summed term
    after term."""
    while len(pairs) > 1:
        sums = []
        for (x, d), (y, e) in zip(pairs[::2], pairs[1::2]):
            g = math.gcd(d, e)
            sums.append((x * (e // g) + y * (d // g), d // g * e))
        pairs = sums + pairs[2 * len(sums):]
    return pairs[0]


class StressMatrix:
    """Symmetric n x n matrix that kills the extended configuration and
    vanishes on non-edges; diagonal entries are the incident weight sums.

    A stress S is its nonzero entries, ``nonzero_rows()``: {row: {column:
    value}}, 0-based, every index from 0 to n-1 present, no zero stored.
    Two read-only views come from them: ``congruent``, the integer sparse
    rows of M = C S C and the diagonal c of C, c_u the lcm of the
    denominators of row u (``exactmat._congruent_rows``), and the dense
    ``matrix``. Each is built on first read and then kept, from what a
    constructor holds: ``StressMatrix(matrix)`` keeps ``matrix`` and its
    nonzero entries, ``from_rows`` its sparse rows, and
    ``from_gale_columns`` integer Gale columns, whose Gram entries are
    summed (``_gram_entries``) when first read. Stresses compare and hash
    by n and their nonzero entries.
    """

    __slots__ = ("n", "_columns", "_congruent", "_rows", "_matrix")

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols:
            raise DimensionMismatch(f"stress must be square, got {matrix.rows}x{matrix.cols}")
        self._hold(matrix.rows, None, _sparse_rows(matrix), matrix)

    @classmethod
    def from_rows(cls, rows: SparseRows) -> "StressMatrix":
        """The stress with these nonzero entries, {row: {column: rational}},
        0-based, every row index from 0 to n-1 present in order."""
        s = cls.__new__(cls)
        s._hold(len(rows), None, rows, None)
        return s

    @classmethod
    def from_gale_columns(cls, columns: GaleColumns, n: int) -> "StressMatrix":
        """The Gram stress Z Z^T of the integer Gale columns ``columns``
        (``GaleColumns``) of n vertices, taken as they are: the caller has
        checked that their Gram product is a stress
        (``certify._check_gale_columns``)."""
        s = cls.__new__(cls)
        s._hold(n, columns, None, None)
        return s

    def _hold(self, n: int, columns: GaleColumns | None, rows: SparseRows | None,
              matrix: Matrix | None) -> None:
        self.n = n
        self._columns, self._congruent, self._rows, self._matrix = columns, None, rows, matrix

    @property
    def congruent(self) -> tuple[SparseRows, Sequence[int]]:
        if self._congruent is None:
            self._congruent = _congruent_rows(self.nonzero_rows())
        return self._congruent

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            zero = Fraction(0)
            dense = [[zero] * self.n for _ in range(self.n)]
            for u, row in self.nonzero_rows().items():
                out = dense[u]
                for w, x in row.items():
                    out[w] = x
            self._matrix = Matrix(dense, shape=(self.n, self.n))
        return self._matrix

    def nonzero_rows(self) -> SparseRows:
        """The nonzero entries of S as {row: {column: value}}, 0-based."""
        if self._rows is None:
            self._rows = _gram_entries(self._columns, self.n)
        return self._rows

    def __eq__(self, other):
        if not isinstance(other, StressMatrix):
            return NotImplemented
        return self.n == other.n and self.nonzero_rows() == other.nonzero_rows()

    def __hash__(self):
        return hash((self.n, frozenset((u, w, x) for u, row in self.nonzero_rows().items()
                                       for w, x in row.items())))

    def __repr__(self):
        return f"StressMatrix(n={self.n})"


def stress_from_omega(fw: Framework, omega: StressWeights) -> StressMatrix:
    """Assemble the stress matrix of equilibrium edge weights.

    Off-diagonal entries are the negated weights on edges and zero
    elsewhere; each diagonal entry is the sum of weights at that vertex.
    Raises NotEquilibrium when the weights do not balance.
    """
    ok, vertex = verify_equilibrium_stress(fw, omega)
    if not ok:
        raise NotEquilibrium(f"weights do not balance at vertex {vertex}")
    n = fw.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in fw.graph.neighbors(i):
            w = omega[(i, j)]
            rows[i - 1][j - 1] = -w
            rows[i - 1][i - 1] += w
    return StressMatrix(Matrix(rows))


def omega_from_stress(fw: Framework, s: StressMatrix) -> StressWeights:
    """Read the edge weights back off a stress matrix.

    Only the stress clauses are checked (symmetry, the non-edge zeros and
    the kernel, over the nonzero entries; no rank or PSD); a failed clause
    raises InvalidStressMatrix listing every failure.
    """
    rows, scale = _sized_congruent(fw, s)
    symmetric, non_edge, kernel_ok = _stress_clauses(fw, rows, scale)
    failures = _clause_failures(symmetric, non_edge is None, kernel_ok)
    if failures:
        raise InvalidStressMatrix(f"not a stress matrix: {failures}")
    return StressWeights({(u, v): Fraction(-rows[u - 1].get(v - 1, 0),
                                           scale[u - 1] * scale[v - 1])
                          for u, v in fw.graph.edges})


@dataclass(frozen=True)
class StressReport:
    """Independent verdicts on each stress-matrix clause; nothing
    short-circuits, so a failed clause never hides another."""

    symmetric: bool
    pattern_ok: bool
    kernel_ok: bool
    rank: int
    generic_rank_profile: bool
    psd: bool

    @property
    def is_stress_matrix(self) -> bool:
        return self.symmetric and self.pattern_ok and self.kernel_ok

    def failures(self) -> list[str]:
        return _clause_failures(self.symmetric, self.pattern_ok, self.kernel_ok)


def _clause_failures(symmetric: bool, pattern_ok: bool, kernel_ok: bool) -> list[str]:
    out = []
    if not symmetric:
        out.append("not symmetric")
    if not pattern_ok:
        out.append("nonzero on a non-edge")
    if not kernel_ok:
        out.append("does not kill the extended configuration")
    return out


def _first_non_edge(graph: Graph, rows: SparseRows) -> tuple[int, int] | None:
    """The lexicographically first 1-based non-edge (i, j), i < j, at which
    either entry of the matrix held by ``rows`` (0-based, as in
    ``exactmat``) is nonzero; None when the matrix vanishes off the edges."""
    return min(((min(u, w) + 1, max(u, w) + 1)
                for u, row in rows.items() for w, x in row.items()
                if x and u != w and not graph.has_edge(u + 1, w + 1)), default=None)


def _stress_clauses(fw: Framework, rows: SparseRows, scale: Sequence[int]
                    ) -> tuple[bool, tuple[int, int] | None, bool]:
    """The stress clauses of a matrix S held as the integer sparse rows of
    M = C S C, C = diag(``scale``) of positive integers, over M's stored
    entries only: whether S is symmetric, its first non-edge nonzero
    (``_first_non_edge``), and whether it kills the extended
    configuration, i.e. whether each of its columns lies in the Gale space.

    M_uw = c_u S_uw c_w, so S is symmetric and zero where M is. With the
    lifted points L_u = l_u (p_u, 1), column w of S lies in the Gale space
    exactly when sum_u (M_uw / (c_u l_u)) L_u = 0, the sum of
    S_uw (p_u, 1) times c_w. These quotients are rationals; each column's
    are cleared to integers here (``_cleared``), since ``_in_gale_space``
    takes integers only. At integer points (l_u = 1) a symmetric S needs
    no clearing: M_uw / c_u = c_w S_wu is an integer
    (``exactmat._congruent_rows``). A symmetric M's columns are its rows.

    These clauses check a stress that comes in from outside: the input of
    ``validate_stress_matrix``, ``omega_from_stress`` and
    ``certify.psdize_stress``. A stress that ``certify`` builds is the Gram
    product of Gale columns whose own checks give every clause
    (``certify._check_gale_columns``), and is not checked again."""
    symmetric = all(rows[w].get(u, 0) == x for u, row in rows.items() for w, x in row.items())
    if symmetric:
        columns = rows
    else:
        columns: SparseRows = {}
        for u, row in rows.items():
            for w, x in row.items():
                columns.setdefault(w, {})[u] = x
    lifted = fw._lifted
    weights = [c * point[-1] for c, point in zip(scale, lifted)]
    kernel_ok = _in_gale_space(lifted, (_cleared(col, weights) for col in columns.values()))
    return symmetric, _first_non_edge(fw.graph, rows), kernel_ok


def _cleared(col: Mapping[int, int], weights: Sequence[int]) -> dict[int, int]:
    """The quotients M_uw / weights[u] of the column {u: M_uw}, scaled to
    integers by the lcm of their denominators (``_integer_row``), which is
    1 when every quotient is exact; only an inexact one is a Fraction."""
    quotients = [x // d if x % d == 0 else Fraction(x, d)
                 for x, d in zip(col.values(), [weights[u] for u in col])]
    return dict(zip(col, _integer_row(quotients)[0]))


def _lift(p: Sequence[Fraction]) -> tuple[int, ...]:
    """The point p lifted to the integer vector l (p, 1), with l the lcm of
    its denominators."""
    ints, l = _integer_row(p)
    return (*ints, l)


def _in_gale_space(lifted: Sequence[Sequence[int]],
                   vectors: Iterable[Mapping[int, int]]) -> bool:
    """Whether each vector {0-based vertex: y} of integers has
    sum y_v L_v = 0 over the points as ``Framework`` lifts them, L_v =
    l_v (p_v, 1): one integer dot product per coordinate. A dependency
    with coefficients x_v of the points (p_v, 1) themselves is passed as
    y_v = x_v / l_v, cleared of denominators by the caller.
    """
    for vec in vectors:
        coeffs = vec.values()
        if any(sum(map(mul, coeffs, coord)) for coord in zip(*[lifted[v] for v in vec])):
            return False
    return True


def _sized_congruent(fw: Framework, s: StressMatrix) -> tuple[SparseRows, Sequence[int]]:
    """``s.congruent``, once s is checked to be n x n for the framework's n."""
    if s.n != fw.n:
        raise DimensionMismatch(f"stress must be {fw.n}x{fw.n}, got {s.n}x{s.n}")
    return s.congruent


def validate_stress_matrix(fw: Framework, s: StressMatrix) -> StressReport:
    """Evaluate every stress-matrix clause on a square matrix held as a
    ``StressMatrix``, which need not be a stress; one whose size is not the
    framework's raises DimensionMismatch.

    Symmetry, the non-edge zeros and the kernel are checked over the
    nonzero entries of its congruent integer rows (``s.congruent``). For a
    symmetric matrix one ``_sparse_factor`` pass in label order yields the
    rank, the generic rank profile and positive semidefiniteness. That pass
    runs on the matrix's own nonzero entries (``s.nonzero_rows()``): in
    label order it fills in, and each filled entry of C S C would also
    carry the factor c_u c_w. A matrix that is not symmetric gets its rank
    alone, by ``rank`` on the dense view, and fails both other clauses.
    """
    rows, scale = _sized_congruent(fw, s)
    symmetric, non_edge, kernel_ok = _stress_clauses(fw, rows, scale)
    if symmetric:
        result = _sparse_factor(s.nonzero_rows(), range(fw.n))
        rk, grp, psd = result.rank, result.generic, result.psd
    else:
        rk, grp, psd = rank(s.matrix), False, False
    return StressReport(symmetric, non_edge is None, kernel_ok, rk, grp, psd)


def _triangular_violation(columns: GaleColumns, graph: Graph, peo: Ordering
                          ) -> tuple[int, int] | None:
    """The first (row-major) position pair (i, j) at which the integer Gale
    columns (``GaleColumns``, in original labels) leave the triangular
    shape along the elimination ordering ``peo``: column j nonzero only at
    the vertex v in position j, where it is positive, and at later
    neighbours of v. A column of Z, the column divided by that entry, then
    has unit diagonal, zeros above it and zeros at non-neighbours below.
    A missing or non-positive entry at v is reported as (j, j)."""
    pos = peo._pos
    bad = []
    for j, col in enumerate(columns, 1):
        v = peo.vertex_at(j) if j <= len(peo) else None
        if v is not None and col.get(v - 1, 0) <= 0:
            bad.append((j, j))
        nbrs = graph.neighbors(v) if v is not None else ()
        for u, x in col.items():
            i = pos[u + 1]
            if x and i != j and (i < j or u + 1 not in nbrs):
                bad.append((i, j))
    return min(bad, default=None)


LiftedPair = tuple[list[bool], Sequence[Sequence[int]], Sequence[Sequence[int]]]


def _scaled_pair(a: Framework, b: Framework) -> LiftedPair:
    """Which points keep their coordinates from a to b, and the points of
    both as their frameworks hold them lifted, each scaled to integers by
    its own factor l (``_lift``); no common denominator is taken. Lifting
    is canonical, so a point keeps its coordinates exactly when it keeps
    its lift."""
    la, lb = a._lifted, b._lifted
    return [p == q for p, q in zip(la, lb)], la, lb


def _lifted_sq_dist(p: Sequence[int], q: Sequence[int]) -> tuple[int, int]:
    """The squared distance of the points lifted to P = l (x, 1) and
    Q = m (y, 1), as integers (s, d) with |x - y|^2 = s / d: s = |P - Q|^2
    and d = l^2 when l = m, else s = |m P - l Q|^2 and d = (l m)^2. The
    last coordinate of either difference is 0, so both sums run over the
    whole lifts."""
    l, m = p[-1], q[-1]
    if l == m:
        diff = list(map(sub, p, q))
        return sum(map(mul, diff, diff)), l * l
    diff = [m * x - l * y for x, y in zip(p, q)]
    return sum(map(mul, diff, diff)), (l * m) ** 2


def _same_sq_dists(pair: LiftedPair, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether every 1-based pair is at the same squared distance in the two
    frameworks of ``pair`` (``_scaled_pair``): each distance is taken on
    its own two lifts (``_lifted_sq_dist``) and the two are compared by
    cross-multiplying, so no integer grows with the number of points. A
    pair whose two ends keep their coordinates is skipped: its distances
    agree."""
    fixed, la, lb = pair
    for u, v in pairs:
        u, v = u - 1, v - 1
        if fixed[u] and fixed[v]:
            continue
        s, d = _lifted_sq_dist(la[u], la[v])
        t, e = _lifted_sq_dist(lb[u], lb[v])
        if s * e != t * d:
            return False
    return True


def frameworks_equivalent(a: Framework, b: Framework) -> bool:
    """Same squared length on every edge, each compared in integers on its
    own two lifts per framework (``_same_sq_dists``). The graphs must agree;
    ambient dimensions may differ."""
    if a.graph != b.graph:
        raise GraphMismatch("equivalence requires identical graphs")
    return _same_sq_dists(_scaled_pair(a, b), a.graph.edges)


def frameworks_congruent(a: Framework, b: Framework) -> bool:
    """Same squared distance on every vertex pair, adjacent or not, each
    compared as in ``frameworks_equivalent``."""
    if a.n != b.n:
        raise SizeMismatch("congruence requires the same vertex count")
    return _same_sq_dists(_scaled_pair(a, b), itertools.combinations(range(1, a.n + 1), 2))


def random_general_position_framework(n: int, dim: int, seed: int) -> Framework:
    """Seeded (dim+1)-tree framework with integer points in general position.

    Coordinates are drawn uniformly from a box and resampled until every
    dim+1 points are affinely independent; the box widens on each retry.
    Deterministic for a fixed (n, dim, seed). The subset cap of the
    general-position sweep is checked before anything is built.
    """
    if n > dim >= 1:  # otherwise gen_ktree or Framework rejects the parameters
        _check_subset_cap(n, dim + 1, DEFAULT_POSITION_CAP)
    g = gen_ktree(n, dim + 1, seed)
    rng = random.Random(f"{n}/{dim}/{seed}/points")
    base = max(10, 4 * n)
    for attempt in range(500):
        bound = base + attempt * base
        pts = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(n)]
        try:
            fw = Framework(g, dim, pts)
        except DegenerateSpan:
            continue
        ok, _ = is_general_position(fw)
        if ok:
            return fw
    raise FrameworkError("could not sample a general-position configuration")
