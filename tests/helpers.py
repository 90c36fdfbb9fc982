"""Shared generators, brute-force checks and dense reference routines for
tests.

The generators build inputs with the library's own constructors (that part
is not under test here); the properties asserted about the outputs are
always checked against oracles or frozen values. ``zeros`` and
``extended_config_matrix`` build the zero matrix and the matrix whose
kernel is the Gale space, and ``gale_stress`` builds the stress
Z Psi Z^T of a chosen Psi. The small dense helpers ``submatrix``,
``scaled_matrix`` and ``rational_lists`` (a matrix written entry by
entry as rational strings) serve the tests and the reference routines;
the library needs none of them. The brute-force checks (leading
minors, all square submatrices, the zero pattern through dense
elimination on a graph relabelled to positions, the per-subset
general-position sweep, the unbucketed prefix sweep, the dense one-pass
rank profile) are used only by tests. The dense routines at the end are
the references that tests compare the library's elimination with; no
library path runs them: exchange-free Gaussian steps (``gauss_steps``,
``gauss_step_sequence``), integer Bareiss elimination with row exchanges
(``_int_determinant``), which gives ``determinant`` after clearing
denominators, the per-subset sweep and the Cramer Gale columns
(``gale_columns_by_cramer``), and ``psd_check`` (greatest-diagonal
pivoting, with a witness x^T A x < 0 when not PSD). ``eliminated`` rebuilds
``psdize_stress``'s staircase from its Gale matrix and ordering. Last
comes ``reference_sparse_factor``, the symmetric sparse elimination over
Fractions that ``exactmat._sparse_factor`` was before it ran on the
integer rows of a congruent matrix; the kernel is compared with it,
through ``factor_in_scale``, which reads the pivots and unit columns of
the input off the kernel's steps and the congruence scale. Unlike
``oracles``, all of this runs on the package's ``Matrix`` and integer
kernels.
"""

import collections
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from chordalrig import (
    Framework,
    GaleMatrix,
    Graph,
    Matrix,
    StressMatrix,
    chordal_connectivity,
    is_chordal,
    is_general_position,
    random_general_position_framework,
)
from chordalrig import certify
from chordalrig.certify import PreconditionViolated
from chordalrig.exactmat import (
    DimensionMismatch,
    ExactMatError,
    SparseRows,
    _cofactor_step,
    Elimination,
    _integer_row,
    _quotient,
    _schur_update,
    _sparse_factor,
    _sparse_rows,
    _unit_rows,
)
from chordalrig.framework import (
    DEFAULT_POSITION_CAP,
    DegenerateSpan,
    SizeCapExceededError,
    _first_non_edge,
)
from chordalrig.graphs import GraphError, Ordering, _later_neighbors, gen_ktree

# Guard for the combinatorial sweep below; overridable per call.
DEFAULT_SUBSET_CAP = 250_000


class SizeCapExceeded(ExactMatError):
    pass


def rand_fraction(rng, lo=-5, hi=5, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_symmetric_matrix(rng, n, lo=-5, hi=5, max_den=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rand_fraction(rng, lo, hi, max_den)
            rows[i][j] = rows[j][i] = x
    return Matrix(rows)


def chordal_pattern_matrix(rng, g):
    """Symmetric matrix vanishing exactly off the edges/diagonal of g,
    resampled until it has generic rank profile. Vertex v maps to row v."""
    n = g.n
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for v in range(1, n + 1):
            rows[v - 1][v - 1] = rand_fraction(rng)
        for u, v in g.edges:
            x = rand_fraction(rng)
            rows[u - 1][v - 1] = rows[v - 1][u - 1] = x
        m = Matrix(rows)
        if _sparse_factor(_sparse_rows(m), range(n)).generic:
            return m


def sample_points(g, dim, rng, base_bound=40):
    """Integer coordinates rejection-sampled to general position."""
    for attempt in range(300):
        bound = base_bound * (1 + attempt)
        pts = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(g.n)]
        try:
            fw = Framework(g, dim, pts)
        except Exception:
            continue
        if is_general_position(fw)[0]:
            return fw
    raise RuntimeError("sampling failed to reach general position")


def rational_points_framework(rng, n, r):
    """A (r+1)-tree with rational points whose denominators differ from
    point to point, so the integer lifts scale each point differently."""
    g = gen_ktree(n, r + 1, rng.randrange(10_000))
    while True:
        pts = [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(r)]
               for _ in range(n)]
        try:
            fw = Framework(g, r, pts)
        except DegenerateSpan:
            continue
        if is_general_position(fw)[0]:
            return fw


def relabelled(rng, fw):
    """The framework with its vertices relabelled at random, so that its
    perfect elimination orderings are seldom the identity."""
    label = rng.sample(range(1, fw.n + 1), fw.n)
    points = [None] * fw.n
    for v, p in enumerate(fw.points):
        points[label[v] - 1] = p
    graph = Graph(fw.n, [(label[u - 1], label[v - 1]) for u, v in fw.graph.edges])
    return Framework(graph, fw.dim, points)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)], shape=(rows, cols))


def rational_lists(m: Matrix) -> list[list[str]]:
    """The rows of ``m`` as rational strings, entry by entry."""
    return [[str(x) for x in row] for row in m.data]


def extended_config_matrix(fw: Framework) -> Matrix:
    """The (dim+1) x n matrix whose column v is the point of v over a 1;
    its kernel is the Gale space."""
    return Matrix([[p[c] for p in fw.points] for c in range(fw.dim)] + [[1] * fw.n])


def gale_stress(fw: Framework, z: GaleMatrix | Matrix, psi: Matrix) -> StressMatrix:
    """The stress Z Psi Z^T of a chosen Psi through the Gale matrix z, held
    as a ``GaleMatrix`` or as its dense matrix, the paper's factorization
    read forwards; asserts that it vanishes on the non-edges, so every
    input built this way is a stress."""
    if isinstance(z, GaleMatrix):
        z = z.matrix
    s = z * psi * z.transpose()
    assert _first_non_edge(fw.graph, _sparse_rows(s)) is None
    return StressMatrix(s)


def thin_to_low_connectivity(g, r, rng):
    """Delete edges, keeping the graph connected and chordal, until the
    connectivity drops to r or below."""
    while True:
        chord = is_chordal(g)
        assert chord.chordal
        if chordal_connectivity(g, chord.peo) <= r:
            return g
        candidates = []
        for e in g.edges:
            rest = [f for f in g.edges if f != e]
            h = Graph(g.n, rest)
            if h.is_connected() and is_chordal(h).chordal:
                candidates.append(e)
        assert candidates, "no chordality-preserving deletion available"
        u, v = candidates[rng.randrange(len(candidates))]
        g = Graph(g.n, [f for f in g.edges if f != (u, v)])


def moved_framework(rng, graph, base):
    """``base``'s points on ``graph``, one of them moved onto the line
    through two others; None when the result does not span."""
    pts = [list(p) for p in base.points]
    j, a, b = rng.sample(range(base.n), 3)
    t = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    pts[j] = [x + t * (y - x) for x, y in zip(pts[a], pts[b])]
    try:
        return Framework(graph, base.dim, pts)
    except DegenerateSpan:
        return None


def ur_moved_suite(count):
    """Seeded (r+1)-trees in R^2 and R^3, n = 10, one point moved."""
    for i in range(count):
        rng = random.Random(f"ur-moved/{i}")
        r = rng.choice((2, 3))
        base = random_general_position_framework(10, r, i)
        fw = moved_framework(rng, base.graph, base)
        if fw is not None:
            yield fw


def ngr_moved_suite(count):
    """Seeded r-trees in R^2 and R^3, connectivity r, one point moved."""
    for i in range(count):
        rng = random.Random(f"ngr-moved/{i}")
        r = rng.choice((2, 3))
        n = rng.randint(r + 3, 12)
        fw = moved_framework(rng, gen_ktree(n, r, i),
                             random_general_position_framework(n, r, i))
        if fw is not None:
            yield fw


def spy_order_calls(monkeypatch) -> "collections.Counter[str]":
    """Count, by name, the walks of an ordering, each of which builds its
    later-neighbour lists and checks them (``_peo_violation``), in every
    module that binds the name: ``certify``, ``cli`` and ``graphs``
    itself, so the walks inside ``is_peo``, ``is_chordal``, ``mcs_order``
    and ``_checked_later`` count too. A given ordering's lists are built
    by ``_later_neighbors``; a maximum cardinality search builds its
    ordering and their lists in one pass, ``_mcs_later``, counted as one
    walk under that name. Calls of the public ``mcs_order``, which runs
    that pass, are counted as well."""
    from chordalrig import cli, graphs
    calls: collections.Counter[str] = collections.Counter()
    for name in ("_later_neighbors", "_mcs_later", "_peo_violation", "mcs_order"):
        real = getattr(graphs, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (certify, cli, graphs):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def spy_matrix_shapes(monkeypatch) -> list[tuple[int, int]]:
    """The shapes of the ``Matrix`` objects built from now on, in order,
    through the public constructors (``__init__``) or through ``_of``,
    which the product, the transpose and the Gale matrices use."""
    shapes = []
    init, of = Matrix.__init__, Matrix._of

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        shapes.append((self.rows, self.cols))

    monkeypatch.setattr(Matrix, "__init__", counted)
    monkeypatch.setattr(Matrix, "_of", classmethod(
        lambda cls, data, rows, cols: shapes.append((rows, cols)) or of(data, rows, cols)))
    return shapes


def sq_dist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def equivalent_by_hand(a, b):
    return all(sq_dist(a.point(u), a.point(v)) == sq_dist(b.point(u), b.point(v))
               for u, v in a.graph.edges)


def congruent_by_hand(a, b):
    return all(sq_dist(a.point(u), a.point(v)) == sq_dist(b.point(u), b.point(v))
               for u in range(1, a.n + 1) for v in range(u + 1, a.n + 1))


def submatrix(a: Matrix, row_idx: Sequence[int], col_idx: Sequence[int]) -> Matrix:
    """The rows and columns of ``a`` at the 0-based indices, in that order."""
    return Matrix([[a[i, j] for j in col_idx] for i in row_idx],
                  shape=(len(row_idx), len(col_idx)))


def scaled_matrix(a: Matrix, c) -> Matrix:
    """The matrix c a, for a rational c."""
    return Matrix([[c * x for x in row] for row in a.data], shape=(a.rows, a.cols))


def leading_principal_minor(a: Matrix, k: int) -> Fraction:
    """Determinant of the top-left k-by-k block, 1 <= k <= n."""
    if a.rows != a.cols:
        raise DimensionMismatch("leading principal minors need a square matrix")
    if not 1 <= k <= a.rows:
        raise ValueError(f"minor size {k} out of range 1..{a.rows}")
    idx = range(k)
    return determinant(submatrix(a, idx, idx))


def all_square_submatrices_nonsingular(
    a: Matrix, m: int, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Brute-force check that every m-by-m submatrix has nonzero determinant.

    Subset pairs are scanned in lexicographic order; the first singular pair
    is returned as 1-based (row subset, column subset). Raises
    SizeCapExceeded when the number of pairs would exceed ``cap``.
    """
    if not 0 <= m <= min(a.rows, a.cols):
        raise DimensionMismatch(f"submatrix size {m} out of range for {a.rows}x{a.cols}")
    total = math.comb(a.rows, m) * math.comb(a.cols, m)
    if total > cap:
        raise SizeCapExceeded(f"{total} submatrices exceed the cap of {cap}")
    for alpha in itertools.combinations(range(a.rows), m):
        for beta in itertools.combinations(range(a.cols), m):
            if determinant(submatrix(a, alpha, beta)) == 0:
                return False, (tuple(i + 1 for i in alpha), tuple(j + 1 for j in beta))
    return True, None


def _permute_square(m: Matrix, peo: Ordering) -> Matrix:
    idx = [peo.vertex_at(i) - 1 for i in range(1, m.rows + 1)]
    return submatrix(m, idx, idx)


def relabel_to_positions(g: Graph, order: Ordering) -> Graph:
    """Rename each vertex to its position, so the ordering becomes 1..n."""
    if len(order) != g.n:
        raise GraphError("ordering length does not match the graph")
    pos = order.position_of
    return Graph(g.n, ((pos(u), pos(v)) for u, v in g.edges))


def elimination_preserves_zero_pattern(graph: Graph, peo: Ordering, a: Matrix,
                                       k: int) -> bool:
    """Whether k elimination steps keep every non-edge entry at zero.

    The matrix is taken in the labeling of ``peo`` (rows/columns follow
    vertex labels); each intermediate stage is inspected on both triangles.
    """
    n = graph.n
    if (a.rows, a.cols) != (n, n):
        raise PreconditionViolated(f"matrix must be {n}x{n}")
    a2 = _permute_square(a, peo)
    g2 = relabel_to_positions(graph, peo)
    return all(_first_non_edge(g2, _sparse_rows(stage)) is None
               for stage in itertools.chain([a2], gauss_steps(a2, k)))


def _lifted_within_cap(fw: Framework, cap: int | None) -> list[list[int]]:
    """The points as integer rows l (p, 1), l the lcm of p's denominators,
    after raising SizeCapExceededError, with the library's message, when
    there are more than ``cap`` (dim+1)-subsets (None means
    ``DEFAULT_POSITION_CAP``)."""
    cap = DEFAULT_POSITION_CAP if cap is None else cap
    total = math.comb(fw.n, fw.dim + 1)
    if total > cap:
        raise SizeCapExceededError(f"{total} subsets exceed the cap of {cap}")
    lifted = []
    for p in fw.points:
        ints, l = _integer_row(p)
        lifted.append(ints + [l])
    return lifted


def general_position_by_determinants(fw: Framework, cap: int | None = None
                                     ) -> tuple[bool, tuple[int, ...] | None]:
    """The reference general-position sweep: every (dim+1)-subset of the
    points, in lexicographic order, decided by its own integer Bareiss
    determinant of the rows l (p, 1), l the lcm of p's denominators.

    Same contract as ``is_general_position``: the first violator as 1-based
    vertices, and SizeCapExceededError with the same message when there are
    more than ``cap`` subsets (None means ``DEFAULT_POSITION_CAP``).
    """
    lifted = _lifted_within_cap(fw, cap)
    for subset in itertools.combinations(range(fw.n), fw.dim + 1):
        if _int_determinant([lifted[v] for v in subset]) == 0:
            return False, tuple(v + 1 for v in subset)
    return True, None


def _first_dependent_by_prefixes(lifted, prefix, basis, prev):
    """The prefix sweep without bucketing: the lexicographically first
    dependent extension of ``prefix`` by len(basis) later rows, each
    extension with one basis vector left decided by one dot product with
    it."""
    start = prefix[-1] + 1 if prefix else 0
    if len(basis) == 1:
        cofactors = basis[0]
        dots = [sum(map(mul, cofactors, row)) for row in lifted[start:]]
        return prefix + (start + dots.index(0),) if 0 in dots else None
    for i in range(start, len(lifted) - len(basis) + 1):
        step = _cofactor_step(basis, prev, lifted[i])
        if step is None:
            return prefix + tuple(range(i, i + len(basis)))
        found = _first_dependent_by_prefixes(lifted, prefix + (i,), *step)
        if found is not None:
            return found
    return None


def general_position_by_prefixes(fw: Framework, cap: int | None = None
                                 ) -> tuple[bool, tuple[int, ...] | None]:
    """The second reference general-position sweep: shared prefix cofactor
    bases down to one vector, then one dot product per (dim+1)-subset
    (``_first_dependent_by_prefixes``). Same contract and cap as
    ``general_position_by_determinants``."""
    witness = _first_dependent_by_prefixes(_lifted_within_cap(fw, cap), (),
                                           _unit_rows(fw.dim + 1), 1)
    if witness is None:
        return True, None
    return False, tuple(v + 1 for v in witness)


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


class ZeroPivot(ExactMatError):
    """Exchange-free elimination hit a zero pivot at 1-based step ``step``."""

    def __init__(self, step: int):
        super().__init__(f"zero pivot at elimination step {step}")
        self.step = step


class NotSymmetric(ExactMatError):
    pass


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


def eliminated(res) -> Matrix:
    """The staircase matrix of a ``psdize_stress`` result after rbar
    elimination steps, expressed in ``res.peo``: row j is the unit column
    of the j-th pivot in position order, read from ``res.gale.matrix``, and
    the rows below rbar are zero."""
    n, rows = len(res.peo), res.gale.matrix.data
    return Matrix([*zip(*(rows[v - 1] for v in res.peo)), *[[0] * n] * (n - res.gale.rbar)],
                  shape=(n, n))


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


def gale_fractions(columns: Sequence[dict[int, int]]) -> list[dict[int, Fraction]]:
    """The columns of Z held by integer Gale columns (``certify._gale_columns``,
    ``GaleMatrix.columns``) as {0-based vertex: Fraction}, in the same
    order: each entry divided by the column's pivot entry, its first."""
    return [{u: Fraction(x, next(iter(col.values()))) for u, x in col.items()}
            for col in columns]


def gale_columns(fw: Framework, peo: Ordering) -> list[dict[int, int]]:
    """``certify._gale_columns`` along ``peo``, handed the ordering's
    later-neighbour lists (``graphs._later_neighbors``) unchecked."""
    return certify._gale_columns(fw, peo, _later_neighbors(fw.graph, peo))


def gale_columns_by_cramer(fw: Framework, peo: Ordering) -> list[dict[int, Fraction]]:
    """The sparse unit-triangular Gale columns of ``certify._gale_columns``,
    read through ``gale_fractions``, by Cramer's rule, each entry a ratio of
    ``_int_determinant`` minors.

    With L_u = l_u (p_u, 1), l_u the lcm of p_u's denominators, column j is
    1 at the vertex v in position j and x_k = l_k det(A_k) / (l_v det A) at
    its dim+1 earliest later neighbours u_k, where A has the rows L_{u_k}
    and A_k has row k replaced by -L_v. Columns are {0-based vertex: entry}
    in the library's order, zero entries left out; the input must be in
    general position.
    """
    r = fw.dim
    lifted = [ints + [l] for ints, l in map(_integer_row, fw.points)]
    pos = peo.position_of
    columns = []
    for j in range(1, fw.rbar + 1):
        v = peo.vertex_at(j)
        support = sorted((u for u in fw.graph.neighbors(v) if pos(u) > j), key=pos)[:r + 1]
        system = [lifted[u - 1] for u in support]
        target = [-x for x in lifted[v - 1]]
        scale = lifted[v - 1][-1] * _int_determinant(system)
        col = {v - 1: Fraction(1)}
        for k, u in enumerate(support):
            minor = _int_determinant(system[:k] + [target] + system[k + 1:])
            if minor:
                col[u - 1] = Fraction(lifted[u - 1][-1] * minor, scale)
        columns.append(col)
    return columns


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
    if a != a.transpose():
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


class ReferenceElimination(NamedTuple):
    """What ``reference_sparse_factor`` finds along its order.

    ``first_zero`` is the 1-based step of the first zero pivot, None when
    there is none; ``pivots`` are the nonzero 1x1 pivots in step order and
    ``columns`` their unit columns.
    """

    rank: int
    psd: bool
    first_zero: int | None
    pivots: list[Fraction]
    columns: list[dict[int, Fraction]]

    @property
    def generic(self) -> bool:
        """Whether the first ``rank`` leading principal minors in the order
        are nonzero."""
        return self.first_zero is None or self.first_zero > self.rank


def reference_sparse_factor(rows: SparseRows, order: Sequence[int]
                            ) -> ReferenceElimination:
    """Symmetric exchange-free elimination over sparse rows, in ``order``.

    ``rows`` holds the entries of a symmetric matrix by row, zeros omitted
    or not; ``order`` lists every row index once. A nonzero pivot d at v is
    eliminated: each entry (u, w) of v's remaining neighbours loses
    a_uv a_vw / d, so only the clique they span changes, and along a
    perfect elimination ordering of the matrix's pattern nothing fills in.
    A zero pivot over an all-zero row removes v unchanged. A zero pivot
    over a nonzero entry a = a_vu eliminates the block {v, u} instead
    (Bunch & Parlett's 2x2 pivot): [[0, a], [a, a_uu]] has determinant
    -a^2 < 0, so by Haynsworth's inertia additivity the step adds 2 to the
    rank and one negative eigenvalue.

    So the pass always completes: the rank is the number of nonzero 1x1
    pivots plus 2 per block, and the matrix is PSD exactly when there is no
    block and every pivot is positive. Up to the first zero pivot, the
    pivots are the ratios of successive leading principal minors in the
    order, so the profile is generic exactly when that zero comes after
    step ``rank``. With no block, the matrix is L D L^T with L the unit
    columns and D their pivots.
    """
    work = {v: {w: x for w, x in row.items() if x} for v, row in rows.items()}
    if sorted(order) != sorted(work):
        raise DimensionMismatch("the order must list every row index exactly once")
    pivots = []
    columns = []
    blocks = 0
    first_zero = None
    for step, v in enumerate(order, 1):
        if v not in work:  # the partner of an earlier block
            continue
        row = work.pop(v)
        pivot = row.pop(v, 0)
        if pivot:
            keys, values = list(row), list(row.values())
            factors = [a / pivot for a in values]
            _schur_update(work, [v], keys, lambda i, k: factors[i] * values[k])
            pivots.append(pivot)
            columns.append({v: Fraction(1), **dict(zip(keys, factors))})
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
        # the update P B^-1 P^T, with P the columns at v and u and B the
        # block, is s t^T + t s^T for s = P_v / a and t = P_u - d s / 2
        s = [row.get(w, 0) / a for w in keys]
        t = [urow.get(w, 0) - d * x / 2 for w, x in zip(keys, s)]
        _schur_update(work, [v, u], keys, lambda i, k: s[i] * t[k] + t[i] * s[k])
        blocks += 1
    return ReferenceElimination(len(columns) + 2 * blocks,
                                not blocks and all(d > 0 for d in pivots),
                                first_zero, pivots, columns)


def factor_in_scale(result: Elimination, scale: Sequence[int] | None = None
                    ) -> tuple[list[int | Fraction], list[dict[int, int | Fraction]]]:
    """The nonzero 1x1 pivots of S and their unit columns, in step order,
    from the steps (v, p, row) of ``_sparse_factor`` on M = C S C,
    C = diag(``scale``) (None for C = I): the pivot p / c_v^2, and the
    column 1 at v and S_wv / S_vv = a_w c_v / (p c_w) at each entry a_w of
    the row, each an int when it is one. These are what
    ``reference_sparse_factor`` gives on S."""
    c = scale
    pivots = [p if c is None else _quotient(p, c[v] * c[v]) for v, p, _ in result.steps]
    columns = [{v: 1, **{w: _quotient(a, p) if c is None else _quotient(a * c[v], p * c[w])
                         for w, a in row.items()}}
               for v, p, row in result.steps]
    return pivots, columns
