"""Rigidity certificates for chordal frameworks.

The positive branch builds a Gale matrix in unit-triangular shape from a
perfect elimination ordering (PEO), one column per position among the
first n - dim - 1. Column j is nonzero only at the vertex in position j and
at dim+1 of its later neighbours, a clique, so the columns are kept sparse,
in the original vertex labels, and each is solved by Cramer's rule. The
Gram product Z Z^T is a positive semidefinite stress matrix of the
maximal rank, which certifies universal (hence global) rigidity. It is
summed one column at a time in integers, as the congruent matrix C Z Z^T C
for a positive integer diagonal C, and kept that way: the dense stress is
built only when it is read. Its stress clauses are re-checked over its
nonzero entries, and PSD and rank by sparse symmetric elimination along the
PEO, which fills in nothing outside the graph and, on these integers,
divides only exactly; the same one pass gives ``psdize_stress`` its
input's rank, first vanishing leading minor and Gale factor, with no dense
elimination on any input. Its result keeps the factor's sparse columns and
builds the dense Gale and eliminated matrices only when they are first
read. The negative branch extracts a small separating set from the
ordering and reflects one side of it across a hyperplane, producing a
framework with the same edge lengths that is provably not congruent.

The paper proves the dichotomy for points in general position, but each
piece of evidence is checked on its own: a PSD stress of maximal rank with
edge directions on no conic at infinity proves universal rigidity
(Connelly's super stability), and a re-checked reflection disproves global
rigidity. So ``certify_chordal`` sweeps for general position only when the
evidence fails, to name the failed hypothesis. ``unit_triangular_gale``
never sweeps, since each Gale column checks its own later neighbours, and
nor does ``psdize_stress``, whose Gram stress is re-checked in full.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmat import (
    Matrix,
    SparseRows,
    _cofactor_basis,
    _cofactor_step,
    _integer_row,
    _quotient,
    _sparse_factor,
    _sparse_rows,
    _unit_rows,
    null_space_basis,
)
from .framework import (
    Framework,
    GaleMatrix,
    PatternViolation,
    StressMatrix,
    _clause_failures,
    _coerce_point,
    _in_gale_space,
    _sized_congruent,
    _stress_clauses,
    _triangular_violation,
    frameworks_congruent,
    frameworks_equivalent,
    is_general_position,
)
from .graphs import (
    Graph,
    Ordering,
    _connectivity,
    _later_neighbors,
    _small_cut,
    components_after_removal,
    is_chordal,
    is_peo,
    mcs_order,
)

# Bound on the coefficient search for hyperplanes; unreachable in practice.
_MAX_HYPERPLANE_COEFF = 64


class CertifyError(Exception):
    pass


class PreconditionViolated(CertifyError):
    pass


class NotACut(CertifyError):
    pass


class AssertionFailure(CertifyError):
    """An exactness check that the theory guarantees has failed; a bug."""


class DegenerateEvidence(AssertionFailure):
    """A step that general position guarantees has failed: a Gale column
    found no affinely independent support, or the reflected configuration
    does not span. It is a bug only once general position is known.
    ``witness``, when set, holds dim+1 affinely dependent vertices, sorted
    and 1-based."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class Infeasible(CertifyError):
    pass


class NotGenericRankProfile(CertifyError):
    """A leading principal minor vanished; ``minor_index`` is 1-based."""

    def __init__(self, minor_index: int):
        super().__init__(f"leading principal minor {minor_index} is zero")
        self.minor_index = minor_index


class Verdict(Enum):
    UNIVERSALLY_RIGID = "UniversallyRigid"
    NOT_GLOBALLY_RIGID = "NotGloballyRigid"
    INCONCLUSIVE = "Inconclusive"


class Reason(Enum):
    NOT_CHORDAL = "NotChordal"
    NOT_GENERAL_POSITION = "NotGeneralPosition"
    SIMPLEX_CASE = "SimplexCase"


@dataclass(frozen=True)
class Certificate:
    """Outcome of the pipeline together with its checkable evidence.

    ``detail`` carries a chordless cycle for NotChordal and the violating
    point subset for NotGeneralPosition.
    """

    verdict: Verdict
    connectivity: int | None = None
    peo: Ordering | None = None
    stress: StressMatrix | None = None
    counterexample: Framework | None = None
    reason: Reason | None = None
    detail: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Hyperplane:
    """Points x with normal . x = offset; the normal must be nonzero."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    def side(self, point: Sequence[Fraction]) -> Fraction:
        return sum(a * x for a, x in zip(self.normal, point)) - self.offset

    @cached_property
    def _norm_sq(self) -> Fraction:
        return sum(a * a for a in self.normal)

    def reflect(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        t = 2 * self.side(point) / self._norm_sq
        return tuple(x - t * a for x, a in zip(point, self.normal))


GaleColumns = list[dict[int, int | Fraction]]


def _gale_matrix(columns: GaleColumns, n: int) -> GaleMatrix:
    return GaleMatrix(Matrix.from_columns(
        [[col.get(v, Fraction(0)) for v in range(n)] for col in columns], rows=n))


def unit_triangular_gale(fw: Framework, peo: Ordering) -> GaleMatrix:
    """Gale matrix in unit-triangular shape, built column by column along a
    perfect elimination ordering; rows are in the original vertex labels.

    The framework must not be a simplex. General position is never swept:
    each column checks its own later neighbours (``_gale_columns``). Fewer
    than dim+1 of them, which along a PEO means connectivity below dim+1,
    raises PreconditionViolated, and so do later neighbours no dim+1 of
    which are affinely independent, with the first dim+1 as the witness.
    """
    ok, _ = is_peo(fw.graph, peo)
    if not ok:
        raise PreconditionViolated("ordering is not a perfect elimination ordering")
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: the Gale space is trivial")
    try:
        columns = _gale_columns(fw, peo)
    except DegenerateEvidence as exc:
        raise PreconditionViolated(
            f"points not in general position, witness {exc.witness}") from exc
    return _gale_matrix(columns, fw.n)


def _gale_columns(fw: Framework, peo: Ordering,
                  later: Sequence[Sequence[int]] | None = None) -> GaleColumns:
    """The columns of ``unit_triangular_gale`` as {0-based vertex: entry},
    for a PEO of a framework that is not a simplex. ``later`` holds the
    later-neighbour lists of ``peo`` (``graphs._later_neighbors``); they are
    built when it is None.

    Column j is 1 at the vertex v in position j and x_k at dim+1 of its
    later neighbours u_k, where sum_k x_k (u_k, 1) = -(v, 1). The
    framework keeps each point lifted to the integer vector L = l (p, 1), l
    the lcm of its denominators. The dim+1 coordinate rows of the matrix
    [L_v | L_{u_0} ... L_{u_dim}] go through ``_cofactor_basis``; when they
    are independent, the one vector y left spans its kernel, so
    y_v L_v + sum_k y_k L_{u_k} = 0 and x_k = l_{u_k} y_k / (l_v y_v). The
    entries of y are the maximal minors of that matrix up to sign, so this
    is Cramer's rule. A dependent row or y_v = 0 means the L_{u_k} are
    dependent.

    A position with fewer than dim+1 later neighbours raises
    PreconditionViolated. The support is first the dim+1 earliest later
    neighbours, which in general position are affinely independent. Only
    when they are not, one greedy pass over all the later neighbours in
    position order keeps the first dim+1 that are
    (``_independent_support``); if there are none, every dim+1 of them are
    dependent, and DegenerateEvidence names the first dim+1. Each column is
    checked to lie in the Gale space and to keep the triangular shape
    before it is returned.
    """
    r = fw.dim
    lifted = fw._lifted
    if later is None:
        later = _later_neighbors(fw.graph, peo)
    columns = []
    for j in range(1, fw.rbar + 1):
        v = peo.vertex_at(j)
        nbrs = [u - 1 for u in later[j - 1]]
        if len(nbrs) < r + 1:
            raise PreconditionViolated(
                f"position {j} has only {len(nbrs)} later neighbors, need {r + 1}")
        support = nbrs[:r + 1]
        y = _kernel_vector(lifted, v - 1, support)
        if y is None:
            support = _independent_support(lifted, nbrs, r + 1)
            y = None if support is None else _kernel_vector(lifted, v - 1, support)
            if y is None:
                witness = tuple(sorted(u + 1 for u in nbrs[:r + 1]))
                raise DegenerateEvidence(
                    f"support of column {j} is degenerate: no {r + 1} of its "
                    f"later neighbours are affinely independent", witness)
        scale = lifted[v - 1][-1] * y[0]
        col = {v - 1: Fraction(1)}
        for u, x in zip(support, y[1:]):
            if x:
                col[u] = Fraction(lifted[u][-1] * x, scale)
        # the coefficient of L_u is x / l_u, and l_u = 1 at integer points
        coefficients = {u: x if lifted[u][-1] == 1 else _quotient(x, lifted[u][-1])
                        for u, x in col.items()}
        if not _in_gale_space(lifted, [coefficients]):
            raise AssertionFailure(f"column {j} does not lie in the Gale space")
        columns.append(col)
    violation = _triangular_violation(columns, fw.graph, peo)
    if violation is not None:
        raise AssertionFailure(f"unit-triangular shape violated at {violation}")
    return columns


def _kernel_vector(lifted: Sequence[Sequence[int]], v: int, support: Sequence[int]
                   ) -> list[int] | None:
    """The integer y with y_v L_v + sum_k y_k L_{u_k} = 0 over the lifted
    points of v and the support (0-based), by one ``_cofactor_basis`` pass
    over their coordinate rows; None when the support's points are
    affinely dependent (a dependent row, or y_v = 0)."""
    points = [lifted[v]] + [lifted[u] for u in support]
    basis, _, rank = _cofactor_basis(zip(*points), len(points))
    if rank < len(points) - 1 or basis[0][0] == 0:
        return None
    return basis[0]


def _independent_support(lifted: Sequence[Sequence[int]], candidates: Sequence[int],
                         k: int) -> list[int] | None:
    """The first k of the candidates (0-based, in order) whose lifted points
    are independent, kept greedily by ``_cofactor_step``; None when fewer
    than k are."""
    basis, prev, support = _unit_rows(len(lifted[0])), 1, []
    for u in candidates:
        step = _cofactor_step(basis, prev, lifted[u])
        if step is not None:
            basis, prev = step
            support.append(u)
            if len(support) == k:
                return support
    return None


def _gram_rows(columns: GaleColumns, n: int) -> tuple[SparseRows, list[int]]:
    """The Gram product S = Z Z^T of sparse columns, as the integer sparse
    rows of the congruent matrix M = C S C and the diagonal c of C.

    With d_j the lcm of the denominators of column j, c_u is the lcm of the
    d_j of the columns that hold u, so W = C Z is integral and M = W W^T
    is summed in integers, one column's outer product at a time; no
    Fraction is made. An entry whose terms cancel is kept, as zero.

    When the columns are unit-triangular along an ordering, as the Gale
    columns along the PEO that built them are, elimination of M along that
    ordering (``exactmat._sparse_factor``) stays in integers: column j is
    zero at the vertices v_1, ..., v_{j-1} of the earlier positions, so at
    step k the entries left are those of the sum of w_j w_j^T over j >= k,
    row v_k holds W_{v_k k} w_k, and every quotient M_ik M_kj / M_kk is
    the integer W_ik W_jk.
    """
    denominators = [math.lcm(*[a.denominator for a in col.values()]) for col in columns]
    scale = [1] * n
    for col, d in zip(columns, denominators):
        for u in col:
            scale[u] = math.lcm(scale[u], d)
    rows: SparseRows = {v: {} for v in range(n)}
    for col in columns:
        ints = [(u, a.numerator * (scale[u] // a.denominator)) for u, a in col.items()]
        for k, (u, a) in enumerate(ints):
            urow = rows[u]
            for w, b in ints[k:]:
                x = urow.get(w, 0) + a * b
                urow[w] = rows[w][u] = x
    return rows, scale


def _gram_stress(fw: Framework, columns: GaleColumns, order: Ordering) -> StressMatrix:
    """The Gram stress Z Z^T of sparse Gale columns, held as the integer
    rows of a congruent matrix (``_gram_rows``), with every stress clause
    re-checked on them.

    Symmetry, the non-edge zeros and the kernel are checked over the
    stored entries (``_stress_clauses``); PSD and rank rbar, which the
    congruence keeps, by ``_sparse_factor`` along ``order``, which along
    a PEO touches one clique per step and, along the PEO the columns were
    built in, divides only exactly. A nonzero non-edge entry raises
    PatternViolation; any other failed clause is a bug and raises
    AssertionFailure. The dense stress is built only when it is read.
    """
    rows, scale = _gram_rows(columns, fw.n)
    symmetric, non_edge, kernel_ok = _stress_clauses(fw, rows, scale)
    if non_edge is not None:
        raise PatternViolation(*non_edge)
    if not (symmetric and kernel_ok):
        raise AssertionFailure(
            f"Gram stress failed validation: {_clause_failures(symmetric, True, kernel_ok)}")
    result = _sparse_factor(rows, [v - 1 for v in order], scale)
    if (result.rank, result.psd) != (fw.rbar, True):
        raise AssertionFailure(f"Gram stress is not PSD of rank {fw.rbar}: "
                               f"elimination gave {(result.rank, result.psd)}")
    return StressMatrix.from_congruent(rows, scale)


def psd_stress_from_gale(fw: Framework, z: GaleMatrix) -> StressMatrix:
    """The Gram stress Z Z^T of a unit-triangular Gale matrix.

    The product is PSD of rank rbar by construction; its non-edge entries
    must vanish, otherwise PatternViolation identifies a labeling bug. All
    stress clauses are re-verified exactly before returning, PSD and rank
    by sparse elimination along a maximum cardinality search order (a PEO
    when the graph is chordal).
    """
    columns = list(_sparse_rows(z.matrix.transpose()).values())
    return _gram_stress(fw, columns, mcs_order(fw.graph))


def _no_conic_at_infinity(fw: Framework) -> bool:
    """Whether the edge directions lie on no conic at infinity: no nonzero
    symmetric Q has d^T Q d = 0 for every edge direction d = p_i - p_j.

    d^T Q d is linear in the entries Q_ab, a <= b, with coefficients the
    products d_a d_b, so such a Q exists exactly when the |E| x r(r+1)/2
    matrix of these products has a kernel. The points are scaled by one
    common denominator, which scales every row alike, and the rank of the
    integer rows is read off one ``_cofactor_basis`` pass.

    The edges of an r-simplex alone have full rank: Q vanishing on e_i and
    on e_i - e_j for a basis e vanishes on every product. So once a Gale
    column is built, its support clique passes this check; it is kept as
    the theorem's own hypothesis, checked on the framework.
    """
    r = fw.dim
    flat, _ = _integer_row([x for p in fw.points for x in p])
    ints = [flat[i:i + r] for i in range(0, len(flat), r)]
    pairs = [(a, b) for a in range(r) for b in range(a, r)]
    rows = ([d[a] * d[b] for a, b in pairs]
            for d in ([x - y for x, y in zip(ints[u - 1], ints[w - 1])]
                      for u, w in fw.graph.edges))
    return _cofactor_basis(rows, len(pairs))[2] == len(pairs)


def certify_chordal(fw: Framework, cap: int | None = None) -> Certificate:
    """Full pipeline: chordality, then the connectivity dichotomy, with the
    general-position sweep only where the evidence fails.

    Connectivity at least dim+1 yields UniversallyRigid with a maximal-rank
    PSD stress; lower connectivity yields NotGloballyRigid with a reflected
    counterexample. Non-chordal inputs and simplices come back Inconclusive
    with the reason and, for the former, a chordless cycle.

    Neither verdict needs general position once its evidence is checked.
    The stress's every clause is re-checked (``_gram_stress``), and with
    edge directions on no conic at infinity (``_no_conic_at_infinity``) a
    PSD stress of rank n-dim-1 proves universal rigidity by Connelly's
    super-stability theorem (R. Connelly, "Rigidity and energy", Invent.
    Math. 66, 1982). The reflection's equal edge lengths and
    non-congruence are re-checked exactly, which disproves global rigidity
    by itself. So the sweep runs only on a failure path: a Gale column with
    no independent support, a failed conic check, an infeasible reflecting
    hyperplane or a reflected configuration that does not span. A witness
    then gives Inconclusive NotGeneralPosition. Without one the input is in
    general position, where the paper's theorem needs no conic check and
    the other failures are bugs; the verdict is taken again that way, so
    such inputs keep every output and every AssertionFailure. ``cap``
    bounds that sweep as in ``is_general_position``.
    """
    chord = is_chordal(fw.graph)
    if not chord.chordal:
        return Certificate(Verdict.INCONCLUSIVE, reason=Reason.NOT_CHORDAL,
                           detail=chord.chordless_cycle)
    peo = chord.peo
    later = _later_neighbors(fw.graph, peo)
    kappa = _connectivity(later)
    if fw.rbar == 0:  # n = dim+1 points that span are in general position
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.SIMPLEX_CASE)
    build = _stress_certificate if kappa >= fw.dim + 1 else _reflection_certificate
    try:
        cert = build(fw, peo, later, kappa)
    except (DegenerateEvidence, Infeasible):
        cert = None
    if cert is not None and (cert.verdict is Verdict.NOT_GLOBALLY_RIGID
                             or _no_conic_at_infinity(fw)):
        return cert
    gp, witness = is_general_position(fw, cap=cap)
    if not gp:
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.NOT_GENERAL_POSITION, detail=witness)
    return cert or build(fw, peo, later, kappa)


def _stress_certificate(fw: Framework, peo: Ordering, later: Sequence[Sequence[int]],
                        kappa: int) -> Certificate:
    stress = _gram_stress(fw, _gale_columns(fw, peo, later), peo)
    return Certificate(Verdict.UNIVERSALLY_RIGID, connectivity=kappa, peo=peo, stress=stress)


def _reflection_certificate(fw: Framework, peo: Ordering, later: Sequence[Sequence[int]],
                            kappa: int) -> Certificate:
    cut = _small_cut(fw.graph, later, fw.dim)
    if cut is None:
        raise AssertionFailure("low connectivity but no separating neighborhood found")
    return Certificate(Verdict.NOT_GLOBALLY_RIGID, connectivity=kappa, peo=peo,
                       counterexample=reflection_counterexample(fw, cut))


def hyperplane_through(dim: int, points: Sequence[Sequence[Fraction]],
                       avoid: Sequence[Sequence[Fraction]]) -> Hyperplane:
    """A hyperplane containing every point in ``points`` and missing every
    point in ``avoid``.

    The pairs y = (normal, offset) through the points form the kernel of
    the rows (p, -1). A point lies in their affine hull exactly when it lies
    on every such y, so Infeasible names the first avoid point on every
    kernel column (any point, when there is none). Otherwise the kernel is
    enumerated over integer coefficient combinations, ordered by growing
    max-norm and lexicographically within each norm, so the result is
    deterministic. Floats raise TypeError, and points without ``dim``
    coordinates DimensionMismatch.
    """
    pts = [_coerce_point(p, dim) for p in points]
    avoid_pts = [_coerce_point(q, dim) for q in avoid]
    kernel = null_space_basis(Matrix([list(p) + [Fraction(-1)] for p in pts],
                                     shape=(len(pts), dim + 1)))
    planes = [kernel.column(j) for j in range(kernel.cols)]
    for q in avoid_pts:
        if all(sum(a * x for a, x in zip(y, q)) == y[dim] for y in planes):
            raise Infeasible(f"avoid point {q} lies in the affine hull of the points")
    d = kernel.cols
    if d == 0:
        raise Infeasible("no hyperplane through the given points")
    for norm in range(1, _MAX_HYPERPLANE_COEFF + 1):
        for coeffs in itertools.product(range(-norm, norm + 1), repeat=d):
            if max(abs(c) for c in coeffs) != norm:
                continue
            y = kernel.mul_vector(coeffs)
            normal, offset = y[:dim], y[dim]
            if all(c == 0 for c in normal):
                continue
            if all(sum(a * x for a, x in zip(normal, q)) != offset for q in avoid_pts):
                return Hyperplane(normal, offset)
    raise Infeasible("coefficient search exhausted")  # pragma: no cover


def reflection_counterexample(fw: Framework, cut: Iterable[int]) -> Framework:
    """Reflect one side of a vertex cut across a hyperplane through the cut.

    The hyperplane contains exactly the cut points, every other point
    avoiding it; the reflected component is the one holding the smallest
    non-cut label. Cross edges end on the (fixed) cut, so all edge lengths
    are preserved, while any reflected-to-unreflected pair across the
    hyperplane changes distance; both facts are re-checked exactly.
    """
    cut_set = frozenset(cut)
    for v in cut_set:
        if not 1 <= v <= fw.n:
            raise NotACut(f"vertex {v} out of range")
    comps = components_after_removal(fw.graph, cut_set)
    if len(comps) < 2:
        raise NotACut(f"removing {sorted(cut_set)} leaves the graph connected")
    if len(cut_set) > fw.dim:
        raise PreconditionViolated(
            f"cut of size {len(cut_set)} cannot lie in a hyperplane of dimension {fw.dim}")
    cut_points = [fw.point(v) for v in sorted(cut_set)]
    other_points = [fw.point(v) for v in range(1, fw.n + 1) if v not in cut_set]
    plane = hyperplane_through(fw.dim, cut_points, other_points)
    flipped = set(comps[0])
    new_points = [plane.reflect(fw.point(v)) if v in flipped else fw.point(v)
                  for v in range(1, fw.n + 1)]
    try:
        result = Framework(fw.graph, fw.dim, new_points)
    except Exception as exc:
        raise DegenerateEvidence(f"reflected configuration is degenerate: {exc}") from exc
    if not frameworks_equivalent(fw, result):
        raise AssertionFailure("reflection changed an edge length")
    if frameworks_congruent(fw, result):
        raise AssertionFailure("reflection produced a congruent configuration")
    return result


@dataclass(frozen=True)
class PsdizeResult:
    """Outcome of converting an indefinite stress into a PSD one.

    ``stress`` is in the original labels; ``columns`` holds the rbar unit
    columns of the input's L D L^T factor, sparse ({0-based vertex:
    entry}), and ``peo`` the ordering they were eliminated along. The dense
    views are built on first read and then kept: ``gale`` is the Gale
    matrix with these columns, in the original labels, and ``eliminated``
    the staircase matrix after rbar elimination steps, expressed in
    ``peo``: row j is the unit column of the j-th pivot in position order,
    and the rows below rbar are zero. The stress and the ordering determine
    the factor, so results compare by those two alone.
    """

    stress: StressMatrix
    peo: Ordering
    columns: GaleColumns = field(compare=False, repr=False)

    @cached_property
    def gale(self) -> GaleMatrix:
        return _gale_matrix(self.columns, len(self.peo))

    @cached_property
    def eliminated(self) -> Matrix:
        n, zero = len(self.peo), Fraction(0)
        order = [v - 1 for v in self.peo]
        return Matrix([[col.get(v, zero) for v in order] for col in self.columns]
                      + [[zero] * n] * (n - len(self.columns)), shape=(n, n))


def _elimination_order(graph: Graph) -> Ordering:
    """The identity when it is a perfect elimination ordering of the graph,
    else the maximum cardinality search one; PreconditionViolated when the
    graph is not chordal."""
    chord = is_chordal(graph)
    if not chord.chordal:
        raise PreconditionViolated("graph is not chordal")
    ident = Ordering.identity(graph.n)
    return ident if is_peo(graph, ident)[0] else chord.peo


def psdize_stress(fw: Framework, s: StressMatrix) -> PsdizeResult:
    """Turn a maximal-rank stress with generic rank profile into a PSD one.

    One sparse symmetric elimination (``_sparse_factor``) along an
    elimination ordering (the identity is kept when it already qualifies)
    gives the input's rank; a rank other than rbar is reported first. Up to
    the first zero, its pivots are the ratios of successive leading
    principal minors, so a zero among the first rbar pivots is the first
    vanishing minor and raises NotGenericRankProfile with its index.
    Otherwise the pass factors the input as L D L^T, and the rbar unit
    columns of L are a Gale matrix in unit-triangular shape; chordality
    keeps their non-edge zeros, so their Gram product is again a stress:
    PSD, of the same maximal rank. None of this uses general position, and
    the Gram stress is re-checked in full (``_gram_stress``), so the points
    are not swept. The input is read through its congruent integer rows
    (``StressMatrix.congruent``) alone; no dense matrix is built. A stress
    whose size is not the framework's raises DimensionMismatch before any
    hypothesis is checked. The result holds the Gram stress, the ordering
    and the sparse unit columns; its dense ``gale`` and ``eliminated`` are
    built on first read.
    """
    rows, scale = _sized_congruent(fw, s)
    peo = _elimination_order(fw.graph)
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: no nonzero stress exists")
    symmetric, non_edge, kernel_ok = _stress_clauses(fw, rows, scale)
    if not (symmetric and non_edge is None and kernel_ok):
        raise PreconditionViolated("input is not a stress matrix: "
                                   f"{_clause_failures(symmetric, non_edge is None, kernel_ok)}")
    order = [v - 1 for v in peo]
    result = _sparse_factor(rows, order, scale)
    if result.rank != fw.rbar:
        raise PreconditionViolated(
            f"stress rank {result.rank} differs from the maximal {fw.rbar}")
    if not result.generic:
        raise NotGenericRankProfile(result.first_zero)
    columns = result.columns
    violation = _triangular_violation(columns, fw.graph, peo)
    if violation is not None:
        raise AssertionFailure(f"eliminated factor lost the triangular shape at {violation}")
    return PsdizeResult(stress=_gram_stress(fw, columns, peo), peo=peo, columns=columns)
