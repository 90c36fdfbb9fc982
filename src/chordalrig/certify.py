"""Rigidity certificates for chordal frameworks.

The positive branch builds a Gale matrix in unit-triangular shape along a
perfect elimination ordering (PEO): column j is nonzero only at the vertex
in position j and at dim+1 of its later neighbours, a clique, so columns
are kept sparse, in the original labels, and solved by Cramer's rule, in
integers: each is held as the primitive integer vector whose pivot entry
divides it to the column. The Gram product Z Z^T is a PSD stress of
maximal rank, which certifies universal (hence global) rigidity. Every
stress clause follows from checks made on each column
(``_check_gale_columns``), so the product is not checked again: when the
stress is first read, each of its nonzero entries is summed in integers
over the columns that meet it, on the scale of those columns alone. The
Gale matrix holds the same integer columns (``framework.GaleMatrix``), so
no Fraction is made until the stress or the Gale matrix is read. The
conic check scales each edge direction to integers on its own. One sparse
elimination (``exactmat._sparse_factor``) gives ``psdize_stress`` its
input's rank, first vanishing leading minor and steps, and each step gives
one Gale column of its factor in integers (``_step_column``). The
negative branch reflects one side of a small separating set across a
hyperplane through it, on the framework's lifted integer points, giving a
framework with the same edge lengths that is provably not congruent; it is
built from the images' lifts, and both facts are re-checked in integers,
each distance on its own two lifts.

The paper proves the dichotomy for points in general position, but each
piece of evidence is checked on its own: a PSD stress of maximal rank with
edge directions on no conic at infinity proves universal rigidity
(Connelly's super stability), and a re-checked reflection disproves global
rigidity. So nothing here sweeps for general position: where the evidence
fails, the failure names dim+1 affinely dependent points, which
``certify_chordal`` returns as an Inconclusive NotGeneralPosition witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactmat import (
    _cofactor_basis,
    _cofactor_step,
    _integer_kernel,
    _integer_row,
    _sparse_factor,
    _unit_rows,
)
from .framework import (
    DegenerateSpan,
    Framework,
    GaleColumns,
    GaleMatrix,
    StressMatrix,
    _clause_failures,
    _coerce_point,
    _in_gale_space,
    _lift,
    _same_sq_dists,
    _scaled_pair,
    _sized_congruent,
    _stress_clauses,
    _triangular_violation,
)
from .graphs import (
    Graph,
    NotAPeo,
    Ordering,
    _checked_later,
    _connectivity,
    _later_neighbors,
    _peo_violation,
    _small_cut,
    components_after_removal,
    find_chordless_cycle,
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
    found no affinely independent support (``_gale_columns``), or the
    reflected configuration does not span (``reflection_counterexample``).
    ``witness``, when set, holds dim+1 affinely dependent vertices, sorted
    and 1-based; every failure ``certify_chordal`` can reach sets it."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


class Infeasible(CertifyError):
    """No hyperplane through the points misses every avoid point.
    ``avoid_index`` is the 0-based index of an avoid point in their affine
    hull, if one is; ``witness`` as in DegenerateEvidence."""

    def __init__(self, message: str, avoid_index: int | None = None):
        super().__init__(message)
        self.avoid_index = avoid_index
        self.witness: tuple[int, ...] | None = None


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
    def _integer_form(self) -> tuple[list[int], int, int]:
        """The normal and offset scaled to integers N and O by the lcm of
        their denominators, and N.N; the hyperplane is N . x = O."""
        ints, _ = _integer_row((*self.normal, self.offset))
        normal = ints[:-1]
        return normal, ints[-1], sum(a * a for a in normal)

    def reflect(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The mirror image of ``point``; floats raise TypeError and a point
        without one coordinate per normal entry DimensionMismatch."""
        *coords, den = self._reflect_lifted(_lift(_coerce_point(point, len(self.normal))))
        return tuple(Fraction(x, den) for x in coords)

    def _reflect_lifted(self, lifted: Sequence[int]) -> tuple[int, ...]:
        """The mirror image of the point p lifted to L = l (p, 1)
        (``framework._lift``), itself lifted. With N and O from
        ``_integer_form``, p' = p - 2 (N.p - O) / (N.N) N, so coordinate k
        is X_k / D with X_k = L_k N.N - t N_k, t = 2 (N.L - O l), and
        D = l N.N > 0. The image's lift is (X / g, D / g), g = gcd(D, X_1,
        ..., X_dim): the lcm of the reduced denominators D / gcd(D, X_k) is
        D / g. No Fraction is made."""
        normal, offset, nn = self._integer_form
        *coords, l = lifted
        t = 2 * (sum(map(mul, normal, coords)) - offset * l)
        xs = [x * nn - t * a for x, a in zip(coords, normal)]
        den = l * nn
        g = math.gcd(den, *xs)
        return (*(x // g for x in xs), den // g)


def unit_triangular_gale(fw: Framework, peo: Ordering) -> GaleMatrix:
    """Gale matrix in unit-triangular shape, built column by column along a
    perfect elimination ordering; rows are in the original vertex labels.

    An ordering that is not a PEO raises PreconditionViolated; the lists
    that check builds (``graphs._checked_later``) go to ``_gale_columns``.
    The framework must not be a simplex. General position is never swept:
    each column checks its own later neighbours. Fewer than dim+1 of them,
    which along a PEO means connectivity below dim+1, raises
    PreconditionViolated, and so do later neighbours no dim+1 of which are
    affinely independent, with the first dim+1 as the witness.
    """
    try:
        later = _checked_later(fw.graph, peo)
    except NotAPeo:
        raise PreconditionViolated("ordering is not a perfect elimination ordering") from None
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: the Gale space is trivial")
    try:
        columns = _gale_columns(fw, peo, later)
    except DegenerateEvidence as exc:
        raise PreconditionViolated(
            f"points not in general position, witness {exc.witness}") from exc
    return GaleMatrix(columns, fw.n)


def _gale_columns(fw: Framework, peo: Ordering,
                  later: Sequence[Sequence[int]]) -> GaleColumns:
    """The columns of ``unit_triangular_gale`` as {0-based vertex: entry},
    for a PEO of a framework that is not a simplex, read off ``later``, the
    later-neighbour lists of ``peo`` (``graphs._later_neighbors``) that the
    caller has checked.

    Column j of Z is 1 at the vertex v in position j and x_k at dim+1 of
    its later neighbours u_k, where sum_k x_k (u_k, 1) = -(v, 1). The
    framework keeps each point lifted to the integer vector L = l (p, 1), l
    the lcm of its denominators, and ``_kernel_vector`` solves for the
    integer y with y_v L_v + sum_k y_k L_{u_k} = 0 by Cramer's rule on the
    support's differences from v, one fraction-free elimination over dim
    rows, or in the plane the cross product of the two rows; then x_k =
    l_{u_k} y_k / (l_v y_v). The column is returned in integers
    (``GaleColumns``): w_u = l_u y_u over v and the support, divided by its
    gcd and signed so that w_v > 0, so x_k = w_{u_k} / w_v; the kernel is
    one-dimensional, so w is the one primitive affine dependency of v on
    the support with w_v > 0, whichever multiple of y was solved for.

    A position with fewer than dim+1 later neighbours raises
    PreconditionViolated. The support is first the dim+1 earliest later
    neighbours, which in general position are affinely independent. Only
    when they are not, one greedy pass over all the later neighbours in
    position order keeps the first dim+1 that are
    (``_independent_support``); if there are none, every dim+1 of them are
    dependent, and DegenerateEvidence names the first dim+1. The columns
    are checked (``_check_gale_columns``) before they are returned.
    """
    r = fw.dim
    lifted = fw._lifted
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
        keys = [v - 1, *support]
        w = [lifted[u][-1] * x for u, x in zip(keys, y)]
        g = math.gcd(*w) if w[0] > 0 else -math.gcd(*w)
        columns.append({u: x // g for u, x in zip(keys, w) if x})
    _check_gale_columns(fw, columns, peo)
    return columns


def _check_gale_columns(fw: Framework, columns: GaleColumns, peo: Ordering) -> None:
    """Check that the Gram product Z Z^T of the integer Gale columns
    (``GaleColumns``) along the PEO ``peo`` is a PSD stress of rank rbar,
    on the columns alone; a failure is a bug and raises AssertionFailure.

    Each column w is checked to lie in the Gale space, sum_u w_u (p_u, 1) =
    0, in integers over the lifted points L_u = l_u (p_u, 1)
    (``_in_gale_space``): w itself is the coefficient vector of the L_u
    when every l_u of its support is 1, and m w_u / l_u otherwise, m the
    lcm of those l_u, since m sum_u w_u (p_u, 1) = sum_u (m w_u / l_u) L_u.
    The rbar columns are checked to keep the triangular shape
    (``framework._triangular_violation``): column j nonzero only at the
    vertex v_j in position j, where it is positive, and at later
    neighbours of v_j. These give every clause of S = Z Z^T:

    - S is symmetric by construction.
    - The support of column j is v_j and later neighbours of v_j, a clique
      along the PEO, so each term z_j z_j^T, and S, vanishes off the edges.
    - Each column kills the extended configuration, so S does too.
    - Z has rbar columns, each with a nonzero entry at its own position and
      zeros at the earlier positions, so Z has rank rbar. A Gram matrix of
      rank rbar is PSD of rank rbar.
    """
    lifted = fw._lifted
    for j, col in enumerate(columns, 1):
        scales = [lifted[u][-1] for u in col]
        m = math.lcm(*scales)
        if m > 1:
            col = {u: x * (m // l) for (u, x), l in zip(col.items(), scales)}
        if not _in_gale_space(lifted, [col]):
            raise AssertionFailure(f"column {j} does not lie in the Gale space")
    if len(columns) != fw.rbar:
        raise AssertionFailure(f"{len(columns)} Gale columns, not rbar = {fw.rbar}")
    violation = _triangular_violation(columns, fw.graph, peo)
    if violation is not None:
        raise AssertionFailure(f"Gale columns leave the triangular shape at {violation}")


def _kernel_vector(lifted: Sequence[Sequence[int]], v: int, support: Sequence[int]
                   ) -> list[int] | None:
    """The integer y, v's entry first, with y_v L_v + sum_k y_k L_{u_k} = 0
    over the lifted points L = l (p, 1) of v and the support u_0..u_dim
    (0-based); None when the support's points are affinely dependent.

    It is solved on the differences D_k = l_v L_{u_k} - l_{u_k} L_v, whose
    last coordinate is 0: their dim coordinate rows go through one
    ``_cofactor_basis`` pass, which leaves the cofactor vector z with
    sum_k z_k D_k = 0 when the rows are independent. In the plane z is
    Cramer's rule written out: the cross product of the rows x and y of the
    D_k, six products, zero exactly when the two rows are dependent (and
    then y_v below is 0). The pass would leave +-z there, and
    ``_gale_columns`` divides each column by its gcd and makes its pivot
    positive, so the columns are the same. Expanding D_k,

        (-sum_k z_k l_{u_k}) L_v + sum_k (l_v z_k) L_{u_k} = 0,

    so y_v = -sum_k z_k l_{u_k} and y_k = l_v z_k. The rows are dependent
    exactly when v and the support do not span, and then, or when y_v = 0,
    the L_{u_k} are dependent.
    """
    base = lifted[v]
    l_v = base[-1]
    points = [lifted[u] for u in support]
    if len(base) == 3:
        x, y, _ = base
        (x0, y0, l0), (x1, y1, l1), (x2, y2, l2) = points
        a0, a1, a2 = l_v * x0 - l0 * x, l_v * x1 - l1 * x, l_v * x2 - l2 * x
        b0, b1, b2 = l_v * y0 - l0 * y, l_v * y1 - l1 * y, l_v * y2 - l2 * y
        z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        y_v = -(z0 * l0 + z1 * l1 + z2 * l2)
        return [y_v, l_v * z0, l_v * z1, l_v * z2] if y_v else None
    rows = ([l_v * q[i] - q[-1] * x for q in points] for i, x in enumerate(base[:-1]))
    basis, _, rank = _cofactor_basis(rows, len(points))
    if rank < len(points) - 1:
        return None
    z = basis[0]
    y_v = -sum(map(mul, z, (q[-1] for q in points)))
    if y_v == 0:
        return None
    return [y_v, *(l_v * x for x in z)]


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


def _no_conic_at_infinity(fw: Framework) -> bool:
    """Whether the edge directions lie on no conic at infinity: no nonzero
    symmetric Q has d^T Q d = 0 for every edge direction d = p_i - p_j.

    d^T Q d is linear in the entries Q_ab, a <= b, with coefficients the
    products d_a d_b, so such a Q exists exactly when the |E| x r(r+1)/2
    matrix of these products has a kernel. Each edge's direction is scaled
    to integers on its own: over the lifted points L = l (p, 1),
    l_j L_i - l_i L_j = l_i l_j (p_i - p_j), so its row is scaled by the
    positive (l_i l_j)^2, which leaves the rank unchanged, and the rank of
    the integer rows is read off one ``_cofactor_basis`` pass.

    The edges of an r-simplex alone have full rank: Q vanishing on e_i and
    on e_i - e_j for a basis e vanishes on every product. So once a Gale
    column is built, its support clique passes this check; it is kept as
    the theorem's own hypothesis, checked on the framework.
    """
    r, lifted = fw.dim, fw._lifted
    pairs = [(a, b) for a in range(r) for b in range(a, r)]
    rows = ([d[a] * d[b] for a, b in pairs]
            for d in ([q[-1] * x - p[-1] * y for x, y in zip(p[:-1], q[:-1])]
                      for p, q in ((lifted[u - 1], lifted[w - 1]) for u, w in fw.graph.edges)))
    return _cofactor_basis(rows, len(pairs))[2] == len(pairs)


def certify_chordal(fw: Framework) -> Certificate:
    """Full pipeline: chordality, then the connectivity dichotomy.

    The graph is walked once: the maximum cardinality search ordering's
    later-neighbour lists are built once (``graphs._later_neighbors``) and
    checked once (``graphs._peo_violation``); chordality, connectivity, the
    cut and the Gale columns all read them. Only a failed check searches
    for the chordless cycle (``graphs.find_chordless_cycle``), which must
    then exist. The components that the cut's
    check finds (``graphs._small_cut``) go to the reflection
    (``_reflection``), so a NotGloballyRigid op searches them once.

    Connectivity at least dim+1 yields UniversallyRigid with a maximal-rank
    PSD stress, lower connectivity NotGloballyRigid with a reflected
    counterexample; non-chordal inputs and simplices come back Inconclusive
    with the reason and, for the former, a chordless cycle. Neither verdict
    needs general position: the stress is the Gram product of Gale columns
    whose checks give every stress clause, PSD and rank rbar
    (``_check_gale_columns``); it is summed when first read
    (``StressMatrix.from_gale_columns``) and, with edge directions on no
    conic at infinity, proves universal rigidity by Connelly's super
    stability (R. Connelly, "Rigidity and energy", Invent. Math. 66, 1982);
    the reflection's equal edge lengths and non-congruence are re-checked
    exactly, each pair in integers on its own lifts.

    Where the evidence fails, the failure itself names dim+1 affinely
    dependent points, returned as the ``detail`` of Inconclusive
    NotGeneralPosition; nothing sweeps. A Gale column with no independent
    support names its first dim+1 later neighbours. An infeasible
    hyperplane names the cut and a point q in its affine hull, padded with
    the smallest other labels. A reflected configuration that does not
    span names dim+1 points of cut + flipped side or cut + fixed side,
    whichever has more than dim: the reflection fixes the cut, so if
    either spanned the reflection would too. ``_small_cut``'s cut is the
    later neighbours of the first position j with at most dim of them. For
    j > 1, position 1's vertex and its dim+1 or more later neighbours are
    a clique of dim+2 or more, which lies in the cut plus one side. For
    j = 1, cut + fixed side has n-1 > dim points when position 1's vertex
    is flipped; when another component is (a five-vertex tree in R^3), no
    side may be large enough, and the next hyperplane of the search is
    tried instead (``reflection_counterexample``).

    The conic check cannot fail once a stress is built (a built column's
    support clique spans a dim-simplex, whose edges meet no conic at
    infinity); its failure and a failure naming no witness raise
    AssertionFailure.
    """
    peo = mcs_order(fw.graph)
    later = _later_neighbors(fw.graph, peo)
    if _peo_violation(fw.graph, peo, later) is not None:
        cycle = find_chordless_cycle(fw.graph)
        if cycle is None:
            raise AssertionFailure("ordering check failed but no chordless cycle found")
        return Certificate(Verdict.INCONCLUSIVE, reason=Reason.NOT_CHORDAL, detail=cycle)
    kappa = _connectivity(later)
    if fw.rbar == 0:  # n = dim+1 points that span are in general position
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.SIMPLEX_CASE)
    try:
        if kappa >= fw.dim + 1:
            stress = StressMatrix.from_gale_columns(_gale_columns(fw, peo, later), fw.n)
            if not _no_conic_at_infinity(fw):
                raise AssertionFailure("edge directions lie on a conic at infinity")
            return Certificate(Verdict.UNIVERSALLY_RIGID, connectivity=kappa, peo=peo,
                               stress=stress)
        found = _small_cut(fw.graph, later, fw.dim)
        if found is None:
            raise AssertionFailure("low connectivity but no separating neighborhood found")
        return Certificate(Verdict.NOT_GLOBALLY_RIGID, connectivity=kappa, peo=peo,
                           counterexample=_reflection(fw, *found))
    except (DegenerateEvidence, Infeasible) as exc:
        if exc.witness is None:
            raise AssertionFailure(f"failed evidence names no witness: {exc}") from exc
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.NOT_GENERAL_POSITION, detail=exc.witness)


def hyperplane_through(dim: int, points: Sequence[Sequence[Fraction]],
                       avoid: Sequence[Sequence[Fraction]]) -> Hyperplane:
    """A hyperplane containing every point in ``points`` and missing every
    point in ``avoid``: the first one ``_hyperplanes_through`` finds on the
    points lifted to integers (``framework._lift``). Floats raise
    TypeError, and points without ``dim`` coordinates DimensionMismatch.
    """
    return next(_hyperplanes_through(dim, [_lift(_coerce_point(p, dim)) for p in points],
                                     [_lift(_coerce_point(q, dim)) for q in avoid]))


def _hyperplanes_through(dim: int, lifted: Sequence[Sequence[int]],
                         avoid: Sequence[Sequence[int]]) -> Iterator[Hyperplane]:
    """The hyperplanes through the points and missing every avoid point, on
    points lifted to L = l (p, 1), in a deterministic order: the kernel of
    the rows (p, -1), the pairs y = (normal, offset) through the points, is
    enumerated over integer coefficient combinations by growing max-norm,
    lexicographically within each norm. An avoid point lies in the points'
    affine hull exactly when it lies on every kernel column; the first such
    (the first of all, when the kernel is empty) raises Infeasible, with its
    index as ``avoid_index``, on the first request.

    The rows (l p, -l) span the row space of the rows (p, -1), so
    ``_integer_kernel`` on them gives the kernel's echelon-form basis in
    integers: column y_j = (n_j, o_j) is Y_j / Y_j[f_j], f_j its free
    column. Scaled by D, the lcm of the Y_j[f_j], the columns are integers
    (N_j, O_j) = D y_j, so for q lifted to (l q, l), y_j's side n_j.q - o_j
    is (N_j.(l q) - O_j l) / (D l). These d sides are taken once per avoid
    point; a combination sum c_j y_j misses q when the same combination of
    its sides is nonzero. Only a combination missing every avoid point is
    built, in integers, and kept when its normal is nonzero; its dim+1
    entries over D are the only Fractions the search makes.
    """
    kernel = _integer_kernel([[*p[:dim], -p[dim]] for p in lifted], dim + 1)
    scale = math.lcm(*[y[f] for f, y in kernel])
    ints = [[x * (scale // y[f]) for x in y] for f, y in kernel]
    d = len(ints)
    sides = [[sum(map(mul, y, q[:dim])) - y[dim] * q[dim] for y in ints] for q in avoid]
    for i, (q, side) in enumerate(zip(avoid, sides)):
        if not any(side):
            point = tuple(Fraction(x, q[dim]) for x in q[:dim])
            raise Infeasible(f"avoid point {point} lies in the affine hull of the points", i)
    if d == 0:
        raise Infeasible("no hyperplane through the given points")
    for norm in range(1, _MAX_HYPERPLANE_COEFF + 1):
        for coeffs in itertools.product(range(-norm, norm + 1), repeat=d):
            if max(abs(c) for c in coeffs) != norm:
                continue
            if all(sum(map(mul, coeffs, side)) for side in sides):
                y = [sum(map(mul, coeffs, entries)) for entries in zip(*ints)]
                if any(y[:dim]):
                    yield Hyperplane(tuple(Fraction(x, scale) for x in y[:dim]),
                                     Fraction(y[dim], scale))
    raise Infeasible("coefficient search exhausted")  # pragma: no cover


def reflection_counterexample(fw: Framework, cut: Iterable[int]) -> Framework:
    """Reflect one side of a vertex cut across a hyperplane through the cut.

    The hyperplane contains exactly the cut points, every other point
    avoiding it; the reflected component is the one holding the smallest
    non-cut label. Cross edges end on the (fixed) cut, so all edge lengths
    are preserved, while any reflected-to-unreflected pair across the
    hyperplane changes distance; both facts are re-checked exactly, each
    pair in integers on its own lifts (``framework._same_sq_dists``). The
    cut is checked here (NotACut, PreconditionViolated), and the
    reflection itself is ``_reflection``'s. Infeasible and
    DegenerateEvidence carry the witnesses that ``certify_chordal``
    describes; when a reflection does not span and no side has more than
    dim points, the search's next hyperplane is tried.
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
    return _reflection(fw, cut_set, comps)


def _reflection(fw: Framework, cut: frozenset[int],
                comps: Sequence[Sequence[int]]) -> Framework:
    """``reflection_counterexample`` on a cut of at most dim vertices that
    leaves the components ``comps`` (``graphs.components_after_removal``).

    It runs in integers from the hyperplane to the re-check: the search
    and the reflection read the framework's lifted points, each image is
    made as its own lift (``Hyperplane._reflect_lifted``), and the
    reflected framework is built from those lifts, keeping the input's
    graph, other points and lifts, with only its span checked
    (``Framework._moved``). Non-congruence is checked first on the pair of
    the first vertex of ``comps[0]`` and of ``comps[1]``: both lie off the
    hyperplane, on either side, so their distance changes; every pair is
    scanned only when that one keeps its distance, which would be a bug.
    """
    lifted, r = fw._lifted, fw.dim
    others = [v for v in range(1, fw.n + 1) if v not in cut]
    planes = _hyperplanes_through(r, [lifted[v - 1] for v in sorted(cut)],
                                  [lifted[v - 1] for v in others])
    flipped = comps[0]
    try:
        for plane in planes:
            try:
                result = Framework._moved(
                    fw, {v - 1: plane._reflect_lifted(lifted[v - 1]) for v in flipped})
                break
            except DegenerateSpan as exc:
                side = sorted(cut.union(flipped))
                if len(side) <= r:
                    side = sorted(set(range(1, fw.n + 1)).difference(flipped))
                if len(side) > r:
                    raise DegenerateEvidence(f"reflected configuration is degenerate: {exc}",
                                             tuple(side[:r + 1])) from exc
    except Infeasible as exc:
        if exc.avoid_index is not None:
            dependent = cut | {others[exc.avoid_index]}
            padding = [v for v in others if v not in dependent][:r + 1 - len(dependent)]
            exc.witness = tuple(sorted([*dependent, *padding]))
        raise
    pair = _scaled_pair(fw, result)
    if not _same_sq_dists(pair, fw.graph.edges):
        raise AssertionFailure("reflection changed an edge length")
    if (_same_sq_dists(pair, [(flipped[0], comps[1][0])])
            and _same_sq_dists(pair, itertools.combinations(range(1, fw.n + 1), 2))):
        raise AssertionFailure("reflection produced a congruent configuration")
    return result


@dataclass(frozen=True)
class PsdizeResult:
    """Outcome of converting an indefinite stress into a PSD one.

    ``stress`` is in the original labels; ``gale`` holds the rbar unit
    columns of the input's L D L^T factor, in the original labels, as a
    Gale matrix, and ``peo`` the ordering they were eliminated along. The
    stress and the ordering determine the factor, so results compare by
    those two alone.
    """

    stress: StressMatrix
    peo: Ordering
    gale: GaleMatrix = field(compare=False)


def _elimination_order(graph: Graph) -> Ordering:
    """The identity when it is a perfect elimination ordering of the graph,
    which proves the graph chordal, else the maximum cardinality search
    one; PreconditionViolated when the graph is not chordal. Each ordering
    is walked once (``graphs._later_neighbors``, ``graphs._peo_violation``)."""
    order = Ordering.identity(graph.n)
    if _peo_violation(graph, order, _later_neighbors(graph, order)) is not None:
        order = mcs_order(graph)
        if _peo_violation(graph, order, _later_neighbors(graph, order)) is not None:
            raise PreconditionViolated("graph is not chordal")
    return order


def _step_column(step: tuple[int, int | Fraction, dict[int, int | Fraction]],
                 scale: Sequence[int]) -> dict[int, int]:
    """The integer Gale column (``GaleColumns``) of the step (v, p, row) of
    ``_sparse_factor`` on the congruent rows M = C S C, c = ``scale``.

    Its unit column of S is 1 at v and a_w c_v / (p c_w) at each entry a_w
    of the row. Times |p| L, L the lcm of the row's c_w, that is |p| L at v
    and sign(p) a_w c_v (L / c_w) at each w, integers when p and the a_w
    are; divided by their gcd, it is the one primitive integer vector along
    the unit column with a positive entry at v, v first. A step that holds
    a Fraction, left by an inexact quotient earlier in the pass, is cleared
    of denominators first (``_integer_row``), which keeps its unit column.
    """
    v, p, row = step
    if type(p) is not int or any(type(a) is not int for a in row.values()):
        p, *ints = _integer_row([p, *row.values()])[0]
        row = dict(zip(row, ints))
    c_v, l = scale[v], math.lcm(*[scale[w] for w in row])
    sign = 1 if p > 0 else -1
    column = [abs(p) * l, *(sign * a * c_v * (l // scale[w]) for w, a in row.items())]
    g = math.gcd(*column)
    return {u: x // g for u, x in zip((v, *row), column)}


def psdize_stress(fw: Framework, s: StressMatrix) -> PsdizeResult:
    """Turn a maximal-rank stress with generic rank profile into a PSD one.

    The input is read through its congruent integer rows M = C S C
    (``StressMatrix.congruent``) alone; no dense matrix is built. One
    sparse symmetric elimination (``_sparse_factor``) of M along
    ``_elimination_order`` gives the input's rank; a rank other than rbar
    is reported first. Up to the first zero, its pivots are the
    ratios of successive leading principal minors, so a zero among the
    first rbar pivots is the first vanishing minor and raises
    NotGenericRankProfile with its index. Otherwise the pass factors the
    input as L D L^T, and the rbar unit columns of L, each built in
    integers from its step and C (``_step_column``), are a Gale matrix in
    unit-triangular shape; chordality keeps their non-edge zeros, so their
    Gram product is again a stress: PSD, of the same maximal rank. None of
    this uses general position, so the points are not swept: the columns
    get the checks of the certificate's Gale columns
    (``_check_gale_columns``), which give every clause of their Gram
    stress. A stress whose size is not the framework's raises
    DimensionMismatch before any hypothesis is checked. The result holds
    the Gram stress, summed when first read
    (``StressMatrix.from_gale_columns``), the ordering and the integer unit
    columns as a ``GaleMatrix``, whose dense ``matrix`` is built on first
    read.
    """
    rows, scale = _sized_congruent(fw, s)
    peo = _elimination_order(fw.graph)
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: no nonzero stress exists")
    symmetric, non_edge, kernel_ok = _stress_clauses(fw, rows, scale)
    if not (symmetric and non_edge is None and kernel_ok):
        raise PreconditionViolated("input is not a stress matrix: "
                                   f"{_clause_failures(symmetric, non_edge is None, kernel_ok)}")
    result = _sparse_factor(rows, [v - 1 for v in peo])
    if result.rank != fw.rbar:
        raise PreconditionViolated(
            f"stress rank {result.rank} differs from the maximal {fw.rbar}")
    if not result.generic:
        raise NotGenericRankProfile(result.first_zero)
    columns = [_step_column(step, scale) for step in result.steps]
    _check_gale_columns(fw, columns, peo)
    return PsdizeResult(stress=StressMatrix.from_gale_columns(columns, fw.n), peo=peo,
                        gale=GaleMatrix(columns, fw.n))
