"""Rigidity certificates for chordal frameworks in general position.

The positive branch builds a Gale matrix in unit-triangular shape from an
elimination ordering, one column per position among the first n - dim - 1;
its Gram product Z Z^T is then a positive semidefinite stress matrix of the
maximal rank, which certifies universal (hence global) rigidity. The
negative branch extracts a small separating set from the ordering and
reflects one side of it across a hyperplane, producing a framework with the
same edge lengths that is provably not congruent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmat import (
    Matrix,
    ZeroPivot,
    gauss_step_sequence,
    gauss_steps,
    null_space_basis,
    solve_linear,
)
from .framework import (
    Framework,
    GaleMatrix,
    PatternViolation,
    StressMatrix,
    extended_config_matrix,
    frameworks_congruent,
    frameworks_equivalent,
    is_general_position,
    is_unit_triangular_gale,
    validate_stress_matrix,
)
from .graphs import (
    Graph,
    Ordering,
    chordal_connectivity,
    components_after_removal,
    higher_neighbors,
    is_chordal,
    is_peo,
    relabel_to_positions,
    vertex_cut_of_size_at_most,
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

    def reflect(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        norm_sq = sum(a * a for a in self.normal)
        t = 2 * self.side(point) / norm_sq
        return tuple(x - t * a for x, a in zip(point, self.normal))


def _to_position_space(fw: Framework, peo: Ordering) -> Framework:
    g2 = relabel_to_positions(fw.graph, peo)
    pts = [fw.point(peo.vertex_at(i)) for i in range(1, fw.n + 1)]
    return Framework(g2, fw.dim, pts)


def _permute_square(m: Matrix, peo: Ordering) -> Matrix:
    idx = [peo.vertex_at(i) - 1 for i in range(1, m.rows + 1)]
    return m.select(idx, idx)


def _unpermute_square(m: Matrix, peo: Ordering) -> Matrix:
    idx = [peo.position_of(v) - 1 for v in range(1, m.rows + 1)]
    return m.select(idx, idx)


def _unpermute_rows(m: Matrix, peo: Ordering) -> Matrix:
    idx = [peo.position_of(v) - 1 for v in range(1, m.rows + 1)]
    return m.select(idx, range(m.cols))


def _check_gale_preconditions(fw: Framework, peo: Ordering, cap: int | None) -> None:
    ok, _ = is_peo(fw.graph, peo)
    if not ok:
        raise PreconditionViolated("ordering is not a perfect elimination ordering")
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: the Gale space is trivial")
    kwargs = {} if cap is None else {"cap": cap}
    gp, witness = is_general_position(fw, **kwargs)
    if not gp:
        raise PreconditionViolated(f"points not in general position, witness {witness}")
    kappa = chordal_connectivity(fw.graph, peo)
    if kappa < fw.dim + 1:
        raise PreconditionViolated(
            f"connectivity {kappa} is below the required {fw.dim + 1}")


def unit_triangular_gale(fw: Framework, peo: Ordering, cap: int | None = None) -> GaleMatrix:
    """Gale matrix in unit-triangular shape, built column by column.

    Requires a chordal framework in general position with connectivity at
    least dim+1. Working in position space, column j expresses the lifted
    point of position j as a combination of the dim+1 lowest-positioned
    later neighbors; general position makes each system uniquely solvable.
    Rows are returned in the original vertex labels.
    """
    _check_gale_preconditions(fw, peo, cap)
    return _build_unit_triangular_gale(fw, peo)


def _build_unit_triangular_gale(fw: Framework, peo: Ordering) -> GaleMatrix:
    """The construction of ``unit_triangular_gale`` without its precondition
    checks, for callers that have already established them."""
    fw2 = _to_position_space(fw, peo)
    g2 = fw2.graph
    ident = Ordering.identity(fw.n)
    r = fw.dim
    lifted = [list(fw2.point(v)) + [Fraction(1)] for v in range(1, fw.n + 1)]
    columns = []
    for j in range(1, fw.rbar + 1):
        later = sorted(higher_neighbors(g2, ident, j))
        if len(later) < r + 1:
            raise PreconditionViolated(
                f"position {j} has only {len(later)} later neighbors, need {r + 1}")
        support = later[:r + 1]
        system = Matrix.from_columns([lifted[v - 1] for v in support])
        rhs = [-x for x in lifted[j - 1]]
        sol = solve_linear(system, rhs)
        if not sol.is_unique:
            raise AssertionFailure(
                f"support of column {j} is degenerate despite general position")
        col = [Fraction(0)] * fw.n
        col[j - 1] = Fraction(1)
        for v, x in zip(support, sol.solution):
            col[v - 1] = x
        columns.append(col)
    z2 = Matrix.from_columns(columns, rows=fw.n)
    if not (extended_config_matrix(fw2) * z2).is_zero:
        raise AssertionFailure("constructed matrix does not lie in the Gale space")
    ok, violation = is_unit_triangular_gale(z2, g2, ident)
    if not ok:
        raise AssertionFailure(f"unit-triangular shape violated at {violation}")
    return GaleMatrix(_unpermute_rows(z2, peo))


def psd_stress_from_gale(fw: Framework, z: GaleMatrix) -> StressMatrix:
    """The Gram stress Z Z^T of a unit-triangular Gale matrix.

    The product is PSD of rank rbar by construction; its non-edge entries
    must vanish, otherwise PatternViolation identifies a labeling bug. All
    stress clauses are re-verified exactly before returning.
    """
    zm = z.matrix
    s = zm * zm.transpose()
    n = fw.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not fw.graph.has_edge(i, j) and s[i - 1, j - 1] != 0:
                raise PatternViolation(i, j)
    report = validate_stress_matrix(fw, s)
    if not (report.is_stress_matrix and report.psd and report.rank == fw.rbar):
        raise AssertionFailure(f"Gram stress failed validation: {report}")
    return StressMatrix(s)


def certify_chordal(fw: Framework, cap: int | None = None) -> Certificate:
    """Full pipeline: chordality, general position, then the connectivity
    dichotomy.

    Connectivity at least dim+1 yields UniversallyRigid with a maximal-rank
    PSD stress; lower connectivity yields NotGloballyRigid with a reflected
    counterexample. Non-chordal or degenerate inputs and simplices come
    back Inconclusive with the reason and a concrete witness.
    """
    chord = is_chordal(fw.graph)
    if not chord.chordal:
        return Certificate(Verdict.INCONCLUSIVE, reason=Reason.NOT_CHORDAL,
                           detail=chord.chordless_cycle)
    peo = chord.peo
    kappa = chordal_connectivity(fw.graph, peo)
    kwargs = {} if cap is None else {"cap": cap}
    gp, witness = is_general_position(fw, **kwargs)
    if not gp:
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.NOT_GENERAL_POSITION, detail=witness)
    if fw.rbar == 0:
        return Certificate(Verdict.INCONCLUSIVE, connectivity=kappa, peo=peo,
                           reason=Reason.SIMPLEX_CASE)
    if kappa >= fw.dim + 1:
        z = _build_unit_triangular_gale(fw, peo)
        stress = psd_stress_from_gale(fw, z)
        return Certificate(Verdict.UNIVERSALLY_RIGID, connectivity=kappa, peo=peo,
                           stress=stress)
    cut = vertex_cut_of_size_at_most(fw.graph, peo, fw.dim)
    if cut is None:
        raise AssertionFailure("low connectivity but no separating neighborhood found")
    counterexample = reflection_counterexample(fw, cut)
    return Certificate(Verdict.NOT_GLOBALLY_RIGID, connectivity=kappa, peo=peo,
                       counterexample=counterexample)


def _in_affine_hull(points: Sequence[Sequence[Fraction]], q: Sequence[Fraction]) -> bool:
    if not points:
        return False
    system = Matrix.from_columns([list(p) + [Fraction(1)] for p in points])
    return solve_linear(system, list(q) + [Fraction(1)]).status != "inconsistent"


def hyperplane_through(dim: int, points: Sequence[Sequence[Fraction]],
                       avoid: Sequence[Sequence[Fraction]]) -> Hyperplane:
    """A hyperplane containing every point in ``points`` and missing every
    point in ``avoid``.

    The solution space of (normal, offset) pairs is enumerated over integer
    coefficient combinations of a kernel basis, ordered by growing max-norm
    and lexicographically within each norm, so the result is deterministic.
    Raises Infeasible when an avoid point lies in the affine hull of the
    points, which forces it onto every candidate hyperplane.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    avoid_pts = [tuple(Fraction(x) for x in q) for q in avoid]
    for q in avoid_pts:
        if _in_affine_hull(pts, q):
            raise Infeasible(f"avoid point {q} lies in the affine hull of the points")
    if pts:
        constraint = Matrix([list(p) + [Fraction(-1)] for p in pts],
                            shape=(len(pts), dim + 1))
        kernel = null_space_basis(constraint)
    else:
        kernel = Matrix.identity(dim + 1)
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
        raise AssertionFailure(f"reflected configuration is degenerate: {exc}") from exc
    if not frameworks_equivalent(fw, result):
        raise AssertionFailure("reflection changed an edge length")
    if frameworks_congruent(fw, result):
        raise AssertionFailure("reflection produced a congruent configuration")
    return result


@dataclass(frozen=True)
class PsdizeResult:
    """Outcome of converting an indefinite stress into a PSD one.

    ``eliminated`` is the staircase matrix after rbar elimination steps and
    ``peo`` the ordering it is expressed in; ``gale`` and ``stress`` are
    mapped back to the original labels.
    """

    stress: StressMatrix
    gale: GaleMatrix
    eliminated: Matrix
    peo: Ordering


def psdize_stress(fw: Framework, s: Matrix, cap: int | None = None) -> PsdizeResult:
    """Turn a maximal-rank stress with generic rank profile into a PSD one.

    After permuting to an elimination ordering (the identity is kept when
    it already qualifies), rbar elimination steps leave the transposed Gale
    matrix in the first rbar rows; chordality guarantees the non-edge zeros
    survive, so the Gram product of that factor is again a stress: PSD, of
    the same maximal rank. A vanishing leading principal minor raises
    NotGenericRankProfile with the failing index.
    """
    chord = is_chordal(fw.graph)
    if not chord.chordal:
        raise PreconditionViolated("graph is not chordal")
    ident = Ordering.identity(fw.n)
    peo = ident if is_peo(fw.graph, ident)[0] else chord.peo
    kwargs = {} if cap is None else {"cap": cap}
    gp, witness = is_general_position(fw, **kwargs)
    if not gp:
        raise PreconditionViolated(f"points not in general position, witness {witness}")
    if fw.rbar < 1:
        raise PreconditionViolated("simplex framework: no nonzero stress exists")
    report = validate_stress_matrix(fw, s)
    if not report.is_stress_matrix:
        raise PreconditionViolated(f"input is not a stress matrix: {report.failures()}")
    if report.rank != fw.rbar:  # permuting rows and columns keeps the rank
        raise PreconditionViolated(
            f"stress rank {report.rank} differs from the maximal {fw.rbar}")
    s2 = _permute_square(s, peo)
    fw2 = _to_position_space(fw, peo)
    try:
        eliminated = gauss_step_sequence(s2, fw.rbar)
    except ZeroPivot as exc:  # the first zero pivot is the first vanishing leading minor
        raise NotGenericRankProfile(exc.step) from exc
    z2 = Matrix([eliminated.row(i) for i in range(fw.rbar)],
                shape=(fw.rbar, fw.n)).transpose()
    ok, violation = is_unit_triangular_gale(z2, fw2.graph, ident)
    if not ok:
        raise AssertionFailure(f"eliminated factor lost the triangular shape at {violation}")
    gale2 = GaleMatrix(z2)
    stress2 = psd_stress_from_gale(fw2, gale2)
    return PsdizeResult(
        stress=StressMatrix(_unpermute_square(stress2.matrix, peo)),
        gale=GaleMatrix(_unpermute_rows(z2, peo)),
        eliminated=eliminated,
        peo=peo,
    )


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
    non_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if not graph.has_edge(peo.vertex_at(i), peo.vertex_at(j))]
    for pair in non_edges:
        i, j = pair
        if a2[i - 1, j - 1] != 0 or a2[j - 1, i - 1] != 0:
            return False
    for stage in gauss_steps(a2, k):
        for i, j in non_edges:
            if stage[i - 1, j - 1] != 0 or stage[j - 1, i - 1] != 0:
                return False
    return True
