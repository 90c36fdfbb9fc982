import collections
import hashlib
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from helpers import elimination_preserves_zero_pattern, psd_check, relabel_to_positions
from chordalrig.certify import (
    DegenerateEvidence,
    Hyperplane,
    Infeasible,
    NotACut,
    NotGenericRankProfile,
    PreconditionViolated,
    Reason,
    Verdict,
    certify_chordal,
    hyperplane_through,
    psd_stress_from_gale,
    psdize_stress,
    reflection_counterexample,
    unit_triangular_gale,
)
from chordalrig.exactmat import DimensionMismatch, Matrix, rank
from chordalrig.framework import (
    Framework,
    GaleMatrix,
    StressMatrix,
    affinely_independent,
    extended_config_matrix,
    frameworks_congruent,
    frameworks_equivalent,
    is_unit_triangular_gale,
    random_general_position_framework,
    stress_from_psi,
    validate_stress_matrix,
)
from chordalrig.graphs import (
    Graph,
    Ordering,
    chordal_connectivity,
    gen_ktree,
    higher_neighbors,
    is_chordal,
    mcs_order,
    vertex_cut_of_size_at_most,
)

F = Fraction


class TestUnitTriangularGale:
    def test_k3_line(self, k3_line):
        z = unit_triangular_gale(k3_line, Ordering.identity(3))
        assert z.matrix == Matrix([[1], [-2], [1]])

    def test_hexagon_identity_peo(self, hexagon):
        z = unit_triangular_gale(hexagon.fw, Ordering.identity(6))
        assert z.matrix == hexagon.gale

    def test_kernel_property(self, hexagon):
        z = unit_triangular_gale(hexagon.fw, Ordering.identity(6))
        assert (extended_config_matrix(hexagon.fw) * z.matrix).is_zero

    def test_mcs_peo_variant(self, hexagon):
        peo = mcs_order(hexagon.fw.graph)
        z = unit_triangular_gale(hexagon.fw, peo)
        assert is_unit_triangular_gale(z.matrix, hexagon.fw.graph, peo) == (True, None)
        assert (extended_config_matrix(hexagon.fw) * z.matrix).is_zero

    def test_low_connectivity_rejected(self, path3_line):
        with pytest.raises(PreconditionViolated):
            unit_triangular_gale(path3_line, Ordering.identity(3))

    def test_degenerate_points_rejected(self, k5_minus_edge):
        peo = is_chordal(k5_minus_edge.graph).peo
        with pytest.raises(PreconditionViolated):
            unit_triangular_gale(k5_minus_edge, peo)

    def test_degenerate_witness_comes_from_a_column(self, k5_minus_edge):
        """No general-position sweep: the witness is the first three later
        neighbours of the column that has no independent support."""
        peo = is_chordal(k5_minus_edge.graph).peo
        with pytest.raises(PreconditionViolated,
                           match=r"^points not in general position, witness \(2, 4, 5\)$") as err:
            unit_triangular_gale(k5_minus_edge, peo)
        assert isinstance(err.value.__cause__, DegenerateEvidence)
        assert not affinely_independent([k5_minus_edge.point(v) for v in (2, 4, 5)])

    def test_non_peo_rejected(self, path3_line):
        with pytest.raises(PreconditionViolated,
                           match="^ordering is not a perfect elimination ordering$"):
            unit_triangular_gale(path3_line, Ordering([2, 1, 3]))

    def test_simplex_rejected(self):
        fw = Framework(Graph.complete(3), 2, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated,
                           match="^simplex framework: the Gale space is trivial$"):
            unit_triangular_gale(fw, Ordering.identity(3))

    def test_column_supports_are_cliques(self):
        rng = random.Random(7)
        for _ in range(5):
            fw = random_general_position_framework(8, 2, rng.randrange(10_000))
            peo = is_chordal(fw.graph).peo
            z = unit_triangular_gale(fw, peo)
            for j in range(1, fw.rbar + 1):
                support = {i + 1 for i in range(8) if z.matrix[i, j - 1] != 0}
                allowed = {peo.vertex_at(j)} | higher_neighbors(fw.graph, peo, j)
                assert support <= allowed


class TestPsdStressFromGale:
    def test_k3_line(self, k3_line):
        z = unit_triangular_gale(k3_line, Ordering.identity(3))
        s = psd_stress_from_gale(k3_line, z)
        assert s.matrix == Matrix([[1, -2, 1], [-2, 4, -2], [1, -2, 1]])

    def test_hexagon_gram(self, hexagon):
        s = psd_stress_from_gale(hexagon.fw, GaleMatrix(hexagon.gale))
        assert s.matrix == hexagon.psd

    def test_kernel_contains_configuration(self, hexagon):
        s = psd_stress_from_gale(hexagon.fw, GaleMatrix(hexagon.gale))
        assert (extended_config_matrix(hexagon.fw) * s.matrix).is_zero


class TestCertifyChordal:
    def test_hexagon_certified(self, hexagon):
        cert = certify_chordal(hexagon.fw)
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID
        assert cert.connectivity == 3
        assert cert.peo == mcs_order(hexagon.fw.graph)
        assert cert.counterexample is None and cert.reason is None
        rep = validate_stress_matrix(hexagon.fw, cert.stress)
        assert rep.is_stress_matrix and rep.psd and rep.rank == 3

    def test_degenerate_points_inconclusive(self, k5_minus_edge):
        cert = certify_chordal(k5_minus_edge)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.reason is Reason.NOT_GENERAL_POSITION
        assert cert.detail == (1, 2, 3)
        assert cert.stress is None and cert.counterexample is None

    def test_prism_inconclusive(self, prism):
        cert = certify_chordal(prism)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.reason is Reason.NOT_CHORDAL
        assert cert.detail == (1, 2, 4, 3)
        assert cert.peo is None and cert.connectivity is None

    def test_path_not_globally_rigid(self, path3_line):
        cert = certify_chordal(path3_line)
        assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID
        assert cert.connectivity == 1
        other = cert.counterexample
        assert other.points == ((F(2),), (F(1),), (F(2),))
        assert frameworks_equivalent(path3_line, other)
        assert not frameworks_congruent(path3_line, other)

    def test_simplex_inconclusive(self):
        fw = Framework(Graph.complete(3), 2, [(0, 0), (1, 0), (0, 1)])
        cert = certify_chordal(fw)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.reason is Reason.SIMPLEX_CASE
        assert cert.stress is None


class TestHyperplaneThrough:
    def test_single_point_on_line(self):
        h = hyperplane_through(1, [(F(1),)], [(F(0),), (F(2),)])
        assert h == Hyperplane((F(-1),), F(-1))
        assert h.side((F(1),)) == 0
        assert h.side((F(0),)) != 0 and h.side((F(2),)) != 0

    def test_two_collinear_points_plane(self, k5_minus_edge):
        pts = k5_minus_edge.points
        h = hyperplane_through(2, [pts[3], pts[4]], [pts[0], pts[2]])
        # p4 and p5 share x = -40, so the hyperplane is that vertical line
        assert h.normal[1] == 0
        assert h.offset / h.normal[0] == -40
        assert h.side(pts[0]) != 0 and h.side(pts[2]) != 0

    def test_point_in_affine_hull_infeasible(self, k5_minus_edge):
        pts = k5_minus_edge.points
        with pytest.raises(Infeasible):
            hyperplane_through(2, [pts[3], pts[4]], [pts[1]])

    def test_empty_through_set(self):
        h = hyperplane_through(2, [], [(F(0), F(0))])
        assert h.side((F(0), F(0))) != 0

    def test_deterministic(self, k5_minus_edge):
        pts = k5_minus_edge.points
        first = hyperplane_through(2, [pts[3], pts[4]], [pts[0], pts[2]])
        second = hyperplane_through(2, [pts[3], pts[4]], [pts[0], pts[2]])
        assert first == second

    def test_reflect_fixes_hyperplane(self):
        h = hyperplane_through(1, [(F(1),)], [(F(0),)])
        assert h.reflect((F(1),)) == (F(1),)
        assert h.reflect((F(0),)) == (F(2),)
        assert h.reflect(h.reflect((F(5),))) == (F(5),)


def _hyperplane_cases(seed, count):
    """Seeded (dim, points, avoid) inputs with dim = 1..4, 0..dim+2 points
    and 0..4 avoid points. Coordinates have mixed denominators; points may
    repeat an earlier one or be an affine combination of earlier ones, and
    avoid points are random or affine combinations of the points."""
    rng = random.Random(seed)

    def point(dim):
        return tuple(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(dim))

    def combination(pts):
        base = pts[0]
        weights = [F(rng.randint(-5, 5), rng.choice((1, 2, 5))) for _ in pts[1:]]
        return tuple(base[c] + sum(w * (p[c] - base[c]) for w, p in zip(weights, pts[1:]))
                     for c in range(len(base)))

    for _ in range(count):
        dim = rng.randint(1, 4)
        pts = []
        for _ in range(rng.randint(0, dim + 2)):
            roll = rng.random()
            if pts and roll < 0.2:
                pts.append(rng.choice(pts))
            elif len(pts) >= 2 and roll < 0.4:
                pts.append(combination(pts))
            else:
                pts.append(point(dim))
        avoid = [combination(pts) if pts and rng.random() < 0.3 else point(dim)
                 for _ in range(rng.randint(0, 4))]
        yield dim, pts, avoid


def _hyperplane_outcome(dim, pts, avoid):
    try:
        return hyperplane_through(dim, pts, avoid)
    except Infeasible as exc:
        return str(exc)


class TestHyperplaneAgainstOracle:
    def test_seeded_against_affine_hull_oracle(self):
        seen = collections.Counter()
        for dim, pts, avoid in _hyperplane_cases(8, 400):
            spans = bool(pts) and oracles.sym_rank([list(p) + [1] for p in pts]) == dim + 1
            in_hull = [q for q in avoid if oracles.in_affine_hull(pts, q)]
            outcome = _hyperplane_outcome(dim, pts, avoid)
            if in_hull:
                assert outcome == f"avoid point {in_hull[0]} lies in the affine hull of the points"
                seen["spans, avoid in hull" if spans else "avoid in hull"] += 1
            elif spans:
                assert outcome == "no hyperplane through the given points"
                seen["spans, no avoid"] += 1
            else:
                assert all(outcome.side(p) == 0 for p in pts)
                assert all(outcome.side(q) != 0 for q in avoid)
                seen["plane"] += 1
            seen["no points"] += not pts
            seen["repeated point"] += len(set(pts)) < len(pts)
            seen[f"dim {dim}"] += 1
        assert set(seen) == {"spans, avoid in hull", "avoid in hull", "spans, no avoid",
                             "plane", "no points", "repeated point",
                             "dim 1", "dim 2", "dim 3", "dim 4"}

    def test_seeded_outcomes_frozen(self):
        # sha256 of every plane and message on these inputs: a rewrite of the
        # affine hull test must keep them bit-identical
        text = repr([_hyperplane_outcome(*case) for case in _hyperplane_cases(9, 300)])
        assert hashlib.sha256(text.encode()).hexdigest() == HYPERPLANE_DIGEST

    def test_one_kernel_and_no_solve_per_call(self, monkeypatch):
        from chordalrig import certify, exactmat
        kernels, rrefs = [], []
        real_kernel, real_rref = certify.null_space_basis, exactmat._rref
        monkeypatch.setattr(certify, "null_space_basis",
                            lambda a: kernels.append(a) or real_kernel(a))
        monkeypatch.setattr(exactmat, "_rref", lambda a: rrefs.append(a) or real_rref(a))
        assert not hasattr(exactmat, "solve_linear")
        for dim, pts, avoid in _hyperplane_cases(10, 40):
            kernels.clear()
            rrefs.clear()
            _hyperplane_outcome(dim, pts, avoid)
            assert len(kernels) == len(rrefs) == 1

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            hyperplane_through(1, [(0.1,)], [(F(0),)])
        with pytest.raises(TypeError):
            hyperplane_through(1, [(F(1),)], [(0.0,)])

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            hyperplane_through(2, [(F(1),)], [])
        with pytest.raises(DimensionMismatch):
            hyperplane_through(2, [(F(1), F(2))], [(F(0), F(0), F(0))])


HYPERPLANE_DIGEST = "ead4382413b2feb09c603288beed29623433f3f23e5df272acae357362131f95"


class TestReflectionCounterexample:
    def test_folded_path(self, path3_line):
        other = reflection_counterexample(path3_line, (2,))
        assert other.points == ((F(2),), (F(1),), (F(2),))

    def test_empty_cut_rejected(self, path3_line):
        with pytest.raises(NotACut):
            reflection_counterexample(path3_line, ())

    def test_non_separating_set_rejected(self, hexagon):
        with pytest.raises(NotACut):
            reflection_counterexample(hexagon.fw, (2,))

    def test_oversized_cut_rejected(self):
        # two apex vertices joined through a K4; the K4 is a cut of size 4
        g = Graph(6, [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
                      (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5),
                      (4, 6), (5, 6)])
        fw = helpers.sample_points(g, 3, random.Random(1))
        with pytest.raises(PreconditionViolated):
            reflection_counterexample(fw, (3, 4, 5, 6))

    def test_random_two_trees_with_cuts(self):
        rng = random.Random(11)
        produced = 0
        while produced < 6:
            n = rng.randint(5, 8)
            g = gen_ktree(n, 2, rng.randrange(10_000))
            g = helpers.thin_to_low_connectivity(g, 2, rng)
            res = is_chordal(g)
            cut = vertex_cut_of_size_at_most(g, res.peo, 2)
            if cut is None:
                continue
            fw = helpers.sample_points(g, 2, rng)
            other = reflection_counterexample(fw, cut)
            assert frameworks_equivalent(fw, other)
            assert not frameworks_congruent(fw, other)
            produced += 1


def k_complete_framework(n):
    """Complete graph on n vertices with fixed general-position plane points."""
    pts = [(i, i * i) for i in range(1, n + 1)]  # points on a parabola
    return Framework(Graph.complete(n), 2, pts)


class TestPsdizeStress:
    def test_hexagon_frozen_pipeline(self, hexagon):
        res = psdize_stress(hexagon.fw, StressMatrix(hexagon.stress))
        assert res.stress.matrix == hexagon.psd
        assert res.gale.matrix == hexagon.gale
        assert res.eliminated == hexagon.eliminated
        assert res.peo == Ordering.identity(6)

    def test_dense_views_are_built_on_first_read(self, hexagon):
        res = psdize_stress(hexagon.fw, StressMatrix(hexagon.stress))
        assert res.stress.matrix == hexagon.psd
        assert "gale" not in vars(res) and "eliminated" not in vars(res)
        assert res.gale.matrix == hexagon.gale
        assert res.eliminated == hexagon.eliminated
        assert res.gale is res.gale and res.eliminated is res.eliminated

    def test_idempotent(self, hexagon):
        first = psdize_stress(hexagon.fw, StressMatrix(hexagon.stress))
        second = psdize_stress(hexagon.fw, first.stress)
        assert second.stress.matrix == first.stress.matrix

    def test_k3_already_psd(self, k3_line):
        s = Matrix([[1, -2, 1], [-2, 4, -2], [1, -2, 1]])
        res = psdize_stress(k3_line, StressMatrix(s))
        assert res.stress.matrix == s
        assert res.gale.matrix == Matrix([[1], [-2], [1]])

    def test_zero_stress_rejected(self, hexagon):
        with pytest.raises(PreconditionViolated):
            psdize_stress(hexagon.fw, StressMatrix(Matrix.zeros(6, 6)))

    def test_not_chordal_rejected(self, prism):
        with pytest.raises(PreconditionViolated):
            psdize_stress(prism, StressMatrix(Matrix.zeros(6, 6)))

    def test_simplex_rejected(self):
        fw = Framework(Graph.complete(3), 2, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(PreconditionViolated,
                           match="^simplex framework: no nonzero stress exists$"):
            psdize_stress(fw, StressMatrix(Matrix.zeros(3, 3)))

    def test_first_minor_zero_detected(self):
        fw = k_complete_framework(5)
        z = unit_triangular_gale(fw, Ordering.identity(5))
        psi = Matrix([[0, 1], [1, 0]])
        s = stress_from_psi(fw, z, psi)
        with pytest.raises(NotGenericRankProfile) as err:
            psdize_stress(fw, s)
        assert err.value.minor_index == 1

    def test_second_minor_zero_detected(self):
        fw = k_complete_framework(6)
        z = unit_triangular_gale(fw, Ordering.identity(6))
        psi = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        s = stress_from_psi(fw, z, psi)
        assert rank(s.matrix) == 3
        with pytest.raises(NotGenericRankProfile) as err:
            psdize_stress(fw, s)
        assert err.value.minor_index == 2

    def test_rank_deficient_rejected(self, hexagon):
        z = GaleMatrix(hexagon.gale)
        low = stress_from_psi(hexagon.fw, z,
                              Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
        with pytest.raises(PreconditionViolated):
            psdize_stress(hexagon.fw, low)

    def test_output_always_psd_of_full_kernel_rank(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(5, 8)
            fw = random_general_position_framework(n, 2, rng.randrange(10_000))
            z = unit_triangular_gale(fw, is_chordal(fw.graph).peo)
            d = Matrix([[rng.randint(1, 4) if i == j else 0
                         for j in range(fw.rbar)] for i in range(fw.rbar)])
            s = stress_from_psi(fw, z, d)
            res = psdize_stress(fw, s)
            ok = psd_check(res.stress.matrix)
            assert ok.is_psd and ok.rank == fw.rbar


class TestEliminationPattern:
    def test_hexagon_stages(self, hexagon):
        g = hexagon.fw.graph
        peo = Ordering.identity(6)
        assert elimination_preserves_zero_pattern(g, peo, hexagon.stress, 3)

    def test_diagonal_input(self, hexagon):
        d = Matrix([[i + 1 if i == j else 0 for j in range(6)] for i in range(6)])
        assert elimination_preserves_zero_pattern(
            hexagon.fw.graph, Ordering.identity(6), d, 3)

    def test_pattern_violating_input(self, hexagon):
        i, j = min(hexagon.non_edges)
        bad = Matrix([[1 if (a + 1, b + 1) in ((i, j), (j, i)) or a == b else 0
                       for b in range(6)] for a in range(6)])
        assert not elimination_preserves_zero_pattern(
            hexagon.fw.graph, Ordering.identity(6), bad, 1)

    def test_random_chordal_patterns(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randint(4, 7)
            g = gen_ktree(n, rng.randint(1, 3), rng.randrange(10_000))
            g = relabel_to_positions(g, mcs_order(g))
            a = helpers.chordal_pattern_matrix(rng, g)
            assert elimination_preserves_zero_pattern(
                g, Ordering.identity(n), a, rank(a))


class TestCertifyProperties:
    def test_random_positives(self):
        rng = random.Random(41)
        for _ in range(10):
            r = rng.choice((1, 2, 3))
            n = rng.randint(r + 2, 9)
            fw = random_general_position_framework(n, r, rng.randrange(10_000))
            cert = certify_chordal(fw)
            assert cert.verdict is Verdict.UNIVERSALLY_RIGID
            rep = validate_stress_matrix(fw, cert.stress)
            assert rep.is_stress_matrix and rep.psd
            assert rep.rank == fw.rbar

    def test_random_negatives(self):
        rng = random.Random(43)
        produced = 0
        while produced < 10:
            r = rng.choice((1, 2))
            n = rng.randint(r + 3, 9)
            g = gen_ktree(n, r + 1, rng.randrange(10_000))
            g = helpers.thin_to_low_connectivity(g, r, rng)
            if chordal_connectivity(g, is_chordal(g).peo) > r:
                continue
            fw = helpers.sample_points(g, r, rng)
            cert = certify_chordal(fw)
            assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID
            assert cert.connectivity <= r
            other = cert.counterexample
            assert frameworks_equivalent(fw, other)
            assert not frameworks_congruent(fw, other)
            produced += 1
