"""The general-position sweep and the span check on shared prefix
cofactors, cross-checked against the per-subset determinant sweep
(``helpers.general_position_by_determinants``), the unbucketed prefix
sweep (``helpers.general_position_by_prefixes``) and the
cofactor-expansion oracle; the fixed-pair skip and the integer
distances of the exact distance re-checks; and the reflected framework
built from the images' lifts."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import oracles
from chordalrig import certify, cli, exactmat, framework
from chordalrig.certify import Verdict, certify_chordal
from chordalrig.cli import main
from chordalrig.exactmat import _cofactor_basis
from chordalrig.framework import (
    DEFAULT_POSITION_CAP,
    DegenerateSpan,
    Framework,
    SizeCapExceededError,
    _cofactor_step,
    _unit_rows,
    frameworks_congruent,
    frameworks_equivalent,
    is_general_position,
    random_general_position_framework,
)
from chordalrig.graphs import Graph, gen_ktree
from chordalrig.jsonio import framework_to_obj, write_json
from helpers import general_position_by_determinants, general_position_by_prefixes, sq_dist


def _outcome(sweep, fw, cap=None):
    try:
        return sweep(fw, cap=cap)
    except SizeCapExceededError as exc:
        return "cap", str(exc)


def _affine_combination(rng, pts, base):
    weights = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in base[1:]]
    weights.insert(0, 1 - sum(weights))
    return [sum(w * pts[b][c] for w, b in zip(weights, base)) for c in range(len(pts[0]))]


KINDS = ("generic", "repeat-1-2", "repeat", "collinear-opening", "hull")


def _seeded_points(rng, dim, n):
    """n points with a denominator per coordinate and, unless generic, one
    forced dependency: points 1 and 2 equal, two equal points, points 1-3
    collinear, or a point on the affine hull of at most dim earlier ones."""
    pts = [[F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(dim)]
           for _ in range(n)]
    kind = rng.choice(KINDS if dim >= 2 else KINDS[:3])
    if kind == "repeat-1-2":
        pts[1] = list(pts[0])
    elif kind == "repeat":
        i, j = sorted(rng.sample(range(n), 2))
        pts[j] = list(pts[i])
    elif kind == "collinear-opening":
        pts[2] = _affine_combination(rng, pts, [0, 1])
    elif kind == "hull":
        j = rng.randint(2, n - 1)
        pts[j] = _affine_combination(rng, pts, rng.sample(range(j), rng.randint(2, min(j, dim))))
    return kind, pts


def _frameworks(label, dim, count, extra):
    """Seeded frameworks on paths, with the kind of each; point sets that
    do not span are skipped."""
    rng = random.Random(f"sweep/{label}/{dim}")
    out = []
    while len(out) < count:
        kind, pts = _seeded_points(rng, dim, rng.randint(dim + 1, dim + extra))
        try:
            out.append((kind, Framework(Graph.path(len(pts)), dim, pts)))
        except DegenerateSpan:
            continue
    return out


class TestSweepAgainstReferences:
    @pytest.mark.parametrize("dim, count, extra", [
        (1, 80, 6), (2, 80, 5), (3, 60, 4), (4, 40, 3), (5, 40, 3)])
    def test_matches_reference_and_oracle(self, dim, count, extra):
        rng = random.Random(f"sweep-caps/{dim}")
        kinds, verdicts, capped = set(), {True: 0, False: 0}, 0
        for kind, fw in _frameworks("cross", dim, count, extra):
            total = math.comb(fw.n, dim + 1)
            cap = rng.choice([None, total, total - 1])
            got = _outcome(is_general_position, fw, cap)
            assert got == _outcome(general_position_by_determinants, fw, cap)
            if cap == total - 1:
                assert got == ("cap", f"{total} subsets exceed the cap of {total - 1}")
                capped += 1
                continue
            witness = oracles.first_affinely_dependent(fw.points, dim + 1)
            assert got == (witness is None, witness)
            kinds.add(kind)
            verdicts[got[0]] += 1
        assert capped >= 3
        assert kinds == set(KINDS if dim >= 2 else KINDS[:3])
        assert verdicts[True] >= 3 and verdicts[False] >= 10

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_repeat_in_positions_1_2(self, dim):
        rng = random.Random(f"repeat-1-2/{dim}")
        pts = [[F(rng.randint(-50, 50), rng.randint(1, 7)) for _ in range(dim)]
               for _ in range(dim + 3)]
        pts[1] = list(pts[0])
        fw = Framework(Graph.path(len(pts)), dim, pts)
        expected = (False, tuple(range(1, dim + 2)))
        assert is_general_position(fw) == expected
        assert general_position_by_determinants(fw) == expected

    def test_collinear_triple_opens_r3(self):
        pts = [(0, 0, 0), (F(1, 2), F(1, 3), 1), (1, F(2, 3), 2), (5, -1, 2), (-3, 4, 7),
               (2, 9, -4)]
        fw = Framework(Graph.path(6), 3, pts)
        assert is_general_position(fw) == (False, (1, 2, 3, 4))
        assert general_position_by_determinants(fw) == (False, (1, 2, 3, 4))

    def test_dependent_prefix_late_in_the_order(self):
        # Points 5 and 6 coincide: every earlier subset is independent, and
        # the first violator is the first completion of the prefix (..., 5, 6).
        pts = [(t, t * t, t ** 3) for t in range(1, 7)]
        pts[5] = pts[4]
        fw = Framework(Graph.path(6), 3, pts)
        assert is_general_position(fw) == (False, (1, 2, 5, 6))
        assert general_position_by_determinants(fw) == (False, (1, 2, 5, 6))

    @pytest.mark.parametrize("n, dim, seeds", [(30, 2, 3), (24, 2, 3), (20, 3, 3)])
    def test_workload_sized(self, n, dim, seeds):
        for seed in range(seeds):
            fw = random_general_position_framework(n, dim, seed)
            assert is_general_position(fw) == (True, None)
            assert general_position_by_determinants(fw) == (True, None)
            rng = random.Random(f"workload/{n}/{dim}/{seed}")
            pts = [list(p) for p in fw.points]
            j = rng.randrange(dim + 1, n)
            pts[j] = _affine_combination(rng, pts, rng.sample(range(j), dim))
            bad = Framework(fw.graph, dim, pts)
            got = is_general_position(bad)
            assert got == general_position_by_determinants(bad)
            assert not got[0] and got[1][-1] <= j + 1
            if seed == 0:
                assert got[1] == oracles.first_affinely_dependent(bad.points, dim + 1)

    def test_frozen_witness_digest(self):
        # sha256 of the outcomes of the per-subset determinant sweep on these
        # 300 inputs, recorded before the sweep shared prefix cofactors.
        lines = []
        for dim in (1, 2, 3, 4, 5):
            for kind, fw in _frameworks("frozen", dim, 60, 4):
                total = math.comb(fw.n, dim + 1)
                lines.append(repr((kind, _outcome(is_general_position, fw),
                                   _outcome(is_general_position, fw, total - 1))))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == FROZEN_WITNESS_DIGEST


FROZEN_WITNESS_DIGEST = "527dd553fb6a02861598687eecab433fc6dc439cd4e81010e01abb6ef8a0470c"


class TestCofactorStep:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_against_rank_and_cofactors(self, k):
        rng = random.Random(f"cofactor-step/{k}")
        for _ in range(30):
            rows = []
            for _ in range(rng.randint(1, k + 2)):
                if rows and rng.random() < 0.3:
                    coeffs = [rng.randint(-3, 3) for _ in rows]
                    rows.append([sum(c * r[t] for c, r in zip(coeffs, rows)) for t in range(k)])
                else:
                    rows.append([rng.randint(-2 ** 40, 2 ** 40) for _ in range(k)])
            basis, prev, kept = _unit_rows(k), 1, []
            for v in rows:
                step = _cofactor_step(basis, prev, v) if basis else None
                independent = oracles.sym_rank(kept + [v]) > len(kept)
                assert (step is not None) == independent
                if step is None:
                    continue
                basis, prev = step
                kept.append(v)
                assert len(basis) == k - len(kept)
                assert all(sum(a * b for a, b in zip(y, w)) == 0 for y in basis for w in kept)
                if len(kept) == k - 1:
                    cof = oracles.cofactor_vector(kept)
                    assert basis[0] in (cof, [-c for c in cof])
            assert _cofactor_basis(rows, k)[2] == oracles.sym_rank(rows)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_direct_start_matches_the_two_step_start(self, k):
        """``_cofactor_basis`` writes down the basis after its first kept
        row; it must equal the one ``_cofactor_step`` makes from the unit
        rows, on runs with zero rows, repeats and more rows than k."""
        def two_step(rows):
            basis, prev, kept = _unit_rows(k), 1, 0
            for v in rows:
                if not basis:
                    break
                step = _cofactor_step(basis, prev, v)
                if step is not None:
                    basis, prev = step
                    kept += 1
            return basis, prev, kept

        rng = random.Random(f"direct-start/{k}")
        seen = set()
        for _ in range(60):
            rows = []
            for _ in range(rng.randint(0, k + 3)):
                roll = rng.random()
                if roll < 0.25:
                    rows.append([0] * k)
                elif rows and roll < 0.4:
                    rows.append([-x for x in rng.choice(rows)])
                else:
                    rows.append([rng.choice([0, rng.randint(-2 ** 20, 2 ** 20)])
                                 for _ in range(k)])
            got = _cofactor_basis(rows, k)
            assert got == two_step(rows)
            assert got == _cofactor_basis(iter(rows), k)
            seen.add((got[2], len(rows) > k, any(not any(v) for v in rows[:1])))
        assert {0, k} <= {kept for kept, _, _ in seen}
        assert any(more for _, more, _ in seen) and any(zero for _, _, zero in seen)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_span_check_matches_rank(self, dim):
        rng = random.Random(f"span/{dim}")
        verdicts = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(dim + 1, dim + 5)
            spanning = rng.randint(1, dim + 1)
            pts = [[F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(dim)]
                   for _ in range(spanning)]
            while len(pts) < n:
                base = rng.sample(range(len(pts)), 1 + rng.randrange(len(pts)))
                pts.insert(rng.randint(0, len(pts)), _affine_combination(rng, pts, base))
            spans = oracles.sym_rank([p + [1] for p in pts]) == dim + 1
            verdicts[spans] += 1
            if spans:
                assert Framework(Graph.path(n), dim, pts).points == tuple(map(tuple, pts))
            else:
                with pytest.raises(DegenerateSpan,
                                   match="^points do not affinely span the ambient space$"):
                    Framework(Graph.path(n), dim, pts)
        assert verdicts[True] >= 5 and verdicts[False] >= 5

    def test_high_dimension_stays_polynomial(self):
        # A simplex in R^40 and one with a repeated vertex: the cofactor basis
        # holds at most 41 vectors of 41 minors, never the C(41, 20) of a full
        # exterior product.
        dim = 40
        rng = random.Random("simplex/40")
        pts = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim + 1)]
        fw = Framework(Graph.path(dim + 1), dim, pts)
        assert is_general_position(fw) == general_position_by_determinants(fw) == (True, None)
        pts.append(pts[3])
        fw = Framework(Graph.path(dim + 2), dim, pts)
        # Subsets of 41 out of 42 points, in lexicographic order, leave out
        # point 42, then point 41: the second holds point 4 twice.
        witness = tuple(range(1, dim + 1)) + (dim + 2,)
        assert is_general_position(fw) == general_position_by_determinants(fw)
        assert is_general_position(fw) == (False, witness)


class TestAffinelyIndependent:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_sympy_rank(self, dim, monkeypatch):
        """Prefixes of the seeded point lists, so repeats, collinear
        openings, hull points and more than dim + 1 points all occur, with a
        denominator per coordinate; no dense ``rank`` runs."""
        def forbidden(*args):
            raise AssertionError("dense rank")
        monkeypatch.setattr(framework, "rank", forbidden)
        rng = random.Random(f"affinely-independent/{dim}")
        seen = set()
        for _ in range(60):
            kind, pts = _seeded_points(rng, dim, rng.randint(dim + 1, dim + 3))
            pts = pts[:rng.randint(1, len(pts))]
            expected = oracles.sym_rank([p + [1] for p in pts]) == len(pts)
            assert framework.affinely_independent(pts) == expected
            seen.add((expected, len(pts) > dim + 1))
            if not expected and len(pts) <= dim + 1:
                seen.add(kind)
        assert seen >= {(True, False), (False, False), (False, True), "repeat-1-2"}


class TestSweepCost:
    def test_no_determinant_calls(self):
        assert not hasattr(exactmat, "_int_determinant")
        assert not hasattr(framework, "_int_determinant")
        verdicts = set()
        for dim in (1, 2, 3, 4):
            for _, fw in _frameworks("cost", dim, 10, 4):
                got = is_general_position(fw)
                assert got == general_position_by_determinants(fw)
                verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_certify_never_sweeps_and_analyze_sweeps_once(self, monkeypatch, tmp_path,
                                                          k5_minus_edge):
        """certify_chordal sweeps on no input, whether its evidence holds
        or names a witness; analyze sweeps once."""
        calls = []

        def counted(fw, **kwargs):
            calls.append(fw.n)
            return is_general_position(fw, **kwargs)

        monkeypatch.setattr(framework, "is_general_position", counted)
        monkeypatch.setattr(cli, "is_general_position", counted)
        ur = random_general_position_framework(14, 2, 1)
        ngr = Framework(gen_ktree(10, 2, 3), 2, random_general_position_framework(10, 2, 3).points)
        # column 1 of k5me has no affinely independent support
        no_support = k5_minus_edge
        # point 3 repeats the cut vertex 2: no line through it avoids 3
        infeasible = Framework(Graph.path(3), 1, [(0,), (1,), (1,)])
        # reflecting point 1 across x + y = 0 puts it on the line of 2, 3, 4
        degenerate = Framework(Graph.path(4), 2, [(0, 1), (0, 0), (1, 0), (2, 0)])
        runner = CliRunner()
        for fw, outcome in (
                (ur, (Verdict.UNIVERSALLY_RIGID, None)),
                (ngr, (Verdict.NOT_GLOBALLY_RIGID, None)),
                (no_support, (Verdict.INCONCLUSIVE, (2, 4, 5))),
                (infeasible, (Verdict.INCONCLUSIVE, (2, 3))),
                (degenerate, (Verdict.INCONCLUSIVE, (2, 3, 4)))):
            calls.clear()
            cert = certify_chordal(fw)
            assert (cert.verdict, cert.detail) == outcome
            assert calls == []
            path = tmp_path / "fw.json"
            write_json(path, framework_to_obj(fw))
            assert runner.invoke(main, ["analyze", str(path)]).exit_code == 0
            assert calls == [fw.n]

    def test_failed_conic_check_is_an_assertion_failure(self, monkeypatch):
        """Once a stress is built the conic check cannot fail, so a failure
        is a bug, in general position or not; no sweep runs."""
        fw = random_general_position_framework(12, 3, 2)
        pts = list(fw.points)
        pts[-1] = pts[0]
        moved = Framework(fw.graph, 3, pts)
        # the repeated point leaves every column an independent support
        assert certify_chordal(moved).verdict is Verdict.UNIVERSALLY_RIGID
        monkeypatch.setattr(certify, "_no_conic_at_infinity", lambda fw: False)
        for target in (fw, moved):
            with pytest.raises(certify.AssertionFailure, match="conic at infinity"):
                certify_chordal(target)


class TestCapEdge:
    def test_r3_just_under_the_cap(self):
        fw = random_general_position_framework(48, 3, 0)
        assert math.comb(48, 4) == 194_580 <= DEFAULT_POSITION_CAP
        assert is_general_position(fw) == (True, None)

    def test_r1_moment_curve_just_under_the_cap(self):
        fw = Framework(Graph.path(632), 1, [(t,) for t in range(632)])
        assert math.comb(632, 2) == 199_396 <= DEFAULT_POSITION_CAP
        assert is_general_position(fw) == (True, None)


def _reflect_subset(rng, fw):
    """A rational reflection of a random vertex subset, the rest fixed."""
    normal = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(fw.dim)]
    if not any(normal):
        normal[0] = F(1)
    offset = F(rng.randint(-9, 9), rng.randint(1, 4))
    nn = sum(x * x for x in normal)
    moved = set(rng.sample(range(1, fw.n + 1), rng.randint(1, fw.n)))

    def reflect(p):
        t = 2 * (sum(a * x for a, x in zip(normal, p)) - offset) / nn
        return tuple(x - t * a for x, a in zip(p, normal))

    return [reflect(fw.point(v)) if v in moved else fw.point(v) for v in range(1, fw.n + 1)]


def _variants(rng, fw):
    """(category, points of a second framework on fw's graph)."""
    out = [("identical", fw.points), ("reflected", _reflect_subset(rng, fw))]
    pts = list(fw.points)
    v = rng.randrange(fw.n)
    pts[v] = tuple(x + F(rng.choice([-1, 1]), rng.randint(1, 9)) for x in pts[v])
    out.append(("perturbed", pts))
    shift = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(fw.dim)]
    out.append(("translated", [tuple(x + s for x, s in zip(p, shift)) for p in fw.points]))
    cert = certify_chordal(fw)
    assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID
    out.append(("counterexample", cert.counterexample.points))
    return out


class TestFixedPairSkip:
    def test_matches_full_pairwise_comparison(self):
        rng = random.Random("fixed-pairs")
        seen = {}
        for i in range(40):
            dim = rng.randint(1, 3)
            n = rng.randint(dim + 2, 9)
            # A dim-tree has connectivity dim, so its certificate is a reflection.
            fw = Framework(gen_ktree(n, dim, i), dim,
                           random_general_position_framework(n, dim, i).points)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            for category, pts in _variants(rng, fw):
                try:
                    other = Framework(fw.graph, dim, pts)
                except DegenerateSpan:
                    continue
                eq = frameworks_equivalent(fw, other)
                cong = frameworks_congruent(fw, other)
                assert eq == oracles.equal_sq_distances(fw.points, pts, fw.graph.edges)
                assert cong == oracles.equal_sq_distances(fw.points, pts, pairs)
                seen.setdefault(category, set()).add((eq, cong))
        assert seen["identical"] == {(True, True)}
        assert seen["translated"] == {(True, True)}
        assert seen["counterexample"] == {(True, False)}
        assert (False, False) in seen["perturbed"] and (False, False) in seen["reflected"]

    def test_fixed_pairs_cost_nothing(self, monkeypatch):
        calls = []
        sq_dist = framework._lifted_sq_dist

        def counted(p, q):
            calls.append(1)
            return sq_dist(p, q)

        monkeypatch.setattr(framework, "_lifted_sq_dist", counted)
        fw = random_general_position_framework(9, 2, 4)
        copy = Framework(fw.graph, 2, fw.points)
        assert frameworks_congruent(fw, copy) and frameworks_equivalent(fw, copy)
        assert calls == []
        moved = Framework(fw.graph, 2, [(x + 1, y) for x, y in fw.points])
        assert frameworks_congruent(fw, moved) and frameworks_equivalent(fw, moved)
        assert len(calls) == 2 * (math.comb(9, 2) + len(fw.graph.edges))


BUCKET_KINDS = ("generic", "prefix-hull", "late-pair", "late-repeat")


def _bucket_case(rng, dim, n, kind):
    """n points with a denominator per coordinate and, unless generic, one
    forced dependency aimed at the bucketed last two levels: a later point
    in the affine hull of some of the first dim-1 points (a zero
    projection), a last point in the hull of those points and the one
    before it (a parallel pair at the end of the order), or a last point
    repeating another late one."""
    pts = [[F(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 7, 10 ** 6])) for _ in range(dim)]
           for _ in range(n)]
    prefix = list(range(dim - 1))
    if kind == "prefix-hull":
        j = rng.randrange(dim - 1, n)
        pts[j] = _affine_combination(rng, pts, rng.sample(prefix, rng.randint(1, dim - 1)))
    elif kind == "late-pair":
        pts[n - 1] = _affine_combination(rng, pts, prefix + [n - 2])
    elif kind == "late-repeat":
        pts[n - 1] = list(pts[rng.randrange(n - 3, n - 1)])
    return pts


class TestBucketedSweep:
    @pytest.mark.parametrize("dim, count, extra", [
        (1, 80, 8), (2, 80, 6), (3, 60, 5), (4, 40, 4), (5, 30, 3)])
    def test_matches_both_references_and_oracle(self, dim, count, extra):
        rng = random.Random(f"bucketed/{dim}")
        kinds = BUCKET_KINDS if dim >= 2 else ("generic", "late-repeat")
        seen, capped = Counter(), 0
        while sum(seen.values()) + capped < count:
            kind = rng.choice(kinds)
            n = rng.randint(dim + 3, dim + extra)
            try:
                fw = Framework(Graph.path(n), dim, _bucket_case(rng, dim, n, kind))
            except DegenerateSpan:
                continue
            total = math.comb(n, dim + 1)
            cap = rng.choice([None, total, total - 1])
            got = _outcome(is_general_position, fw, cap)
            assert got == _outcome(general_position_by_prefixes, fw, cap)
            assert got == _outcome(general_position_by_determinants, fw, cap)
            if cap == total - 1:
                assert got == ("cap", f"{total} subsets exceed the cap of {total - 1}")
                capped += 1
                continue
            witness = oracles.first_affinely_dependent(fw.points, dim + 1)
            assert got == (witness is None, witness)
            seen[kind, got[0]] += 1
        assert capped >= 3
        assert seen["generic", True] >= 3
        assert all(seen[kind, False] >= 3 for kind in kinds if kind != "generic")

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_zero_projection_on_the_prefix_hull(self, dim):
        # The last point repeats the first one (for dim >= 3, it lies on the
        # line through the first two): the first subset holding it and the
        # prefix is the first violator, decided by its zero projection.
        rng = random.Random(f"zero-projection/{dim}")
        while True:
            pts = [[F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim)]
                   for _ in range(dim + 4)]
            if dim >= 3:
                pts[-1] = _affine_combination(rng, pts, [0, 1])
            else:
                pts[-1] = list(pts[0])
            fw = Framework(Graph.path(len(pts)), dim, pts)
            witness = oracles.first_affinely_dependent(fw.points, dim + 1)
            if witness == tuple(range(1, dim + 1)) + (len(pts),):
                break
        assert is_general_position(fw) == (False, witness)
        assert general_position_by_prefixes(fw) == (False, witness)

    def test_parallel_pair_of_opposite_signs_late(self):
        # Two late points on opposite sides of the first one, collinear with
        # it: their projections are parallel with opposite signs.
        pts = [(0, 0), (5, 2), (3, 7), (-4, 9), (8, -3), (F(1, 2), F(1, 3)), (-1, F(-2, 3))]
        fw = Framework(Graph.path(7), 2, pts)
        expected = (False, (1, 6, 7))
        assert oracles.first_affinely_dependent(fw.points, 3) == expected[1]
        assert is_general_position(fw) == general_position_by_prefixes(fw) == expected

    def test_r1_buckets_the_empty_prefix(self):
        # In R^1 the pairs are bucketed directly: a repeat at the end of the
        # order, and equal points given with different denominators.
        pts = [(F(k * k, 3),) for k in range(1, 9)] + [(F(49, 3),)]
        fw = Framework(Graph.path(9), 1, pts)
        assert is_general_position(fw) == general_position_by_prefixes(fw) == (False, (7, 9))
        fw = Framework(Graph.path(4), 1, [(F(2, 4),), (3,), (F(1, 2),), (7,)])
        assert is_general_position(fw) == general_position_by_prefixes(fw) == (False, (1, 3))


class TestBucketedSweepCost:
    @pytest.mark.parametrize("n, dim", [(12, 1), (12, 2), (11, 3), (10, 4), (10, 5)])
    def test_cofactor_steps_only_on_short_prefixes(self, n, dim, monkeypatch):
        """On a generic input, one cofactor step per prefix of at most dim-1
        rows that the sweep can extend, and none with dim rows."""
        fw = random_general_position_framework(n, dim, 0)
        depths = []
        step = framework._cofactor_step

        def counted(basis, prev, v):
            depths.append(dim + 2 - len(basis))  # rows in the prefix it makes
            return step(basis, prev, v)

        monkeypatch.setattr(framework, "_cofactor_step", counted)
        assert is_general_position(fw) == (True, None)
        prefixes = {subset[:rows] for subset in itertools.combinations(range(n), dim + 1)
                    for rows in range(1, dim)}
        assert Counter(depths) == Counter(len(p) for p in prefixes)
        assert max(depths, default=0) <= dim - 1


def _rational_points(rng, dim, n):
    return [tuple(F(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 9, 11, 10 ** 9]))
                  for _ in range(dim)) for _ in range(n)]


class TestIntegerDistances:
    def test_matches_oracle_on_mixed_denominators_and_reflections(self):
        rng = random.Random("integer-distances")
        seen = Counter()
        for i in range(60):
            dim = rng.randint(1, 3)
            n = rng.randint(dim + 2, 9)
            try:
                fw = Framework(gen_ktree(n, dim, i), dim, _rational_points(rng, dim, n))
                variants = [("reflected", _reflect_subset(rng, fw)),
                            ("other", _rational_points(rng, dim, n))]
                pts = list(fw.points)
                v = rng.randrange(n)
                pts[v] = tuple(x + F(1, 10 ** 12) for x in pts[v])
                variants.append(("perturbed", pts))
                others = [(c, Framework(fw.graph, dim, p)) for c, p in variants]
            except DegenerateSpan:
                continue
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for category, other in others:
                for chosen in (fw.graph.edges, pairs):
                    got = framework._same_sq_dists(framework._scaled_pair(fw, other), chosen)
                    assert got == oracles.equal_sq_distances(fw.points, other.points, chosen)
                    seen[category, got] += 1
        assert seen["reflected", True] and seen["reflected", False]
        assert seen["perturbed", False] and seen["other", False]

    def test_equivalent_across_ambient_dimensions(self):
        # A path in R^2 and one in R^3 whose last bar is turned out of the
        # plane: equivalent, not congruent; tilting that bar breaks both.
        flat = [(0, 0), (F(3, 2), F(1, 3)), (F(-2, 5), 4), (F(7, 3), F(5, 7))]
        dx, dy = (a - b for a, b in zip(flat[3], flat[2]))
        lifted = [p + (0,) for p in flat[:3]]
        for last, equivalent in (((flat[2][0] + dx, flat[2][1], dy), True),
                                 ((flat[2][0] + dx, flat[2][1] + F(1, 10 ** 6), dy), False)):
            a = Framework(Graph.path(4), 2, flat)
            b = Framework(Graph.path(4), 3, lifted + [last])
            assert frameworks_equivalent(a, b) is equivalent
            assert frameworks_equivalent(a, b) == oracles.equal_sq_distances(
                a.points, b.points, a.graph.edges)
            assert not frameworks_congruent(a, b)
            assert not oracles.equal_sq_distances(
                a.points, b.points, itertools.combinations(range(1, 5), 2))

    def test_tells_apart_a_difference_of_one_in_ten_to_the_forty(self):
        # |p2 - p1|^2 is 1 in a and 1 + 10^-40 in b; in c it is 1 again,
        # written with other denominators.
        a = Framework(Graph.path(3), 2, [(0, 0), (1, 0), (F(1, 3), F(5, 7))])
        b = Framework(Graph.path(3), 2, [(0, 0), (1, F(1, 10 ** 20)), (F(1, 3), F(5, 7))])
        c = Framework(Graph.path(3), 2, [(0, 0), (F(3, 5), F(4, 5)), (F(1, 3), F(5, 7))])
        pairs = [(1, 2)]
        assert sq_dist(*b.points[:2]) - sq_dist(*a.points[:2]) == F(1, 10 ** 40)
        assert not framework._same_sq_dists(framework._scaled_pair(a, b), pairs)
        assert not oracles.equal_sq_distances(a.points, b.points, pairs)
        assert framework._same_sq_dists(framework._scaled_pair(a, c), pairs)
        assert oracles.equal_sq_distances(a.points, c.points, pairs)
        assert not frameworks_equivalent(a, b) and not frameworks_congruent(a, b)


class TestFrameworkFromLifts:
    """``Framework._moved`` against ``Framework`` on the same points: the
    reflected framework is built from the images' lifts, keeping the input's
    graph object and every other point and lift."""

    def test_matches_the_framework_of_the_points(self):
        rng = random.Random("moved-lifts")
        seen = Counter()
        for i in range(40):
            dim = rng.randint(1, 3)
            n = rng.randint(dim + 2, 9)
            g = gen_ktree(n, dim, i)
            pts = (random_general_position_framework(n, dim, i).points if i % 2
                   else _rational_points(rng, dim, n))
            try:
                fw = Framework(g, dim, pts)
                moved_pts = _reflect_subset(rng, fw)
                expected = Framework(g, dim, moved_pts)
            except DegenerateSpan:
                continue
            moved = {v: framework._lift(p) for v, p in enumerate(moved_pts)
                     if p != fw.points[v]}
            got = Framework._moved(fw, moved)
            assert got == expected and got._lifted == expected._lifted
            assert got.graph is fw.graph
            assert all(got._lifted[v] is fw._lifted[v] for v in range(n) if v not in moved)
            seen["rational" if any(p[-1] > 1 for p in fw._lifted) else "integer"] += 1
        assert seen["rational"] and seen["integer"]

    def test_reflected_lifts_are_the_lifts_of_the_images(self):
        rng = random.Random("reflected-lifts")
        for _ in range(200):
            dim = rng.randint(1, 4)
            normal = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim)]
            if not any(normal):
                normal[0] = F(1)
            offset = F(rng.randint(-9, 9), rng.randint(1, 4))
            plane = certify.Hyperplane(tuple(normal), offset)
            p = _rational_points(rng, dim, 1)[0]
            image = oracles.reflect_point(normal, offset, p)
            assert plane._reflect_lifted(framework._lift(p)) == framework._lift(image)
            assert plane.reflect(p) == image

    def test_a_move_that_does_not_span_fails_on_both_paths(self):
        # vertex 1 moved onto the line of 2, 3 and 4
        fw = Framework(Graph.path(4), 2, [(0, 1), (0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateSpan):
            Framework(fw.graph, 2, [(3, 0), *fw.points[1:]])
        with pytest.raises(DegenerateSpan):
            Framework._moved(fw, {0: framework._lift((F(3), F(0)))})
