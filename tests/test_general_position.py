"""The general-position sweep and the span check on shared prefix
cofactors, cross-checked against the per-subset determinant sweep
(``helpers.general_position_by_determinants``) and the cofactor-expansion
oracle; and the fixed-pair skip of the exact distance re-checks."""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import oracles
from chordalrig import certify, cli, exactmat, framework
from chordalrig.certify import Verdict, certify_chordal
from chordalrig.cli import main
from chordalrig.framework import (
    DEFAULT_POSITION_CAP,
    DegenerateSpan,
    Framework,
    SizeCapExceededError,
    _cofactor_step,
    _spans,
    _unit_rows,
    frameworks_congruent,
    frameworks_equivalent,
    is_general_position,
    random_general_position_framework,
)
from chordalrig.graphs import Graph, gen_ktree
from chordalrig.jsonio import framework_to_obj, write_json
from helpers import general_position_by_determinants


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
            assert _spans(rows, k) == (oracles.sym_rank(rows) == k)

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
    def test_no_determinant_calls(self, monkeypatch):
        def boom(rows):
            raise AssertionError("per-subset determinant")

        monkeypatch.setattr(exactmat, "_int_determinant", boom)
        assert not hasattr(framework, "_int_determinant")
        verdicts = set()
        for dim in (1, 2, 3, 4):
            for _, fw in _frameworks("cost", dim, 10, 4):
                got = is_general_position(fw)
                assert got == general_position_by_determinants(fw)
                verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_one_sweep_per_certify_and_analyze(self, monkeypatch, tmp_path, k5_minus_edge):
        calls = []

        def counted(fw, **kwargs):
            calls.append(fw.n)
            return is_general_position(fw, **kwargs)

        monkeypatch.setattr(certify, "is_general_position", counted)
        monkeypatch.setattr(cli, "is_general_position", counted)
        ur = random_general_position_framework(14, 2, 1)
        ngr = Framework(gen_ktree(10, 2, 3), 2, random_general_position_framework(10, 2, 3).points)
        runner = CliRunner()
        for fw, verdict in ((ur, Verdict.UNIVERSALLY_RIGID), (ngr, Verdict.NOT_GLOBALLY_RIGID),
                            (k5_minus_edge, Verdict.INCONCLUSIVE)):
            calls.clear()
            assert certify_chordal(fw).verdict is verdict
            assert calls == [fw.n]
            path = tmp_path / "fw.json"
            write_json(path, framework_to_obj(fw))
            calls.clear()
            assert runner.invoke(main, ["analyze", str(path)]).exit_code == 0
            assert calls == [fw.n]


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
        sq_dist = framework._sq_dist

        def counted(p, q):
            calls.append(1)
            return sq_dist(p, q)

        monkeypatch.setattr(framework, "_sq_dist", counted)
        fw = random_general_position_framework(9, 2, 4)
        copy = Framework(fw.graph, 2, fw.points)
        assert frameworks_congruent(fw, copy) and frameworks_equivalent(fw, copy)
        assert calls == []
        moved = Framework(fw.graph, 2, [(x + 1, y) for x, y in fw.points])
        assert frameworks_congruent(fw, moved) and frameworks_equivalent(fw, moved)
        assert len(calls) == 2 * (math.comb(9, 2) + len(fw.graph.edges))
