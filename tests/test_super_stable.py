"""Verdicts without the general-position sweep.

A PSD stress of rank n-r-1 whose edge directions lie on no conic at
infinity proves universal rigidity (Connelly's super stability), and a
re-checked reflection disproves global rigidity, so neither
``certify_chordal`` nor ``psdize_stress`` sweeps: where the evidence fails,
the failure names r+1 affinely dependent points. The conic check is
compared with sympy's null space (``oracles.conic_at_infinity``) on seeded
and crafted inputs, and shown to hold wherever a Gale column is built;
frameworks moved out of general position are certified, each stress
re-checked by ``validate_stress_matrix`` and the sympy oracle, each
counterexample by independent distances and each witness by sympy's rank;
and ``chordalrig psdize`` turns indefinite stresses of such frameworks
into PSD ones.
"""

import json
import random
import re
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import helpers
import oracles
from chordalrig import certify, framework
from chordalrig.certify import (
    DegenerateEvidence,
    PreconditionViolated,
    Reason,
    Verdict,
    certify_chordal,
    unit_triangular_gale,
)
from chordalrig.cli import main
from chordalrig.exactmat import Matrix
from chordalrig.framework import (
    DegenerateSpan,
    Framework,
    GaleMatrix,
    _triangular_violation,
    affinely_independent,
    is_general_position,
    random_general_position_framework,
    validate_stress_matrix,
)
from chordalrig.graphs import Graph, gen_ktree
from chordalrig.jsonio import framework_to_obj, load_stress, stress_to_obj, write_json


def _check_conic(fw):
    """The library's verdict, which must agree with the oracle's; a conic
    the oracle returns must be a nonzero symmetric Q with d^T Q d = 0 on
    every edge. Returns the oracle's Q or None."""
    q = oracles.conic_at_infinity(fw)
    assert certify._no_conic_at_infinity(fw) == (q is None)
    if q is not None:
        assert any(any(row) for row in q)
        assert all(q[a][b] == q[b][a] for a in range(fw.dim) for b in range(fw.dim))
        for u, v in fw.graph.edges:
            d = [x - y for x, y in zip(fw.point(u), fw.point(v))]
            assert sum(d[a] * q[a][b] * d[b]
                       for a in range(fw.dim) for b in range(fw.dim)) == 0
    return q


def _star(center, directions):
    """The star from ``center`` to center + d for each direction d."""
    k = len(directions)
    pts = [center] + [[c + x for c, x in zip(center, d)] for d in directions]
    return Framework(Graph(k + 1, [(1, i) for i in range(2, k + 2)]), len(center), pts)


def _on_quadric(rng, q, count):
    """Rational directions d with d^T Q d = 0 on the quadric of a symmetric
    integer Q holding the direction e_0 (Q_00 = 0): the line e_0 + t w
    meets it again at t = -2 (Q w)_0 / w^T Q w."""
    r = len(q)
    out = []
    while len(out) < count:
        w = [rng.randint(-6, 6) for _ in range(r)]
        qw = [sum(q[a][b] * w[b] for b in range(r)) for a in range(r)]
        wqw = sum(x * y for x, y in zip(w, qw))
        if not wqw or not qw[0]:
            continue
        t = F(-2 * qw[0], wqw)
        out.append([(a == 0) + t * x for a, x in enumerate(w)])
    return out


class TestConicAtInfinity:
    def test_seeded_against_sympy_null_space(self):
        """Trees and k-trees of every k up to r+1 with rational points,
        r = 1..4, so inputs with fewer edges than monomials, with exactly one
        fewer, and with more all occur."""
        seen = Counter()
        for r in (1, 2, 3, 4):
            rng = random.Random(f"conic/{r}")
            monomials = r * (r + 1) // 2
            for i in range(30):
                n = rng.randint(r + 1, max(r + 2, monomials + 1))
                k = rng.choice([1, rng.randint(1, min(r + 1, n - 1))])
                pts = [[F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(r)]
                       for _ in range(n)]
                try:
                    fw = Framework(gen_ktree(n, k, i), r, pts)
                except DegenerateSpan:
                    continue
                edges = len(fw.graph.edges)
                q = _check_conic(fw)
                seen[r, q is None] += 1
                seen["one short"] += edges == monomials - 1
        assert all(seen[r, True] and seen[r, False] for r in (2, 3, 4))
        assert seen[1, True] and seen["one short"] >= 5

    def test_axis_parallel_edges_lie_on_xy(self):
        # A staircase path and a comb: every edge is horizontal or vertical.
        stairs = [(0, 0), (1, 0), (1, 2), (F(7, 2), 2), (F(7, 2), -1), (5, -1)]
        comb = [(0, 0), (2, 0), (5, 0), (0, 3), (2, F(1, 2)), (5, -4)]
        for fw in (Framework(Graph.path(6), 2, stairs),
                   Framework(Graph(6, [(1, 2), (2, 3), (1, 4), (2, 5), (3, 6)]), 2, comb)):
            q = _check_conic(fw)
            assert q is not None and q[0][0] == q[1][1] == 0 != q[0][1]

    def test_cone_generators_in_r3(self):
        """Edges along generators of the cone x^2 + y^2 = z^2, from Pythagorean
        triples; five generic generators leave only the cone itself."""
        gens = [(3, 4, 5), (5, -12, 13), (-8, 15, 17), (4, 3, -5), (-7, -24, 25), (20, 21, 29)]
        for center in ((0, 0, 0), (F(1, 3), -2, 7)):
            fw = _star(list(center), [[F(i + 1, 2) * x for x in g] for i, g in enumerate(gens)])
            q = _check_conic(fw)
            assert q is not None
            scale = q[0][0]
            assert q == [[scale, 0, 0], [0, scale, 0], [0, 0, -scale]]
        cone = _star([1, 1, 1], [list(g) for g in gens] + [[1, 0, 0]])
        assert _check_conic(cone) is None

    def test_a_quadric_with_every_monomial(self):
        """Translated stars along a quadric whose every coefficient is
        nonzero: the check must read every product d_a d_b, and the edge
        directions, not the points."""
        for r in (2, 3, 4):
            rng = random.Random(f"quadric/{r}")
            monomials = r * (r + 1) // 2
            for _ in range(4):
                q = [[0] * r for _ in range(r)]
                for a in range(r):
                    for b in range(a, r):
                        if (a, b) != (0, 0):
                            q[a][b] = q[b][a] = rng.choice([-1, 1]) * rng.randint(1, 5)
                center = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(r)]
                # e_0 itself is on the quadric; in R^2 the other directions
                # are all parallel
                directions = [[1] + [0] * (r - 1)] + _on_quadric(rng, q, monomials + 2)
                fw = _star(center, directions)
                found = _check_conic(fw)
                assert found is not None
                ratio = found[0][1] / q[0][1]
                assert found == [[ratio * x for x in row] for row in q]

    def test_a_simplex_already_fixes_the_quadric(self):
        # The r(r+1)/2 edges of any simplex meet no conic at infinity, so a
        # Gale column's support clique makes the check pass.
        for r in (1, 2, 3, 4):
            rng = random.Random(f"simplex/{r}")
            pts = [[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(r)]
                   for _ in range(r + 1)]
            fw = Framework(Graph.complete(r + 1), r, pts)
            assert _check_conic(fw) is None

    def test_no_conic_wherever_a_gale_column_is_built(self):
        """The support clique of a built column spans an r-simplex, so the
        conic check holds on every framework where ``_gale_columns`` builds
        all its columns or fails after the first, in general position or
        not; ``certify_chordal`` relies on it."""
        seen = Counter()
        for r in (1, 2, 3, 4):
            rng = random.Random(f"conic-built/{r}")
            for i in range(40):
                n = rng.randint(r + 2, r + 7)
                pts = [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(r)]
                       for _ in range(n)]
                try:
                    fw = Framework(gen_ktree(n, r + 1, i), r, pts)
                except DegenerateSpan:
                    continue
                try:
                    helpers.gale_columns(fw, certify._elimination_order(fw.graph))
                except DegenerateEvidence as exc:
                    if re.search(r"column (\d+)", str(exc)).group(1) == "1":
                        continue
                    seen["later column fails"] += 1
                assert _check_conic(fw) is None
                seen[r, is_general_position(fw)[0]] += 1
        assert all(seen[r, gp] for r in (1, 2, 3, 4) for gp in (True, False))
        assert seen["later column fails"]


    def test_rational_points_certified_within_a_second(self):
        """Each edge direction is scaled to integers on its own, not by one
        denominator common to every point, so rational points with
        denominators up to 10^6 keep the check cheap: n=300 in R^4 is
        certified within a second."""
        rng = random.Random(0)
        g = gen_ktree(300, 5, 0)
        fw = Framework(g, 4, [[F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                               for _ in range(4)] for _ in range(g.n)])
        start = time.perf_counter()
        cert = certify_chordal(fw)
        elapsed = time.perf_counter() - start
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID
        assert elapsed < 1.0, f"certify_chordal took {elapsed:.1f}s"


def _check_witness(fw, cert):
    """An Inconclusive verdict names r+1 points that sympy finds affinely
    dependent."""
    assert (cert.verdict, cert.reason) == (Verdict.INCONCLUSIVE, Reason.NOT_GENERAL_POSITION)
    witness = cert.detail
    assert len(witness) == fw.dim + 1 and list(witness) == sorted(set(witness))
    assert oracles.sym_rank([list(fw.point(v)) + [1] for v in witness]) <= fw.dim


class TestNotInGeneralPosition:
    def test_stresses_of_moved_r_plus_one_trees(self):
        seen = Counter()
        for fw in helpers.ur_moved_suite(60):
            cert = certify_chordal(fw)
            seen[cert.verdict, is_general_position(fw)[0]] += 1
            if cert.verdict is Verdict.INCONCLUSIVE:
                _check_witness(fw, cert)
                continue
            assert cert.verdict is Verdict.UNIVERSALLY_RIGID
            s = cert.stress.matrix
            rep = validate_stress_matrix(fw, cert.stress)
            assert rep.is_stress_matrix and rep.psd and rep.rank == fw.rbar
            assert oracles.rank_and_generic_profile(s.to_lists()) == (
                fw.rbar, rep.generic_rank_profile)
            assert _check_conic(fw) is None
        assert seen == {(Verdict.UNIVERSALLY_RIGID, False): 51,
                        (Verdict.INCONCLUSIVE, False): 9}

    def test_gale_factors_of_moved_r_plus_one_trees(self):
        """``unit_triangular_gale`` sweeps no more than ``certify_chordal``:
        on each moved (r+1)-tree that gets a stress it builds the Gale
        factor of that stress, and on the others a column names r+1
        dependent points."""
        seen = Counter()
        for fw in helpers.ur_moved_suite(60):
            cert = certify_chordal(fw)
            seen[cert.verdict] += 1
            if cert.verdict is Verdict.INCONCLUSIVE:
                with pytest.raises(PreconditionViolated, match="witness") as err:
                    unit_triangular_gale(fw, cert.peo)
                witness = err.value.__cause__.witness
                assert len(witness) == fw.dim + 1
                assert not affinely_independent([fw.point(v) for v in witness])
                continue
            z = unit_triangular_gale(fw, cert.peo)
            assert _triangular_violation(z.columns, fw.graph, cert.peo) is None
            p = helpers.extended_config_matrix(fw)
            assert p * z.matrix == helpers.zeros(fw.dim + 1, fw.rbar)
            assert helpers.gale_stress(fw, z, Matrix.identity(fw.rbar)) == cert.stress
        assert seen == {Verdict.UNIVERSALLY_RIGID: 51, Verdict.INCONCLUSIVE: 9}

    def test_counterexamples_of_moved_r_trees(self):
        seen = Counter()
        for fw in helpers.ngr_moved_suite(200):
            cert = certify_chordal(fw)
            seen[cert.verdict, is_general_position(fw)[0]] += 1
            if cert.verdict is Verdict.INCONCLUSIVE:
                _check_witness(fw, cert)
                continue
            assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID
            other = cert.counterexample.points
            assert oracles.equal_sq_distances(fw.points, other, fw.graph.edges)
            pairs = [(u, v) for u in range(1, fw.n + 1) for v in range(u + 1, fw.n + 1)]
            assert not oracles.equal_sq_distances(fw.points, other, pairs)
        assert seen == {(Verdict.NOT_GLOBALLY_RIGID, False): 152,
                        (Verdict.INCONCLUSIVE, False): 48}

    def test_certify_never_sweeps_on_the_moved_suites(self, monkeypatch):
        """A spy on the sweep, under every name it is reachable by, sees
        no call from ``certify_chordal`` on either suite."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("certify_chordal swept")

        # generating the suites sweeps
        suites = [*helpers.ur_moved_suite(60), *helpers.ngr_moved_suite(200)]
        assert not hasattr(certify, "is_general_position")
        monkeypatch.setattr(framework, "is_general_position", spy)
        monkeypatch.setattr(framework, "_first_dependent", spy)
        verdicts = Counter(certify_chordal(fw).verdict for fw in suites)
        assert calls == [] and verdicts[Verdict.INCONCLUSIVE] == 9 + 48

    def test_k5_minus_edge_stays_inconclusive(self, k5_minus_edge):
        cert = certify_chordal(k5_minus_edge)
        assert (cert.verdict, cert.reason, cert.detail) == (
            Verdict.INCONCLUSIVE, Reason.NOT_GENERAL_POSITION, (2, 4, 5))
        _check_witness(k5_minus_edge, cert)

    def test_crafted_conic_with_high_connectivity(self):
        """A 4-tree in R^3 whose edges all have dx = 0 or dy = 0 (the conic
        xy = 0): its K5 has four collinear points, so a column has no
        independent support and names four of them."""
        g = Graph(6, [e for e in Graph.complete(5).edges] + [(v, 6) for v in (2, 3, 4, 5)])
        pts = [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 1, 0)]
        fw = Framework(g, 3, pts)
        assert _check_conic(fw) is not None
        cert = certify_chordal(fw)
        assert (cert.verdict, cert.detail) == (Verdict.INCONCLUSIVE, (2, 3, 4, 5))
        _check_witness(fw, cert)


class TestPsdizeWithoutGeneralPosition:
    def test_indefinite_stresses_of_moved_frameworks(self, tmp_path):
        """S = Z D Z^T with Z the Gale columns along the ordering psdize
        picks and D a diagonal of both signs: an indefinite stress of
        maximal rank with generic rank profile in that order."""
        runner = CliRunner()
        done = seed = 0
        while done < 59:
            seed += 1
            rng = random.Random(f"psdize-moved/{seed}")
            r = rng.choice((2, 3))
            base = random_general_position_framework(10, r, seed)
            fw = helpers.moved_framework(rng, base.graph, base)
            if fw is None or is_general_position(fw)[0]:
                continue
            peo = certify._elimination_order(fw.graph)
            try:
                z = GaleMatrix(helpers.gale_columns(fw, peo), fw.n)
            except certify.DegenerateEvidence:
                continue
            d = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(fw.rbar)]
            d[0], d[-1] = abs(d[0]), -abs(d[-1])
            s = helpers.gale_stress(fw, z, Matrix([[d[i] if i == j else 0 for j in range(fw.rbar)]
                                               for i in range(fw.rbar)]))
            assert not validate_stress_matrix(fw, s).psd
            paths = [tmp_path / f"{name}.json" for name in ("fw", "s", "out")]
            write_json(paths[0], framework_to_obj(fw))
            write_json(paths[1], stress_to_obj(s))
            result = runner.invoke(main, ["psdize", str(paths[0]), "--stress", str(paths[1]),
                                          "--output", str(paths[2])])
            assert result.exit_code == 0, result.stderr
            assert result.output.splitlines()[:2] == [f"rank: {fw.rbar}", "psd: yes"]
            out = load_stress(paths[2])
            rep = validate_stress_matrix(fw, out)
            assert rep.is_stress_matrix and rep.psd and rep.rank == fw.rbar
            assert json.loads(paths[2].read_text()) == stress_to_obj(out)
            done += 1
        assert seed < 90
