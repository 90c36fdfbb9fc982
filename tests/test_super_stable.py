"""Verdicts without the general-position sweep.

A PSD stress of rank n-r-1 whose edge directions lie on no conic at
infinity proves universal rigidity (Connelly's super stability), and a
re-checked reflection disproves global rigidity, so ``certify_chordal``
sweeps only on a failure path and ``psdize_stress`` not at all. The conic
check is compared with sympy's null space (``oracles.conic_at_infinity``)
on seeded and crafted inputs; frameworks moved out of general position are
certified, each stress re-checked by ``validate_stress_matrix`` and the
sympy oracle and each counterexample by independent distances; and
``chordalrig psdize`` turns indefinite stresses of such frameworks into PSD
ones.
"""

import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

import oracles
from chordalrig import certify
from chordalrig.certify import (
    PreconditionViolated,
    Reason,
    Verdict,
    certify_chordal,
    psd_stress_from_gale,
    unit_triangular_gale,
)
from chordalrig.cli import main
from chordalrig.exactmat import Matrix
from chordalrig.framework import (
    DegenerateSpan,
    Framework,
    affinely_independent,
    extended_config_matrix,
    is_general_position,
    is_unit_triangular_gale,
    random_general_position_framework,
    stress_from_psi,
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


def _moved_framework(rng, graph, base):
    """``base``'s points on ``graph``, one of them moved onto the line
    through two others; None when the result does not span."""
    pts = [list(p) for p in base.points]
    j, a, b = rng.sample(range(base.n), 3)
    t = F(rng.randint(-5, 5), rng.randint(1, 4))
    pts[j] = [x + t * (y - x) for x, y in zip(pts[a], pts[b])]
    try:
        return Framework(graph, base.dim, pts)
    except DegenerateSpan:
        return None


def _ur_suite(count):
    """Seeded (r+1)-trees in R^2 and R^3, n = 10, one point moved."""
    for i in range(count):
        rng = random.Random(f"ur-moved/{i}")
        r = rng.choice((2, 3))
        base = random_general_position_framework(10, r, i)
        fw = _moved_framework(rng, base.graph, base)
        if fw is not None:
            yield fw


class TestNotInGeneralPosition:
    def test_stresses_of_moved_r_plus_one_trees(self):
        seen = Counter()
        for fw in _ur_suite(60):
            cert = certify_chordal(fw)
            gp, witness = is_general_position(fw)
            seen[cert.verdict, gp] += 1
            if cert.verdict is Verdict.INCONCLUSIVE:
                assert (cert.reason, cert.detail) == (Reason.NOT_GENERAL_POSITION, witness)
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
        for fw in _ur_suite(60):
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
            assert is_unit_triangular_gale(z.matrix, fw.graph, cert.peo) == (True, None)
            assert (extended_config_matrix(fw) * z.matrix).is_zero
            assert psd_stress_from_gale(fw, z) == cert.stress
        assert seen == {Verdict.UNIVERSALLY_RIGID: 51, Verdict.INCONCLUSIVE: 9}

    def test_counterexamples_of_moved_r_trees(self):
        """Seeded r-trees in R^2 and R^3, connectivity r, one point moved."""
        seen = Counter()
        for i in range(200):
            rng = random.Random(f"ngr-moved/{i}")
            r = rng.choice((2, 3))
            n = rng.randint(r + 3, 12)
            fw = _moved_framework(rng, gen_ktree(n, r, i),
                                  random_general_position_framework(n, r, i))
            if fw is None:
                continue
            cert = certify_chordal(fw)
            gp, witness = is_general_position(fw)
            seen[cert.verdict, gp] += 1
            if cert.verdict is Verdict.INCONCLUSIVE:
                assert (cert.reason, cert.detail) == (Reason.NOT_GENERAL_POSITION, witness)
                continue
            assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID
            other = cert.counterexample.points
            assert oracles.equal_sq_distances(fw.points, other, fw.graph.edges)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            assert not oracles.equal_sq_distances(fw.points, other, pairs)
        assert seen == {(Verdict.NOT_GLOBALLY_RIGID, False): 152,
                        (Verdict.INCONCLUSIVE, False): 48}

    def test_k5_minus_edge_stays_inconclusive(self, k5_minus_edge):
        cert = certify_chordal(k5_minus_edge)
        assert (cert.verdict, cert.reason, cert.detail) == (
            Verdict.INCONCLUSIVE, Reason.NOT_GENERAL_POSITION, (1, 2, 3))

    def test_crafted_conic_with_high_connectivity(self):
        """A 4-tree in R^3 whose edges all have dx = 0 or dy = 0 (the conic
        xy = 0): its K5 has four collinear points, so a column has no
        independent support, and the sweep names four coplanar ones."""
        g = Graph(6, [e for e in Graph.complete(5).edges] + [(v, 6) for v in (2, 3, 4, 5)])
        pts = [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 1, 0)]
        fw = Framework(g, 3, pts)
        assert _check_conic(fw) is not None
        cert = certify_chordal(fw)
        assert (cert.verdict, cert.detail) == (Verdict.INCONCLUSIVE, (1, 2, 3, 4))


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
            fw = _moved_framework(rng, base.graph, base)
            if fw is None or is_general_position(fw)[0]:
                continue
            peo = certify._elimination_order(fw.graph)
            try:
                z = certify._gale_matrix(certify._gale_columns(fw, peo), fw.n)
            except certify.DegenerateEvidence:
                continue
            d = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(fw.rbar)]
            d[0], d[-1] = abs(d[0]), -abs(d[-1])
            s = stress_from_psi(fw, z, Matrix([[d[i] if i == j else 0 for j in range(fw.rbar)]
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
