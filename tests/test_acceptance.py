"""End-to-end acceptance checks.

Each test prints exactly one ``ACCEPTANCE <k>: PASS`` or ``FAIL`` line and
enforces its own wall-clock budget; everything numeric is exact rational
arithmetic, so equality assertions carry zero tolerance.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import helpers
import oracles
from helpers import (
    all_square_submatrices_nonsingular,
    elimination_preserves_zero_pattern,
    leading_principal_minor,
    psd_check,
    relabel_to_positions,
)
from chordalrig.certify import certify_chordal, psdize_stress
from chordalrig.exactmat import Matrix, _sparse_factor, _sparse_rows, rank
from chordalrig.framework import (
    StressMatrix,
    is_general_position,
    gale_matrix,
    random_general_position_framework,
    validate_stress_matrix,
)
from chordalrig.graphs import (
    Ordering,
    chordal_connectivity,
    gen_ktree,
    is_chordal,
    mcs_order,
)
from chordalrig.certify import Verdict

F = Fraction


@contextmanager
def criterion(number, capsys, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS")


def test_1_psdize_reproduces_reference_factorization(capsys, hexagon):
    with criterion(1, capsys, 1.0):
        res = psdize_stress(hexagon.fw, StressMatrix(hexagon.stress))
        assert helpers.eliminated(res) == hexagon.eliminated
        assert res.gale.matrix == hexagon.gale
        assert res.stress.matrix == hexagon.psd


def test_2_stress_validation_reports_exact_profile(capsys, hexagon):
    with criterion(2, capsys, 1.0):
        rep = validate_stress_matrix(hexagon.fw, StressMatrix(hexagon.stress))
        assert rep.is_stress_matrix
        assert rep.rank == 3
        assert rep.generic_rank_profile
        assert not rep.psd
        assert leading_principal_minor(hexagon.stress, 1) == 10
        assert leading_principal_minor(hexagon.stress, 2) == -20
        third = leading_principal_minor(hexagon.stress, 3)
        assert third == -10
        corner = [[hexagon.stress[i, j] for j in range(3)] for i in range(3)]
        assert oracles.det_cofactor(corner) == third
        gram = validate_stress_matrix(hexagon.fw, StressMatrix(hexagon.psd))
        assert gram.is_stress_matrix and gram.psd and gram.rank == 3


def test_3_degenerate_and_nonchordal_inputs_classified(capsys, k5_minus_edge, prism):
    with criterion(3, capsys, 1.0):
        ok, witness = is_general_position(k5_minus_edge)
        assert not ok and witness == (1, 2, 3)
        chord_a = is_chordal(k5_minus_edge.graph)
        assert chord_a.chordal
        assert chordal_connectivity(k5_minus_edge.graph, chord_a.peo) == 3

        assert is_general_position(prism) == (True, None)
        edges = list(prism.graph.edges)
        assert oracles.brute_connectivity(prism.n, edges) == 3
        chord_b = is_chordal(prism.graph)
        assert not chord_b.chordal
        cycle = chord_b.chordless_cycle
        assert len(cycle) == 4
        for i, u in enumerate(cycle):
            assert prism.graph.has_edge(u, cycle[(i + 1) % 4])
        assert not prism.graph.has_edge(cycle[0], cycle[2])
        assert not prism.graph.has_edge(cycle[1], cycle[3])


def test_4_certification_property_suite(capsys):
    with criterion(4, capsys, 60.0):
        for i in range(200):
            r = (i % 3) + 1
            rng = random.Random(10_000 + i)
            n = rng.randint(r + 2, 10)
            fw = random_general_position_framework(n, r, 10_000 + i)
            cert = certify_chordal(fw)
            assert cert.verdict is Verdict.UNIVERSALLY_RIGID, (r, n, i)
            rep = validate_stress_matrix(fw, cert.stress)
            assert rep.symmetric and rep.pattern_ok and rep.kernel_ok
            assert rep.psd and rep.rank == fw.rbar

        for i in range(200):
            r = (i % 3) + 1
            rng = random.Random(20_000 + i)
            n = rng.randint(r + 3, 10)
            g = gen_ktree(n, r + 1, 20_000 + i)
            g = helpers.thin_to_low_connectivity(g, r, rng)
            fw = helpers.sample_points(g, r, rng)
            cert = certify_chordal(fw)
            assert cert.verdict is Verdict.NOT_GLOBALLY_RIGID, (r, n, i)
            assert cert.connectivity <= r
            other = cert.counterexample
            assert helpers.equivalent_by_hand(fw, other)
            assert not helpers.congruent_by_hand(fw, other)


def test_5_elimination_keeps_chordal_zero_pattern(capsys):
    with criterion(5, capsys, 30.0):
        for i in range(200):
            rng = random.Random(30_000 + i)
            n = rng.randint(3, 8)
            k = rng.randint(1, n - 1)
            g = gen_ktree(n, k, 30_000 + i)
            if rng.random() < 0.5:
                g = helpers.thin_to_low_connectivity(g, rng.randint(1, k), rng)
            g = relabel_to_positions(g, mcs_order(g))
            a = helpers.chordal_pattern_matrix(rng, g)
            assert elimination_preserves_zero_pattern(
                g, Ordering.identity(n), a, rank(a))


def test_6_gale_and_stress_submatrices_nonsingular(capsys):
    with criterion(6, capsys, 60.0):
        for i in range(100):
            r = (i % 3) + 1
            rng = random.Random(40_000 + i)
            n = rng.randint(r + 2, 8)
            fw = random_general_position_framework(n, r, 40_000 + i)
            z = gale_matrix(fw)
            ok, bad = all_square_submatrices_nonsingular(z.matrix, fw.rbar)
            assert ok, (r, n, i, bad)
            cert = certify_chordal(fw)
            ok, bad = all_square_submatrices_nonsingular(cert.stress.matrix, fw.rbar)
            assert ok, (r, n, i, bad)


def test_7_psd_check_matches_principal_minor_oracle(capsys):
    with criterion(7, capsys, 30.0):
        rng = random.Random(50_000)
        for i in range(500):
            n = rng.randint(1, 6)
            kind = i % 5
            if kind == 0:
                m = helpers.random_symmetric_matrix(rng, n)
            elif kind in (1, 2):
                cols = rng.randint(1, n)
                w = Matrix([[helpers.rand_fraction(rng) for _ in range(cols)]
                            for _ in range(n)])
                m = w * w.transpose()
                if kind == 2:
                    m = Matrix([[-x for x in row] for row in m.data])
            elif kind == 3:
                m = Matrix([[helpers.rand_fraction(rng) if a == b else F(0)
                             for b in range(n)] for a in range(n)])
            else:
                m = helpers.zeros(n, n)
            expected = oracles.principal_minors_nonneg(m.data)
            result = _sparse_factor(_sparse_rows(m), range(n))
            assert (result.psd, result.rank) == (expected, oracles.sym_rank(m.data)), (i, m)
            got = psd_check(m)
            assert got.is_psd == expected, (i, m)
            if got.is_psd:
                assert got.rank == rank(m)
            else:
                v = got.witness
                value = sum(v[a] * m[a, b] * v[b] for a in range(n) for b in range(n))
                assert value < 0
