import math
import random
from fractions import Fraction

import pytest

import oracles
from helpers import (
    determinant,
    extended_config_matrix,
    gale_stress,
    rational_points_framework,
    relabelled,
    zeros,
)
from chordalrig.certify import certify_chordal
from chordalrig.exactmat import (
    DimensionMismatch,
    Matrix,
    _integer_row,
    _sparse_factor,
    _sparse_rows,
    rank,
)
from chordalrig.framework import (
    DegenerateSpan,
    Framework,
    FrameworkError,
    GaleMatrix,
    GraphMismatch,
    InvalidStressMatrix,
    NoGaleMatrix,
    NotEquilibrium,
    SizeCapExceededError,
    SizeMismatch,
    StressMatrix,
    StressWeights,
    _cleared,
    _triangular_violation,
    affinely_independent,
    frameworks_congruent,
    frameworks_equivalent,
    gale_matrix,
    is_general_position,
    omega_from_stress,
    random_general_position_framework,
    stress_from_omega,
    validate_stress_matrix,
    verify_equilibrium_stress,
)
from chordalrig.graphs import Graph, Ordering, is_chordal

F = Fraction


def hexagon_omega(hexagon):
    s = hexagon.stress
    return StressWeights({(u, v): -s[u - 1, v - 1] for u, v in hexagon.fw.graph.edges})


class TestFramework:
    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            Framework(Graph.path(2), 1, [(0.5,), (1,)])

    def test_point_count_checked(self):
        with pytest.raises(FrameworkError):
            Framework(Graph.path(3), 1, [(0,), (1,)])

    def test_dimension_positive(self):
        with pytest.raises(FrameworkError):
            Framework(Graph.path(2), 0, [(), ()])

    def test_connected_required(self):
        with pytest.raises(FrameworkError):
            Framework(Graph(3, [(1, 2)]), 1, [(0,), (1,), (2,)])

    def test_affine_span_required(self):
        with pytest.raises(DegenerateSpan):
            Framework(Graph.complete(3), 2, [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(DegenerateSpan):
            Framework(Graph.complete(2), 2, [(0, 0), (1, 0)])

    def test_string_coordinates(self):
        fw = Framework(Graph.path(2), 1, [("1/2",), ("3",)])
        assert fw.point(1) == (F(1, 2),)

    def test_rbar(self, hexagon, k3_line):
        assert hexagon.fw.rbar == 3
        assert k3_line.rbar == 1


class TestExtendedConfig:
    def test_hexagon(self, hexagon):
        assert extended_config_matrix(hexagon.fw) == Matrix([
            [-2, -1, -1, 1, 1, 2],
            [0, -1, 1, -1, 1, 0],
            [1, 1, 1, 1, 1, 1],
        ])

    def test_k3_line(self, k3_line):
        assert extended_config_matrix(k3_line) == Matrix([[0, 1, 2], [1, 1, 1]])

    def test_full_row_rank(self, hexagon):
        assert rank(extended_config_matrix(hexagon.fw)) == 3


class TestAffinelyIndependent:
    def test_two_distinct_points(self):
        assert affinely_independent([(0,), (1,)])

    def test_collinear_trio(self):
        assert not affinely_independent([(-60, 0), (-40, 0), (-20, 0)])

    def test_hexagon_trio(self):
        assert affinely_independent([(-2, 0), (-1, -1), (-1, 1)])

    def test_empty(self):
        assert affinely_independent([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            affinely_independent([(0, 1), (1,)])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            affinely_independent([(0, 1), (Fraction(1, 2), 0.5)])


class TestGeneralPosition:
    def test_hexagon(self, hexagon):
        assert is_general_position(hexagon.fw) == (True, None)

    def test_collinear_witness(self, k5_minus_edge):
        ok, witness = is_general_position(k5_minus_edge)
        assert not ok
        assert witness == (1, 2, 3)

    def test_k3_line(self, k3_line):
        assert is_general_position(k3_line) == (True, None)

    def test_cap(self, hexagon):
        with pytest.raises(SizeCapExceededError):
            is_general_position(hexagon.fw, cap=5)

    def test_none_cap_is_default(self, hexagon):
        assert is_general_position(hexagon.fw, cap=None) == (True, None)
        # C(633, 2) = 200,028 subsets, just above DEFAULT_POSITION_CAP
        path = Framework(Graph(633, [(v, v + 1) for v in range(1, 633)]), 1,
                         [(v,) for v in range(633)])
        with pytest.raises(SizeCapExceededError, match="200028 subsets exceed the cap of 200000"):
            is_general_position(path, cap=None)


def _degenerate_points(rng, dim):
    """Points with per-point denominators and, in most cases, one forced
    affine dependency: a repeated point, a point on the affine hull of
    earlier ones, or a prefix of dim+1 points on one hyperplane."""
    n = rng.randint(dim + 2, dim + 5)
    pts = []
    for _ in range(n):
        den = rng.randint(1, 9)
        pts.append([F(rng.randint(-30, 30), den * rng.randint(1, 3)) for _ in range(dim)])
    kind = rng.choice(["generic", "repeat", "hull", "prefix"])
    if kind == "repeat":
        i, j = sorted(rng.sample(range(n), 2))
        pts[j] = list(pts[i])
    elif kind == "hull":
        j = rng.randint(dim, n - 1)
        base = rng.sample(range(j), dim)
        weights = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in base[1:]]
        weights.insert(0, 1 - sum(weights))
        pts[j] = [sum(w * pts[b][c] for w, b in zip(weights, base)) for c in range(dim)]
    elif kind == "prefix":
        c = rng.randrange(dim)
        for i in range(1, dim + 1):
            pts[i][c] = pts[0][c]
    return pts


class TestGeneralPositionProperty:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, dim):
        rng = random.Random(f"general-position/{dim}")
        seen = {True: 0, False: 0}
        for _ in range(60):
            pts = _degenerate_points(rng, dim)
            try:
                fw = Framework(Graph.path(len(pts)), dim, pts)
            except DegenerateSpan:
                continue
            witness = oracles.first_affinely_dependent(fw.points, dim + 1)
            assert is_general_position(fw) == (witness is None, witness)
            seen[witness is None] += 1
        assert seen[True] >= 5 and seen[False] >= 20

    def test_large_mixed_denominators(self):
        rng = random.Random("general-position/large")
        for _ in range(20):
            pts = [[F(rng.getrandbits(220) - 2 ** 219, rng.getrandbits(200) + 1)
                    for _ in range(3)] for _ in range(6)]
            if rng.random() < 0.5:
                pts[5] = [(a + 2 * b) / 3 for a, b in zip(pts[1], pts[4])]
            fw = Framework(Graph.path(6), 3, pts)
            witness = oracles.first_affinely_dependent(fw.points, 4)
            assert is_general_position(fw) == (witness is None, witness)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cap_boundary(self, dim):
        n = dim + 4
        moment = [[F(t) ** e for e in range(1, dim + 1)] for t in range(1, n + 1)]
        repeated = moment[:-1] + [moment[0]]
        total = math.comb(n, dim + 1)
        for pts, expected in ((moment, (True, None)),
                              (repeated, (False, tuple(range(1, dim + 1)) + (n,)))):
            fw = Framework(Graph.path(n), dim, pts)
            assert is_general_position(fw, cap=total) == expected
            with pytest.raises(SizeCapExceededError):
                is_general_position(fw, cap=total - 1)


class TestGaleMatrix:
    def test_k3_line_exact(self, k3_line):
        z = gale_matrix(k3_line)
        assert z.matrix == Matrix([[1], [-2], [1]])
        assert (z.n, z.rbar) == (3, 1)

    def test_hexagon_kernel_and_change_of_basis(self, hexagon):
        z = gale_matrix(hexagon.fw)
        p = extended_config_matrix(hexagon.fw)
        assert p * z.matrix == zeros(3, 3)
        assert rank(z.matrix) == 3
        # the frozen unit-triangular Gale matrix is a right-multiple of it
        b = z.matrix
        q = Matrix(oracles.sym_solve(b.to_lists(), hexagon.gale.to_lists()))
        assert b * q == hexagon.gale
        assert determinant(q) != 0

    def test_simplex_rejected(self):
        fw = Framework(Graph.complete(3), 2, [(0, 0), (1, 0), (0, 1)])
        with pytest.raises(NoGaleMatrix):
            gale_matrix(fw)

    def test_seeded_frameworks_give_the_sympy_echelon_kernel(self):
        """On seeded frameworks (r = 1..4, integer and rational points,
        labels shuffled), the dense Gale matrix is the kernel basis that
        sympy's reduced row echelon form of the extended configuration
        matrix gives, and the columns it is held by keep the
        ``GaleColumns`` invariant: the free column first with a positive
        entry, nonzero ints of gcd 1."""
        rng = random.Random("gale-oracle")
        seen = set()
        for i in range(32):
            r = i % 4 + 1
            n = rng.randint(r + 2, r + 9)
            if i % 8 < 4:
                fw = random_general_position_framework(n, r, rng.randrange(10_000))
            else:
                fw = rational_points_framework(rng, n, r)
            fw = relabelled(rng, fw)
            z = gale_matrix(fw)
            echelon, pivots = oracles.sym_rref(extended_config_matrix(fw).to_lists())
            free = [f for f in range(n) if f not in pivots]
            expected = [[F(int(v == f)) for f in free] for v in range(n)]
            for row, p in zip(echelon, pivots):
                for j, f in enumerate(free):
                    expected[p][j] = -row[f]
            assert z.matrix.to_lists() == expected
            assert (z.n, z.rbar) == (n, fw.rbar)
            for col, f in zip(z.columns, free):
                pivot, d = next(iter(col.items()))
                assert pivot == f and d > 0 and math.gcd(*col.values()) == 1
                assert all(type(x) is int and x for x in col.values())
            seen.add((r, i % 8 < 4))
        assert len(seen) == 8


class TestStressWeights:
    def test_key_normalization(self):
        w = StressWeights({(2, 1): F(3)})
        assert w[(1, 2)] == 3 and w[(2, 1)] == 3

    def test_duplicate_rejected(self):
        with pytest.raises(FrameworkError):
            StressWeights({(1, 2): 1, (2, 1): 1})

    def test_loop_rejected(self):
        with pytest.raises(FrameworkError):
            StressWeights({(1, 1): 1})

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            StressWeights({(1, 2): 0.5})


class TestEquilibrium:
    def test_hexagon_omega_balances(self, hexagon):
        assert verify_equilibrium_stress(hexagon.fw, hexagon_omega(hexagon)) == (True, None)

    def test_zero_weights_balance(self, hexagon):
        zero = StressWeights({e: 0 for e in hexagon.fw.graph.edges})
        assert verify_equilibrium_stress(hexagon.fw, zero) == (True, None)

    def test_unbalanced_single_force(self, k3_line):
        w = StressWeights({(1, 2): 1, (1, 3): 0, (2, 3): 0})
        assert verify_equilibrium_stress(k3_line, w) == (False, 1)

    def test_support_must_match_edges(self, k3_line):
        with pytest.raises(FrameworkError):
            verify_equilibrium_stress(k3_line, StressWeights({(1, 2): 1}))


class TestStressConversions:
    def test_hexagon_assembles_frozen_stress(self, hexagon):
        s = stress_from_omega(hexagon.fw, hexagon_omega(hexagon))
        assert s.matrix == hexagon.stress

    def test_zero_omega(self, hexagon):
        zero = StressWeights({e: 0 for e in hexagon.fw.graph.edges})
        assert stress_from_omega(hexagon.fw, zero).matrix == zeros(6, 6)

    def test_k3_line_psd_stress(self, k3_line):
        w = StressWeights({(1, 2): 2, (2, 3): 2, (1, 3): -1})
        s = stress_from_omega(k3_line, w)
        assert s.matrix == Matrix([[1, -2, 1], [-2, 4, -2], [1, -2, 1]])

    def test_not_equilibrium_raises(self, k3_line):
        with pytest.raises(NotEquilibrium):
            stress_from_omega(k3_line, StressWeights({(1, 2): 1, (1, 3): 0, (2, 3): 0}))

    def test_round_trip(self, hexagon):
        omega = hexagon_omega(hexagon)
        s = stress_from_omega(hexagon.fw, omega)
        assert omega_from_stress(hexagon.fw, s) == omega

    def test_omega_from_invalid_stress(self, hexagon):
        broken = Matrix([[1 if (i, j) in ((0, 4), (4, 0)) else 0
                          for j in range(6)] for i in range(6)])
        with pytest.raises(InvalidStressMatrix):
            omega_from_stress(hexagon.fw, StressMatrix(broken))


def _outer(a, b):
    return [[x * y for y in b] for x in a]


def _sum(a, b):
    return [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)]


def _unit(i):
    return [F(int(k == i)) for k in range(6)]


def _hexagon_clause_breakers(hexagon):
    """Three perturbations of the hexagon stress, each failing exactly one
    clause: a non-symmetric matrix whose columns are Gale vectors on edges,
    the outer product of a Gale vector that is nonzero on the non-edges,
    and a symmetric matrix on edge (1, 2) that misses the kernel."""
    z = hexagon.gale
    g1 = [row[0] for row in z.data]
    g13 = [row[0] + row[2] for row in z.data]
    return {"not symmetric": _outer(g1, _unit(2)),
            "nonzero on a non-edge": _outer(g13, g13),
            "does not kill the extended configuration":
                _sum(_outer(_unit(0), _unit(1)), _outer(_unit(1), _unit(0)))}


class TestOmegaFromStressClauses:
    def _certificate_stresses(self):
        from chordalrig.certify import certify_chordal
        for n, dim, seed in [(8, 1, 0), (10, 2, 1), (9, 3, 2)]:
            fw = random_general_position_framework(n, dim, seed)
            yield fw, certify_chordal(fw).stress

    def test_no_rank_profile_or_psd(self, hexagon, monkeypatch):
        from chordalrig import exactmat, framework
        cases = [(hexagon.fw, StressMatrix(hexagon.stress))] + list(self._certificate_stresses())
        expected = [StressWeights({(u, v): -s.matrix[u - 1, v - 1] for u, v in fw.graph.edges})
                    for fw, s in cases]
        assert [omega_from_stress(fw, s) for fw, s in cases] == expected

        def forbidden(*args):
            raise AssertionError("omega_from_stress ran a rank or PSD pass")
        for name in ("_sparse_factor", "rank"):
            monkeypatch.setattr(framework, name, forbidden)
        monkeypatch.setattr(exactmat, "_integer_kernel", forbidden)
        assert [omega_from_stress(fw, s) for fw, s in cases] == expected

    def test_message_lists_each_failed_clause(self, hexagon):
        breakers = _hexagon_clause_breakers(hexagon)
        order = list(breakers)
        for mask in range(1, 8):
            failed = [name for k, name in enumerate(order) if mask >> k & 1]
            m = hexagon.stress.to_lists()
            for name in failed:
                m = _sum(m, breakers[name])
            m = Matrix(m)
            with pytest.raises(InvalidStressMatrix) as info:
                omega_from_stress(hexagon.fw, StressMatrix(m))
            assert str(info.value) == f"not a stress matrix: {failed}"
            assert validate_stress_matrix(hexagon.fw, StressMatrix(m)).failures() == failed

    def test_wrong_size_rejected(self, hexagon):
        with pytest.raises(DimensionMismatch, match="stress must be 6x6, got 5x5"):
            omega_from_stress(hexagon.fw, StressMatrix(zeros(5, 5)))


def old_cleared(col, weights):
    """``_cleared`` as it was written first: each quotient tested by
    ``%`` and taken by ``//`` or as a Fraction, then all of them cleared
    (``_integer_row``)."""
    quotients = [x // d if x % d == 0 else Fraction(x, d)
                 for x, d in zip(col.values(), [weights[u] for u in col])]
    return dict(zip(col, _integer_row(quotients)[0]))


class TestCleared:
    def test_the_divmod_pass_is_the_old_formula(self):
        """``_cleared`` gives the old formula's dict, key order and int
        types included: on seeded columns with exact and inexact quotients,
        negative entries among them, and on the columns that the stress
        clauses clear, of the congruent rows of certified stresses at
        integer and rational points."""
        rng = random.Random("cleared")
        cases = []
        for _ in range(400):
            n = rng.randint(1, 8)
            weights = [rng.randint(1, 12) for _ in range(n)]
            keys = rng.sample(range(n), rng.randint(1, n))
            exact = rng.random() < 0.5
            cases.append(({u: weights[u] * rng.randint(-30, 30) if exact
                           else rng.randint(-400, 400) for u in keys}, weights))
        for i in range(16):
            r = 2 if i % 2 else 1
            fw = (rational_points_framework(random.Random(f"cleared/{i}"), 8, r) if i % 4 < 2
                  else random_general_position_framework(8, r, i))
            stress = certify_chordal(fw).stress
            rows, scale = stress.congruent
            weights = [c * p[-1] for c, p in zip(scale, fw._lifted)]
            cases.extend((col, weights) for col in rows.values())
        seen = set()
        for col, weights in cases:
            got, expected = _cleared(col, weights), old_cleared(col, weights)
            assert list(got.items()) == list(expected.items())
            assert all(type(x) is int for x in got.values())
            seen.add(all(x % weights[u] == 0 for u, x in col.items()))
        assert seen == {True, False}


class TestValidateStress:
    def test_hexagon_indefinite(self, hexagon):
        rep = validate_stress_matrix(hexagon.fw, StressMatrix(hexagon.stress))
        assert rep.symmetric and rep.pattern_ok and rep.kernel_ok
        assert rep.rank == 3 and rep.generic_rank_profile
        assert not rep.psd
        assert rep.is_stress_matrix
        assert rep.failures() == []

    def test_hexagon_psd(self, hexagon):
        rep = validate_stress_matrix(hexagon.fw, StressMatrix(hexagon.psd))
        assert rep.is_stress_matrix and rep.psd and rep.rank == 3

    def test_zero_matrix(self, hexagon):
        rep = validate_stress_matrix(hexagon.fw, StressMatrix(zeros(6, 6)))
        assert rep.is_stress_matrix and rep.psd and rep.rank == 0

    def test_no_short_circuit(self, hexagon):
        asym = Matrix([[1 if (i, j) == (0, 1) else 0
                        for j in range(6)] for i in range(6)])
        rep = validate_stress_matrix(hexagon.fw, StressMatrix(asym))
        assert not rep.symmetric and not rep.is_stress_matrix
        assert "not symmetric" in rep.failures()

    def test_size_checked(self, hexagon):
        with pytest.raises(DimensionMismatch):
            validate_stress_matrix(hexagon.fw, StressMatrix(zeros(5, 5)))

    def test_kernel_holds_for_random_equilibrium_stresses(self, hexagon):
        rng = random.Random(2)
        z = hexagon.gale
        for _ in range(10):
            psi = Matrix([[rng.randint(-5, 5) if i == j else 0 for j in range(3)]
                          for i in range(3)])
            s = gale_stress(hexagon.fw, z, psi)
            rep = validate_stress_matrix(hexagon.fw, s)
            assert rep.kernel_ok and rep.is_stress_matrix


def _line_framework(n):
    return Framework(Graph.path(n), 1, [(i,) for i in range(n)])


def _gram(rng, n, k, signs=None):
    """B D B^T for an n-by-k integer B with many zeros and D = diag(signs)."""
    b = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(k)] for _ in range(n)]
    d = signs or [1] * k
    return [[sum(Fraction(b[i][t] * d[t] * b[j][t]) for t in range(k))
             for j in range(n)] for i in range(n)]


def _wide_congruence(rng, rows):
    """D A D for a diagonal D of 200-bit rationals with distinct denominators;
    it keeps the rank, every leading minor's zero-ness and sign, and PSD."""
    d = [Fraction(rng.getrandbits(200) | 1, rng.getrandbits(64) | 1) * rng.choice((1, -1))
         for _ in rows]
    return [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _profile_case(rng, n):
    """A square matrix drawn to reach every branch of the one-pass profile."""
    kind = rng.randrange(5)
    if kind == 0:  # sparse symmetric: zero pivots over nonzero trailing blocks
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = Fraction(rng.choice((0, 0, rng.randint(-2, 2))))
        return rows
    if kind == 1:  # PSD of any rank, often without generic rank profile
        return _gram(rng, n, rng.randint(0, n))
    if kind in (2, 3):  # indefinite or semidefinite of any rank, kind 3 with wide entries
        k = rng.randint(1, n)
        rows = _gram(rng, n, k, [rng.choice((1, -1)) for _ in range(k)])
        return rows if kind == 2 else _wide_congruence(rng, rows)
    return [[Fraction(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 3))
             for _ in range(n)] for _ in range(n)]


class TestStressProfileAgainstOracle:
    """``validate_stress_matrix`` and one ``_sparse_factor`` pass in label
    order decide rank, generic rank profile and PSD; each fact is checked
    against sympy's rank, cofactor leading minors and the principal-minor
    PSD test."""

    @staticmethod
    def check(rows):
        m = Matrix(rows)
        n = len(rows)
        symmetric = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
        rk, grp = oracles.rank_and_generic_profile(rows)
        psd = symmetric and oracles.principal_minors_nonneg(rows)
        rep = validate_stress_matrix(_line_framework(n), StressMatrix(m))
        assert (rep.rank, rep.generic_rank_profile, rep.psd) == (rk, symmetric and grp, psd)
        if symmetric:
            result = _sparse_factor(_sparse_rows(m), range(n))
            assert (result.generic, result.rank) == (grp, rk)
        return symmetric, rk, grp, psd

    @pytest.mark.parametrize("rows, expected", [
        ([[0, 0, 0]] * 3, (True, 0, True, True)),
        ([[0, 1], [1, 0]], (True, 2, False, False)),
        ([[1, 1, 0], [1, 1, 0], [0, 0, 0]], (True, 1, True, True)),
        ([[2, 1, 1], [1, 1, 0], [1, 0, 1]], (True, 2, True, True)),
        ([[-1, 0], [0, -2]], (True, 2, True, False)),
        ([[1, 2], [2, 1]], (True, 2, True, False)),
        ([[1, 1, 0], [1, 1, 0], [0, 0, -1]], (True, 2, False, False)),
        ([[0, 0], [0, 1]], (True, 1, False, True)),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], (True, 2, False, True)),
        ([[1, 2], [3, 4]], (False, 2, True, False)),
        ([[0, 1], [0, 0]], (False, 1, False, False)),
    ])
    def test_named_cases(self, rows, expected):
        assert self.check([[Fraction(x) for x in row] for row in rows]) == expected

    @pytest.mark.parametrize("base", [
        [[1, 1, 2, 0], [1, 2, 3, 3], [2, 3, 5, 3], [0, 3, 3, 9]],  # PSD, rank 2, generic
        [[1, 2, 0], [2, 1, 1], [0, 1, 3]],  # indefinite, full rank
        [[0, 0, 0], [0, 2, 1], [0, 1, 1]],  # PSD, not generic
    ])
    def test_wide_mixed_denominators(self, base):
        rows = _wide_congruence(random.Random(7), [[Fraction(x) for x in row] for row in base])
        assert min(abs(x.numerator).bit_length() for row in rows for x in row if x) > 300
        assert len({x.denominator for row in rows for x in row}) > len(rows)
        self.check(rows)

    def test_seeded_matrices(self):
        seen = set()
        for seed in range(150):
            rng = random.Random(seed)
            symmetric, rk, grp, psd = self.check(_profile_case(rng, rng.randint(2, 6)))
            seen.add((symmetric, rk == 0, grp, psd))
        # Every combination the pass can report was reached.
        assert seen >= {(True, True, True, True), (True, False, True, True),
                        (True, False, True, False), (True, False, False, True),
                        (True, False, False, False), (False, False, True, False),
                        (False, False, False, False)}


class TestPsiFactorization:
    """The paper's S = Z Psi Z^T, with Psi solved for by sympy."""

    def test_identity_psi_for_gram_stress(self, hexagon):
        psi = oracles.psi_by_solving(hexagon.gale.to_lists(), hexagon.psd.to_lists())
        assert Matrix(psi) == Matrix.identity(3)

    def test_indefinite_stress_factors(self, hexagon):
        z = hexagon.gale
        psi = Matrix(oracles.psi_by_solving(z.to_lists(), hexagon.stress.to_lists()))
        assert psi == psi.transpose()
        assert determinant(psi) != 0
        assert z * psi * z.transpose() == hexagon.stress

    def test_rref_basis_also_factors(self, hexagon):
        z = gale_matrix(hexagon.fw).matrix
        psi = Matrix(oracles.psi_by_solving(z.to_lists(), hexagon.stress.to_lists()))
        assert z * psi * z.transpose() == hexagon.stress


class TestUnitTriangularShape:
    """``_triangular_violation`` on integer Gale columns along the identity
    ordering of the hexagon, whose frozen Z has these columns."""

    COLUMNS = [{0: 2, 1: -2, 2: -1, 3: 1}, {1: 1, 2: -1, 3: -1, 4: 1},
               {2: 1, 3: -1, 4: -2, 5: 2}]

    def test_frozen_gale(self, hexagon):
        assert GaleMatrix(self.COLUMNS, 6).matrix == hexagon.gale
        assert _triangular_violation(self.COLUMNS, hexagon.fw.graph, Ordering.identity(6)) is None

    @pytest.mark.parametrize("changes, spot", [
        ([(0, 1, 1)], (1, 2)),  # above the diagonal
        ([(5, 0, 3)], (6, 1)),  # vertex 6 is not adjacent to vertex 1
        ([(5, 0, 3), (4, 0, 3)], (5, 1)),
        ([(5, 0, 3), (4, 0, 3), (1, 2, 3)], (2, 3)),  # above the diagonal
        ([(5, 0, 3), (2, 2, -1)], (3, 3)),  # a negative pivot
        ([(2, 2, 0)], (3, 3)),  # no pivot
    ])
    def test_first_violation_in_row_major_order(self, hexagon, changes, spot):
        columns = [dict(col) for col in self.COLUMNS]
        for u, j, x in changes:
            columns[j][u] = x
        assert _triangular_violation(columns, hexagon.fw.graph, Ordering.identity(6)) == spot

    def test_rref_basis_fails(self, hexagon):
        z = gale_matrix(hexagon.fw)
        assert _triangular_violation(z.columns, hexagon.fw.graph, Ordering.identity(6)) is not None


class TestEquivalenceCongruence:
    def test_self(self, hexagon):
        assert frameworks_equivalent(hexagon.fw, hexagon.fw)
        assert frameworks_congruent(hexagon.fw, hexagon.fw)

    def test_folded_path(self):
        a = Framework(Graph.path(3), 1, [(0,), (1,), (2,)])
        b = Framework(Graph.path(3), 1, [(0,), (1,), (0,)])
        assert frameworks_equivalent(a, b)
        assert not frameworks_congruent(a, b)

    def test_graph_mismatch(self, k3_line, path3_line):
        with pytest.raises(GraphMismatch):
            frameworks_equivalent(k3_line, path3_line)

    def test_size_mismatch(self, k3_line):
        other = Framework(Graph.path(2), 1, [(0,), (1,)])
        with pytest.raises(SizeMismatch):
            frameworks_congruent(k3_line, other)

    def test_cross_dimension_equivalence(self):
        a = Framework(Graph.path(3), 1, [(0,), (1,), (2,)])
        b = Framework(Graph.path(3), 2, [(0, 0), (1, 0), (1, 1)])
        assert frameworks_equivalent(a, b)

    def test_congruent_implies_equivalent(self):
        rng = random.Random(13)
        for _ in range(5):
            fw = random_general_position_framework(6, 2, rng.randrange(1000))
            shift = [(x + 3, y - 2) for x, y in fw.points]
            moved = Framework(fw.graph, 2, shift)
            assert frameworks_congruent(fw, moved)
            assert frameworks_equivalent(fw, moved)


class TestRandomFramework:
    def test_deterministic(self):
        assert random_general_position_framework(7, 2, 5) == \
            random_general_position_framework(7, 2, 5)

    def test_properties(self):
        for seed in range(5):
            fw = random_general_position_framework(8, 2, seed)
            assert is_chordal(fw.graph).chordal
            assert is_general_position(fw) == (True, None)
            assert all(x.denominator == 1 for p in fw.points for x in p)

    def test_line_case(self):
        fw = random_general_position_framework(5, 1, 3)
        assert fw.dim == 1 and fw.n == 5
        assert is_general_position(fw) == (True, None)
