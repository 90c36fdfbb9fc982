"""The sparse symmetric elimination kernel and the sparse Gale/Gram path.

``exactmat._sparse_factor`` decides rank, PSD and the generic rank profile
in its order by exchange-free symmetric elimination, with a 2x2 block step
at a zero pivot over a nonzero row. It is compared here with sympy's rank,
the principal-minor PSD test and cofactor leading minors, with the dense
``helpers.psd_check`` and with the dense one-pass profile
``helpers._leading_profile``, on chordal and non-chordal patterns, in
label order, in perfect elimination orderings and in orders that are not,
with zero pivots over zero and over nonzero rows, and on indefinite and
rank-deficient matrices; whenever it takes no 2x2 step, its unit columns
and pivots rebuild the input as L D L^T. The sparse unit-triangular Gale
builder is compared with a sympy solve of the same column systems, and the
certificate stress with the dense Gram product. ``psdize_stress`` takes its
factor from the same kernel; it is compared with the dense
``helpers.gauss_step_sequence`` and, on inputs with a vanishing leading
minor, with cofactor determinants.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import helpers
import oracles
from helpers import determinant, gauss_step_sequence, psd_check
from chordalrig import certify, exactmat, framework
from chordalrig.certify import (
    AssertionFailure,
    DegenerateEvidence,
    NotGenericRankProfile,
    PreconditionViolated,
    Verdict,
    certify_chordal,
    psd_stress_from_gale,
    psdize_stress,
    unit_triangular_gale,
)
from chordalrig.exactmat import (
    DimensionMismatch,
    Matrix,
    _congruent_rows,
    _sparse_factor,
    _sparse_rows,
    rank,
)
from chordalrig.framework import (
    DegenerateSpan,
    Framework,
    GaleMatrix,
    PatternViolation,
    StressMatrix,
    _first_non_edge,
    gale_matrix,
    is_general_position,
    random_general_position_framework,
    stress_from_psi,
    validate_stress_matrix,
)
from chordalrig.graphs import Graph, gen_ktree, is_chordal, is_peo, mcs_order, Ordering

F = Fraction


def factor(rows, order):
    return _sparse_factor(_sparse_rows(Matrix(rows)), order)


def profile(rows, order):
    """The kernel's rank and PSD along ``order``."""
    return factor(rows, order)[:2]


def fractions(rows):
    return [[F(x) for x in row] for row in rows]


def ldlt(pivots, columns, n):
    """The sum of d c c^T over the pivots d and their unit columns c."""
    rows = [[F(0)] * n for _ in range(n)]
    for d, col in zip(pivots, columns, strict=True):
        for u, a in col.items():
            for w, b in col.items():
                rows[u][w] += d * a * b
    return rows


class TestNamedCases:
    # None: the pass meets a zero pivot over a nonzero row and takes a 2x2
    # step there; ``check`` compares its answer with the oracles
    @pytest.mark.parametrize("rows, order, expected", [
        ([[0, 0], [0, 0]], [0, 1], (0, True)),
        ([[0, 1], [1, 0]], [0, 1], None),
        ([[0, 1], [1, 0]], [1, 0], None),
        # the second pivot is zero over a row that elimination zeroed
        ([[1, 1], [1, 1]], [0, 1], (1, True)),
        ([[0, 1], [1, 1]], [0, 1], None),
        ([[0, 1], [1, 1]], [1, 0], (2, False)),
        ([[1, 0, 0], [0, 0, 0], [0, 0, -1]], [0, 1, 2], (2, False)),
        # a zero leading row is skipped where the dense profile gives up
        ([[0, 0, 0], [0, 2, 1], [0, 1, 1]], [0, 1, 2], (2, True)),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [0, 1, 2], None),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [2, 1, 0], None),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 0, 2], (3, True)),
        ([[-2, 1], [1, -2]], [0, 1], (2, False)),
    ])
    def test_named(self, rows, order, expected):
        result, _ = TestAgainstDensePaths.check(fractions(rows), order)
        block = result.rank > len(result.columns)
        assert (None if block else (result.rank, result.psd)) == expected

    @pytest.mark.parametrize("rows, order, expected", [
        ([[0, 1], [1, 0]], [0, 1], (2, False, 1)),
        ([[0, 1], [1, 0]], [1, 0], (2, False, 1)),
        ([[0, 1], [1, 1]], [0, 1], (2, False, 1)),
        # a 1x1 step, then a 2x2 step on the Schur complement [[0, 1], [1, 1]]
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [0, 1, 2], (3, False, 2)),
        ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], [2, 1, 0], (3, False, 2)),
        # the block's partner, vertex 2, is not eliminated again
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [0, 1, 2], (3, False, 1)),
    ])
    def test_two_by_two_step(self, rows, order, expected):
        """Rank, PSD and the first zero step where the pass takes a block."""
        result, _ = TestAgainstDensePaths.check(fractions(rows), order)
        assert (result.rank, result.psd, result.first_zero) == expected
        assert result.rank > len(result.columns)

    @pytest.mark.parametrize("order", [[0], [0, 1, 1], [1, 2], [0, 1, 2]])
    def test_order_must_list_every_row_once(self, order):
        with pytest.raises(DimensionMismatch):
            profile(fractions([[1, 0], [0, 1]]), order)

    def test_input_rows_are_not_modified(self):
        for matrix, expected in [([[1, 1], [1, 2]], (2, True)),
                                 ([[0, 1, 1], [1, 1, 0], [1, 0, 2]], (3, False))]:  # 2x2 step
            rows = _sparse_rows(Matrix(matrix))
            before = {v: dict(row) for v, row in rows.items()}
            assert _sparse_factor(rows, range(len(matrix)))[:2] == expected
            assert rows == before


def _chordal_graph(rng, n):
    g = gen_ktree(n, rng.randint(1, min(3, n - 1)), rng.randrange(10_000))
    if rng.random() < 0.4 and n > 2:
        g = helpers.thin_to_low_connectivity(g, 1, rng)
    return g


def _non_chordal_graph(rng, n):
    while True:
        cycle = [(i, i % n + 1) for i in range(1, n + 1)]
        extra = [(u, v) for u in range(1, n + 1) for v in range(u + 2, n + 1)
                 if rng.random() < 0.3]
        g = Graph(n, cycle + extra)
        if not is_chordal(g).chordal:
            return g


def _on_pattern(rng, g):
    """A symmetric matrix vanishing off the edges and diagonal of g: either
    random entries, or a sum of weighted outer products of vectors on single
    vertices and edges (PSD when every weight is positive, rank-deficient
    when there are few terms, indefinite otherwise); sometimes with one
    row and column zeroed."""
    n = g.n
    rows = [[F(0)] * n for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0:
        for v in range(n):
            rows[v][v] = F(rng.choice((0, rng.randint(-3, 3))), rng.randint(1, 3))
        for u, v in g.edges:
            rows[u - 1][v - 1] = rows[v - 1][u - 1] = F(rng.randint(-3, 3), rng.randint(1, 3))
    else:
        supports = [(v,) for v in range(1, n + 1)] + list(g.edges)
        for _ in range(rng.randint(0, n + 1)):
            support = rng.choice(supports)
            vec = {u - 1: F(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 2)) for u in support}
            weight = rng.randint(1, 3) if kind < 3 else rng.choice((-2, -1, 1, 2))
            for u, a in vec.items():
                for w, b in vec.items():
                    rows[u][w] += weight * a * b
    if rng.random() < 0.3:
        dead = rng.randrange(n)
        for i in range(n):
            rows[i][dead] = rows[dead][i] = F(0)
    return rows


class TestAgainstDensePaths:
    @staticmethod
    def check(rows, order):
        """Compare the kernel along ``order`` with the oracles and dense
        paths; return its result and whether the dense profile along the
        same order gave up on a zero pivot over a nonzero trailing block."""
        n = len(rows)
        result = factor(rows, order)
        psd = oracles.principal_minors_nonneg(rows)
        rk = oracles.sym_rank(rows)
        assert (result.rank, result.psd) == (rk, psd)
        dense = psd_check(Matrix(rows))
        assert dense.is_psd == psd
        if psd:
            assert dense.rank == rk
        permuted = [[rows[i][j] for j in order] for i in order]
        assert (result.rank, result.generic) == oracles.rank_and_generic_profile(permuted)
        if result.first_zero is not None:
            k = result.first_zero
            assert oracles.det_cofactor([row[:k] for row in permuted[:k]]) == 0
        leading = helpers._leading_profile(Matrix(permuted, shape=(n, n)))
        if leading is not None:
            assert result.generic and result[:2] == leading
        position = {v: i for i, v in enumerate(order)}
        heads = [min(col, key=position.get) for col in result.columns]
        assert all(col[v] == 1 for v, col in zip(heads, result.columns))
        assert heads == sorted(set(heads), key=position.get)
        assert len(result.pivots) == len(result.columns) and all(result.pivots)
        if result.rank == len(result.columns):  # no 2x2 step
            assert ldlt(result.pivots, result.columns, n) == rows
        return result, leading is None

    def test_seeded_patterns_and_orders(self):
        seen = set()
        for seed in range(240):
            rng = random.Random(seed)
            chordal = seed % 2 == 0
            n = rng.randint(2, 6) if chordal else rng.randint(4, 6)
            g = _chordal_graph(rng, n) if chordal else _non_chordal_graph(rng, n)
            rows = _on_pattern(rng, g)
            mcs = [v - 1 for v in mcs_order(g)]
            shuffled = rng.sample(range(n), n)
            results = []
            for order in (list(range(n)), mcs, shuffled):
                result, dense_gave_up = self.check(rows, order)
                results.append(result[:2])
                block = result.rank > len(result.columns)
                peo = is_peo(g, Ordering([v + 1 for v in order]))[0]
                outcome = ("2x2 step" if block else "psd" if result.psd else "indefinite")
                seen.add((chordal, peo, outcome))
                seen.add(("generic", result.generic))
                if not block and dense_gave_up:
                    seen.add("zero pivot over a zero row skipped")
                if result.rank < n:
                    seen.add(("rank-deficient", outcome))
            # rank and PSD do not depend on the order
            assert results[0] == results[1] == results[2]
        assert seen >= {
            (True, True, "psd"), (True, True, "indefinite"), (True, True, "2x2 step"),
            (True, False, "psd"), (True, False, "indefinite"), (True, False, "2x2 step"),
            (False, False, "psd"), (False, False, "indefinite"), (False, False, "2x2 step"),
            ("rank-deficient", "psd"), ("rank-deficient", "indefinite"),
            ("rank-deficient", "2x2 step"), ("generic", True), ("generic", False),
            "zero pivot over a zero row skipped",
        }

    def test_certificate_stresses_in_any_order(self):
        rng = random.Random(5)
        for r in (1, 2, 3):
            for _ in range(3):
                n = rng.randint(r + 8, r + 16)
                fw = random_general_position_framework(n, r, rng.randrange(10_000))
                cert = certify_chordal(fw)
                rows = cert.stress.matrix.to_lists()
                assert rank(cert.stress.matrix) == fw.rbar
                peo = [v - 1 for v in cert.peo]
                shuffled = rng.sample(range(n), n)
                for order in (peo, shuffled):
                    assert profile(rows, order) == (fw.rbar, True)
                    negated = [[-x for x in row] for row in rows]
                    assert profile(negated, order) == (fw.rbar, False)
                assert psd_check(cert.stress.matrix).rank == fw.rbar


def _rational_points_framework(rng, n, r):
    """A (r+1)-tree with rational points whose denominators differ from
    point to point, so the integer lifts scale each point differently."""
    g = gen_ktree(n, r + 1, rng.randrange(10_000))
    while True:
        pts = [[F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(r)]
               for _ in range(n)]
        try:
            fw = Framework(g, r, pts)
        except DegenerateSpan:
            continue
        if is_general_position(fw)[0]:
            return fw


class TestSparseGale:
    def test_matches_solving_each_column(self):
        rng = random.Random(17)
        for i in range(48):
            r = i % 3 + 1
            n = rng.randint(r + 2, r + 9)
            if i % 2:
                fw = _rational_points_framework(rng, n, r)
            else:
                fw = random_general_position_framework(n, r, rng.randrange(10_000))
            g = fw.graph
            orders = [is_chordal(g).peo]
            ident = Ordering.identity(n)
            if is_peo(g, ident)[0]:
                orders.append(ident)
            for peo in orders:
                z = unit_triangular_gale(fw, peo).matrix
                expected = oracles.unit_triangular_gale_by_solving(
                    fw.points, g.edges, list(peo))
                assert z.to_lists() == expected
                if peo == orders[0]:
                    cert = certify_chordal(fw)
                    assert cert.peo == peo
                    assert cert.stress.matrix == z * z.transpose()

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_columns_match_solving_and_bareiss_cramer(self, r):
        """The one cofactor pass per column against the Cramer minors of the
        Bareiss determinant and a sympy solve, entry by entry and in the
        same order, on integer and rational points."""
        rng = random.Random(f"gale-columns/{r}")
        for i in range(8):
            n = rng.randint(r + 2, r + 7)
            if i % 2:
                fw = _rational_points_framework(rng, n, r)
            else:
                fw = random_general_position_framework(n, r, rng.randrange(10_000))
            peo = is_chordal(fw.graph).peo
            columns = certify._gale_columns(fw, peo)
            cramer = helpers.gale_columns_by_cramer(fw, peo)
            assert [list(col.items()) for col in columns] == [list(col.items()) for col in cramer]
            expected = oracles.unit_triangular_gale_by_solving(fw.points, fw.graph.edges,
                                                               list(peo))
            assert [[col.get(v, 0) for col in columns] for v in range(n)] == expected

    @pytest.mark.parametrize("first", [(0, 0), (0, 1)], ids=["on-the-line", "off-the-line"])
    def test_collinear_support_is_an_assertion_failure(self, first):
        """Column 1 of K5 minus the edge {1, 5} in R^2 leans on the
        collinear points 2, 3 and 4, its only later neighbours: with point 1
        on their line the coordinate rows are dependent, and off it the one
        dependency left has y_v = 0. The greedy pass finds no other
        support."""
        pts = [first, (1, 0), (2, 0), (3, 0), (0, 2)]
        g = Graph(5, [e for e in Graph.complete(5).edges if e != (1, 5)])
        fw = Framework(g, 2, pts)
        with pytest.raises(DegenerateEvidence,
                           match="^support of column 1 is degenerate: no 3 of its later "
                                 "neighbours are affinely independent$"):
            certify._gale_columns(fw, Ordering.identity(5))

    @pytest.mark.parametrize("first", [(0, 0), (0, 1)], ids=["on-the-line", "off-the-line"])
    def test_greedy_support_skips_a_dependent_neighbour(self, first):
        """In K5, column 1's earliest later neighbours 2, 3 and 4 are
        collinear; the greedy pass keeps 2 and 3, skips 4 and keeps 5, and
        the column is the sympy solve on that support."""
        pts = [first, (1, 0), (2, 0), (3, 0), (0, 2)]
        fw = Framework(Graph.complete(5), 2, pts)
        columns = certify._gale_columns(fw, Ordering.identity(5))
        a = oracles.sym_matrix([[*pts[u - 1], 1] for u in (2, 3, 5)]).T
        b = oracles.sym_matrix([[-x] for x in (*pts[0], 1)])
        x = a.LUsolve(b)
        expected = {0: F(1)} | {u - 1: F(int(c.p), int(c.q))
                                for u, c in zip((2, 3, 5), x) if c}
        assert columns[0] == expected
        assert certify._gram_stress(fw, columns, Ordering.identity(5)).n == 5

    def test_general_position_pays_for_no_greedy_pass(self, monkeypatch):
        calls = []
        real = certify._independent_support
        monkeypatch.setattr(certify, "_independent_support",
                            lambda *args: calls.append(args) or real(*args))
        rng = random.Random(29)
        for i in range(12):
            r = i % 4 + 1
            fw = random_general_position_framework(rng.randint(r + 2, r + 8), r, i)
            assert certify_chordal(fw).verdict is Verdict.UNIVERSALLY_RIGID
        assert calls == []

    def test_degenerate_support_is_an_assertion_failure(self, k5_minus_edge):
        # without the general-position precondition, column 1's support is
        # the collinear triple {1, 2, 3}
        with pytest.raises(AssertionFailure, match="degenerate"):
            certify._gale_columns(k5_minus_edge, is_chordal(k5_minus_edge.graph).peo)


class TestGramSelfCheck:
    def test_non_edge_entry_raises_first_pattern_violation(self, hexagon):
        with pytest.raises(PatternViolation) as err:
            psd_stress_from_gale(hexagon.fw, gale_matrix(hexagon.fw))
        assert err.value.pair == (1, 5)

    def test_rank_deficient_gram_is_an_assertion_failure(self, hexagon):
        cols = [hexagon.gale.column(j) for j in (0, 1, 1)]
        z = GaleMatrix(Matrix.from_columns(cols))
        with pytest.raises(AssertionFailure, match="rank 3"):
            psd_stress_from_gale(hexagon.fw, z)

    def test_column_outside_the_gale_space_is_an_assertion_failure(self, hexagon):
        rows = hexagon.gale.to_lists()
        rows[2][1] += 1  # vertex 3 lies in the support clique of column 2
        with pytest.raises(AssertionFailure, match="kill the extended configuration"):
            psd_stress_from_gale(hexagon.fw, GaleMatrix(Matrix(rows)))

    def test_psdize_rank_precedes_the_minor_check(self):
        # On K6 the first diagonal entry is zero over a nonzero row, so the
        # sparse pass takes a 2x2 step there; the rank it finds, 2, is
        # reported before the vanishing leading minor 1
        fw = Framework(Graph.complete(6), 2, [(i, i * i) for i in range(1, 7)])
        z = unit_triangular_gale(fw, Ordering.identity(6))
        s = stress_from_psi(fw, z, Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])).matrix
        assert s[0, 0] == 0 and any(s.row(0))
        result = factor(s.to_lists(), range(6))
        assert (result.rank, result.psd, result.first_zero) == (2, False, 1)
        assert result.columns == []
        with pytest.raises(PreconditionViolated, match="stress rank 2 differs"):
            psdize_stress(fw, StressMatrix(s))

    @pytest.mark.parametrize("change, failure", [
        ((0, 1, 1), "not symmetric"),
        ((0, 4, 1), "nonzero on a non-edge"),
        ((2, 2, 1), "does not kill the extended configuration"),
    ])
    def test_psdize_rejects_a_non_stress(self, hexagon, change, failure):
        rows = hexagon.stress.to_lists()
        i, j, delta = change
        rows[i][j] += delta
        if failure != "not symmetric":
            rows[j][i] = rows[i][j]
        with pytest.raises(PreconditionViolated, match=failure):
            psdize_stress(hexagon.fw, StressMatrix(Matrix(rows)))


def dense_gram(columns, n):
    """Z Z^T by the dense matrix product, Z holding the sparse columns."""
    z = Matrix.from_columns([[col.get(v, F(0)) for v in range(n)] for col in columns],
                            rows=n)
    return z * z.transpose()


def mixes_scales(columns):
    """Whether some entry of the Gram product gathers terms from columns
    whose denominators have different lcms."""
    scales = {}
    for col in columns:
        d = math.lcm(*(x.denominator for x in col.values()))
        for u in col:
            for w in col:
                scales.setdefault((u, w), set()).add(d)
    return any(len(found) > 1 for found in scales.values())


def hexagon_columns(hexagon):
    return [{v: x for v, x in enumerate(hexagon.gale.column(j)) if x} for j in range(3)]


def combine(a, b, t):
    """The sparse column a + t b."""
    out = {v: a.get(v, 0) + t * b.get(v, 0) for v in a.keys() | b.keys()}
    return {v: F(x) for v, x in out.items() if x}


class TestGramSum:
    """``certify._gram_rows`` sums in integers; its entries must be those of
    the dense product Z Z^T."""

    def test_gale_columns_match_the_dense_product(self):
        rng = random.Random(21)
        seen = set()
        for i in range(32):
            r = i % 4 + 1
            n = rng.randint(r + 3, r + 10)
            if i % 8 < 4:
                fw = random_general_position_framework(n, r, rng.randrange(10_000))
            else:
                fw = _rational_points_framework(rng, n, r)
            peo = is_chordal(fw.graph).peo
            columns = certify._gale_columns(fw, peo)
            assert certify._gram_stress(fw, columns, peo).matrix == dense_gram(columns, n)
            seen.add((r, mixes_scales(columns)))
        assert {(r, True) for r in (1, 2, 3, 4)} <= seen

    def test_psdize_factor_columns_match_the_dense_product(self):
        seen = set()
        for rng, fw, peo, z in _psdize_inputs(11, 24):
            s = stress_from_psi(fw, z, _diagonal(_weights(rng, fw.rbar))).matrix
            try:
                res = psdize_stress(fw, StressMatrix(s))
            except NotGenericRankProfile:
                continue
            expected = dense_gram(res.columns, fw.n)
            assert res.stress.matrix == expected
            assert certify._gram_stress(fw, res.columns, peo).matrix == expected
            seen.add(("non-unit", any(x.denominator > 1
                                      for col in res.columns for x in col.values())))
            seen.add(("mixed", mixes_scales(res.columns)))
        assert {("non-unit", True), ("mixed", True)} <= seen

    def test_cancelled_entries_are_zero(self, hexagon):
        z = hexagon_columns(hexagon)
        # (z0 + z2)(z0 + z2)^T + (z0 - z2)(z0 - z2)^T = 2 z0 z0^T + 2 z2 z2^T:
        # the cross terms at vertices {1, 2} x {5, 6} cancel, and z1 is
        # zero on the non-edges {1,5}, {1,6}, {2,6}
        columns = [combine(z[0], z[2], 1), z[1], combine(z[0], z[2], -1)]
        expected = dense_gram(columns, 6)
        rows, _ = certify._gram_rows(columns, 6)
        for u, w in ((0, 4), (0, 5), (1, 5)):
            assert columns[0][u] * columns[0][w] != 0
            assert expected[u, w] == 0
            assert rows[u].get(w, 0) == 0 == rows[w].get(u, 0)
        stress = certify._gram_stress(hexagon.fw, columns, Ordering.identity(6))
        assert stress.matrix == expected

    @pytest.mark.parametrize("t, extra, pair", [
        (-1, {1: F(1), 5: F(1)}, (2, 6)),  # {1,5} and {1,6} cancel, {2,6} does not
        (-2, None, (1, 5)),  # nothing cancels
    ])
    def test_first_nonzero_non_edge_still_raises(self, hexagon, t, extra, pair):
        z = hexagon_columns(hexagon)
        columns = [combine(z[0], z[2], 1), z[1], combine(z[0], z[2], t)]
        if extra is not None:
            columns.append(extra)
        dense = dense_gram(columns, 6)
        bad = sorted(p for p in hexagon.non_edges if dense[p[0] - 1, p[1] - 1])
        assert bad[0] == pair
        with pytest.raises(PatternViolation) as err:
            certify._gram_stress(hexagon.fw, columns, Ordering.identity(6))
        assert err.value.pair == pair


class TestNonEdgeClause:
    def test_either_triangle_counts(self):
        # 0-based entries (1, 3) and (2, 0): the non-edges {2, 4} and {1, 3}
        rows = {0: {}, 1: {3: F(1)}, 2: {0: F(2)}, 3: {}}
        assert _first_non_edge(Graph(4, [(1, 2)]), rows) == (1, 3)
        assert _first_non_edge(Graph(4, [(1, 3), (2, 4)]), rows) is None

    def test_first_lexicographic_pair_in_every_caller(self, hexagon):
        """The RREF basis with a random Psi puts nonzeros on non-edges;
        every caller reports the smallest such pair."""
        z = gale_matrix(hexagon.fw)
        rng = random.Random(3)
        for _ in range(10):
            d = [rng.randint(-3, 3) for _ in range(3)]
            psi = Matrix([[d[i] if i == j else 0 for j in range(3)] for i in range(3)])
            s = z.matrix * psi * z.matrix.transpose()
            bad = sorted(pair for pair in hexagon.non_edges
                         if s[pair[0] - 1, pair[1] - 1] != 0)
            assert validate_stress_matrix(hexagon.fw, StressMatrix(s)).pattern_ok == (not bad)
            if bad:
                with pytest.raises(PatternViolation) as err:
                    stress_from_psi(hexagon.fw, z, psi)
                assert err.value.pair == bad[0]
            else:
                assert stress_from_psi(hexagon.fw, z, psi).matrix == s


class TestGaussStepSequence:
    def test_builds_one_matrix(self, hexagon, monkeypatch):
        built = []
        init = Matrix.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Matrix, "__init__", counted)
        gauss_step_sequence(hexagon.stress, 3)
        assert len(built) == 1


def _psdize_inputs(seed, count):
    """Seeded chordal frameworks, r = 1..3, half with rational points, each
    with psdize's own elimination ordering and a unit-triangular Gale
    matrix built along either that ordering or another PEO: the reverse of
    the k-tree's construction order."""
    rng = random.Random(seed)
    for i in range(count):
        r = i % 3 + 1
        n = rng.randint(r + 2, r + 6)
        if i % 2:
            fw = _rational_points_framework(rng, n, r)
        else:
            fw = random_general_position_framework(n, r, rng.randrange(10_000))
        peo = certify._elimination_order(fw.graph)
        other = Ordering(range(n, 0, -1))
        assert is_peo(fw.graph, other)[0]
        yield rng, fw, peo, unit_triangular_gale(fw, rng.choice((peo, other)))


def _diagonal(d):
    return Matrix([[x if i == j else 0 for j, x in enumerate(d)] for i in range(len(d))])


def _weights(rng, count):
    return [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(count)]


def _vanishing_minor_input(rng, r):
    """A framework on a chordal graph denser than a (r+1)-tree and a stress
    Z Psi Z^T of maximal rank, Z the unit-triangular Gale matrix along
    psdize's ordering, or None when no pair of its columns qualifies. Psi is
    diagonal but for a block [[0, b], [b, c]] on columns k < m whose joint
    support is a clique, so the stress keeps the non-edge zeros, Psi is
    nonsingular, and its k-th leading minor, hence the stress's, vanishes."""
    n = rng.randint(r + 3, r + 6)
    g = gen_ktree(n, rng.randint(r + 2, n - 1), rng.randrange(10_000))
    fw = helpers.sample_points(g, r, rng)
    z = unit_triangular_gale(fw, certify._elimination_order(g))
    cols = [[v + 1 for v, x in enumerate(z.matrix.column(j)) if x] for j in range(fw.rbar)]
    pairs = [(k, m) for k in range(fw.rbar) for m in range(k + 1, fw.rbar)
             if all(g.has_edge(u, w) for u in cols[k] for w in cols[m] if u != w)]
    if not pairs:
        return None
    k, m = rng.choice(pairs)
    psi = [[x if i == j else 0 for j in range(fw.rbar)]
           for i, x in enumerate(_weights(rng, fw.rbar))]
    psi[k][k] = 0
    psi[k][m] = psi[m][k] = _weights(rng, 1)[0]
    return fw, stress_from_psi(fw, z, Matrix(psi)).matrix


class TestPsdizeFactor:
    def test_matches_the_dense_elimination(self):
        seen = set()
        for rng, fw, peo, z in _psdize_inputs(7, 36):
            s = stress_from_psi(fw, z, _diagonal(_weights(rng, fw.rbar))).matrix
            try:
                res = psdize_stress(fw, StressMatrix(s))
            except NotGenericRankProfile:
                seen.add("not generic")
                continue
            order = [v - 1 for v in peo]
            dense = gauss_step_sequence(s.select(order, order), fw.rbar)
            assert res.peo == peo
            assert res.eliminated == dense
            gale = [[F(0)] * fw.rbar for _ in range(fw.n)]
            for j in range(fw.rbar):
                for i, v in enumerate(order):
                    gale[v][j] = dense[j, i]
            assert res.gale.matrix == Matrix(gale)
            assert res.stress.matrix == res.gale.matrix * res.gale.matrix.transpose()
            seen.add("same factor" if res.gale == z else "new factor")
        assert {"same factor", "new factor"} <= seen

    def test_factor_rebuilds_the_stress(self):
        seen = set()
        for rng, fw, peo, z in _psdize_inputs(8, 36):
            s = stress_from_psi(fw, z, _diagonal(_weights(rng, fw.rbar))).matrix
            rows = _sparse_rows(s)
            for order in ([v - 1 for v in peo], rng.sample(range(fw.n), fw.n)):
                result = _sparse_factor(rows, order)
                assert result.rank == fw.rbar
                no_block = len(result.columns) == fw.rbar
                if no_block:
                    assert ldlt(result.pivots, result.columns, fw.n) == s.to_lists()
                seen.add((order[0] == peo.vertex_at(1) - 1, no_block))
        assert {(True, True), (False, True)} <= seen

    def test_not_generic_index_is_the_first_vanishing_minor(self):
        rng = random.Random(9)
        seen = set()
        for i in range(45):
            made = _vanishing_minor_input(rng, i % 3 + 1)
            if made is None:
                continue
            fw, s = made
            assert rank(s) == fw.rbar
            order = [v - 1 for v in certify._elimination_order(fw.graph)]
            permuted = [[s[u, w] for w in order] for u in order]
            first = next(k for k in range(1, fw.rbar + 1)
                         if oracles.det_cofactor([row[:k] for row in permuted[:k]]) == 0)
            with pytest.raises(NotGenericRankProfile) as err:
                psdize_stress(fw, StressMatrix(s))
            assert err.value.minor_index == first
            seen.add((fw.dim, first))
        assert {(r, k) for r in (1, 2, 3) for k in (1, 2, 3)} <= seen

    def test_non_generic_input_pays_for_no_dense_pass(self, monkeypatch):
        """A 4-tree in R^2 on 50 vertices and a stress Z Psi Z^T of maximal
        rank whose leading minor 1 vanishes (the ``_vanishing_minor_input``
        recipe with k = 1): the one sparse pass reports the minor, with
        ``rank`` and ``_rref`` forbidden, in well under a second."""
        points = random_general_position_framework(50, 2, 0).points
        for seed in range(100):
            fw = Framework(gen_ktree(50, 4, seed), 2, points)
            z = unit_triangular_gale(fw, certify._elimination_order(fw.graph)).matrix
            cols = [[v + 1 for v, x in enumerate(z.column(j)) if x] for j in range(fw.rbar)]
            partners = [m for m in range(1, fw.rbar)
                        if all(fw.graph.has_edge(u, w) for u in cols[0] for w in cols[m]
                               if u != w)]
            if partners:
                break
        psi = [[x if i == j else 0 for j in range(fw.rbar)]
               for i, x in enumerate(_weights(random.Random(seed), fw.rbar))]
        m = partners[0]
        psi[0][0] = 0
        psi[0][m] = psi[m][0] = 3
        assert determinant(Matrix(psi)) != 0  # so the stress has rank rbar
        s = stress_from_psi(fw, GaleMatrix(z), Matrix(psi)).matrix

        def forbidden(*args, **kwargs):
            raise AssertionError("dense rank or PSD pass")
        for module in (certify, exactmat, framework):
            for name in ("rank", "_rref"):
                monkeypatch.setattr(module, name, forbidden, raising=False)
        start = time.perf_counter()
        with pytest.raises(NotGenericRankProfile) as err:
            psdize_stress(fw, StressMatrix(s))
        assert time.perf_counter() - start < 0.5
        assert err.value.minor_index == 1

    def test_one_sparse_pass_and_no_dense_path(self, hexagon, monkeypatch):
        passes, ranks = [], []
        factor = certify._sparse_factor

        def counted_factor(rows, order, scale):
            passes.append((rows, scale))
            return factor(rows, order, scale)

        def counted_rank(a):
            ranks.append(a)
            return rank(a)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense elimination called")

        inputs = [(hexagon.fw, hexagon.stress)]
        for rng, fw, peo, z in _psdize_inputs(10, 6):
            inputs.append((fw, stress_from_psi(fw, z, _diagonal(_weights(rng, fw.rbar))).matrix))
        # the K6 input whose pass takes a 2x2 step at a zero pivot
        k6 = Framework(Graph.complete(6), 2, [(i, i * i) for i in range(1, 7)])
        z = unit_triangular_gale(k6, Ordering.identity(6))
        low = stress_from_psi(k6, z, Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])).matrix
        monkeypatch.setattr(certify, "_sparse_factor", counted_factor)
        for module in (certify, exactmat, framework):
            monkeypatch.setattr(module, "rank", counted_rank, raising=False)
        monkeypatch.setattr(exactmat, "_rref", forbidden)
        for fw, s in inputs:
            passes.clear()
            try:
                psdize_stress(fw, StressMatrix(s))
                expected = 2  # the input's pass, then the output's self-check
            except NotGenericRankProfile:
                expected = 1
            assert len(passes) == expected and ranks == []
            assert passes[0] == _congruent_rows(_sparse_rows(s))
        passes.clear()
        with pytest.raises(PreconditionViolated, match="stress rank 2 differs"):
            psdize_stress(k6, StressMatrix(low))
        assert passes == [_congruent_rows(_sparse_rows(low))] and ranks == []
