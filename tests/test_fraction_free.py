"""The fraction-free Gale factor and the sparse integer matrix product.

``certify._gale_columns`` returns each unit-triangular Gale column as the
primitive integer vector w with a positive pivot entry, the column of Z
being w / w_v; ``_gram_entries`` and ``GaleMatrix`` read it without any
Fraction in between. ``Matrix.__mul__`` sums integer products over the
nonzero pairs of rows scaled by the lcm of their denominators. Both are
pinned here against their Fraction definitions: a digest of the Gale
matrices and certificates frozen before the integer path existed, the
column invariants, a count of the Fractions the positive branch makes,
and a brute-force product.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import helpers
import oracles
from chordalrig import certify, exactmat, framework, jsonio
from chordalrig.certify import (
    PreconditionViolated,
    Verdict,
    certify_chordal,
    unit_triangular_gale,
)
from chordalrig.exactmat import Matrix
from chordalrig.framework import DegenerateSpan, Framework, GaleMatrix, StressMatrix
from chordalrig.graphs import gen_ktree, is_chordal

F = Fraction


def _gale_inputs():
    """Seeded (r+1)- and (r+2)-trees in R^r, r = 1..4, with integer points
    and with points of denominators 2, 3 and 7. The small coordinate box
    makes some earliest supports dependent, so the greedy support pass and
    the degenerate-support failure are both reached."""
    rng = random.Random("gale-digest")
    for r in (1, 2, 3, 4):
        for i in range(12):
            n = rng.randint(r + 2, r + 8)
            k = r + 1 + i % 2
            if n <= k:
                n = k + 1
            g = gen_ktree(n, k, rng.randrange(10_000))
            box = 3 if i % 3 == 0 else 30
            dens = (1,) if i % 2 == 0 else (1, 2, 3, 7)
            while True:
                pts = [[F(rng.randint(-box, box), rng.choice(dens)) for _ in range(r)]
                       for _ in range(n)]
                try:
                    yield Framework(g, r, pts)
                    break
                except DegenerateSpan:
                    continue


def _gale_outcome(fw):
    peo = is_chordal(fw.graph).peo
    try:
        z = unit_triangular_gale(fw, peo).matrix
    except PreconditionViolated as exc:
        gale = ("PreconditionViolated", str(exc))
    else:
        gale = [[str(x) for x in row] for row in z.data]
    return gale, jsonio.certificate_to_obj(certify_chordal(fw))


class TestGaleFrozen:
    def test_seeded_gale_outputs_frozen(self, monkeypatch):
        """sha256 of every Gale matrix (or its error) and certificate on the
        seeded inputs, recorded from the Fraction-column builder: the
        integer columns must give them bit for bit."""
        greedy = []
        real = certify._independent_support
        monkeypatch.setattr(certify, "_independent_support",
                            lambda *args: greedy.append(1) or real(*args))
        outcomes = [_gale_outcome(fw) for fw in _gale_inputs()]
        verdicts = {obj["verdict"] for _, obj in outcomes}
        assert greedy and {"UniversallyRigid", "Inconclusive"} <= verdicts
        assert any(isinstance(gale, tuple) for gale, _ in outcomes)
        text = json.dumps(outcomes, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GALE_DIGEST


GALE_DIGEST = "397a8d177c3348847ea3d92561152b05cda3c865062aef86c8772e77b47a429a"


def _forced_frameworks():
    """Seeded (r+2)-trees in R^r, r = 1..4, with integer points and with
    points of denominators 2, 3 and 7, each with its MCS ordering. At one
    random position the later neighbours are pushed into the hyperplane
    x_1 = c: the first r+1 of them, so that the greedy support pass must
    look further, or all of them, so that the column has no independent
    support, or none."""
    rng = random.Random("gale-oracle")
    for r in (1, 2, 3, 4):
        for i in range(24):
            n = rng.randint(r + 4, r + 8)
            g = gen_ktree(n, r + 2, rng.randrange(10_000))
            peo = is_chordal(g).peo
            j = rng.randint(1, n - r - 1)
            nbrs = sorted((u for u in g.neighbors(peo.vertex_at(j)) if peo.position_of(u) > j),
                          key=peo.position_of)
            forced = (nbrs[:r + 1], nbrs, [])[i % 3]
            dens = (1,) if i % 2 == 0 else (1, 2, 3, 7)
            c = F(rng.randint(-5, 5), rng.choice(dens))
            while True:
                pts = [[F(rng.randint(-30, 30), rng.choice(dens)) for _ in range(r)]
                       for _ in range(n)]
                for u in forced:
                    pts[u - 1][0] = c
                try:
                    yield Framework(g, r, pts), peo
                    break
                except DegenerateSpan:
                    continue


def _oracle_columns(fw, peo):
    """The Gale columns along ``peo`` by sympy's null space
    (``oracles.primitive_dependency``), with the support each column
    takes: the r+1 earliest later neighbours when they are independent,
    else the first r+1 independent ones (``oracles.first_independent``).
    Returns the columns up to the first position with no independent
    support, that position's expected witness (its first r+1 later
    neighbours, sorted and 1-based) or None, and the kinds of support
    met."""
    r, columns, kinds = fw.dim, [], set()
    for j in range(1, fw.n - r):
        v = peo.vertex_at(j)
        nbrs = sorted((u - 1 for u in fw.graph.neighbors(v) if peo.position_of(u) > j),
                      key=lambda u: peo.position_of(u + 1))
        col = oracles.primitive_dependency(fw.points, v - 1, nbrs[:r + 1])
        kind = "first"
        if col is None:
            support = oracles.first_independent(fw.points, nbrs, r + 1)
            if support is None:
                return columns, tuple(sorted(u + 1 for u in nbrs[:r + 1])), kinds | {"none"}
            col = oracles.primitive_dependency(fw.points, v - 1, support)
            kind = "greedy"
        columns.append(col)
        kinds.add(kind)
    return columns, None, kinds


def _psdize_stresses(couple):
    """Seeded stresses Z Psi Z^T of maximal rank at integer points: Z the
    unit-triangular Gale matrix of an (r+2)-tree in R^r, r = 1..3, along
    the ordering ``psdize_stress`` picks, and Psi a diagonal of nonzero
    integers of both signs. With ``couple``, Psi also couples up to three
    pairs of columns whose supports together lie in a clique, so the
    product is still a stress, and its elimination at times divides
    inexactly."""
    for seed in range(16):
        rng = random.Random(f"psdize-columns/{seed}")
        r = seed % 3 + 1
        n = rng.randint(r + 5, r + 10)
        fw = Framework(gen_ktree(n, r + 2, seed), r,
                       framework.random_general_position_framework(n, r, seed).points)
        z = unit_triangular_gale(fw, certify._elimination_order(fw.graph))
        k = fw.rbar
        psi = [[rng.choice((-1, 1)) * rng.randint(1, 9) if i == j else 0 for j in range(k)]
               for i in range(k)]
        if couple:
            pairs = [(i, j) for i, j in itertools.combinations(range(k), 2)
                     if all(u == w or fw.graph.has_edge(u + 1, w + 1)
                            for u in z.columns[i] for w in z.columns[j])]
            for i, j in pairs[:seed % 4]:
                psi[i][j] = psi[j][i] = rng.randint(-9, 9)
        yield fw, helpers.gale_stress(fw, z, Matrix(psi))


class TestGaleColumnsOracle:
    def test_columns_match_the_null_space_oracle(self):
        """Each column ``_gale_columns`` builds by Cramer's rule on its
        support's differences is the primitive null vector sympy finds for
        the columns (p, 1) of v and that support, for r = 1..4, integer and
        rational points, earliest supports that are independent, earliest
        supports that are not (the greedy fallback) and positions with no
        independent support, where DegenerateEvidence names the first r+1
        later neighbours."""
        seen = set()
        for fw, peo in _forced_frameworks():
            expected, witness, kinds = _oracle_columns(fw, peo)
            if witness is None:
                assert helpers.gale_columns(fw, peo) == expected
            else:
                with pytest.raises(certify.DegenerateEvidence) as info:
                    helpers.gale_columns(fw, peo)
                assert info.value.witness == witness
            rational = any(p[-1] > 1 for p in fw._lifted)
            seen |= {(fw.dim, rational, kind) for kind in kinds}
        assert seen == {(r, rational, kind) for r in (1, 2, 3, 4) for rational in (False, True)
                        for kind in ("first", "greedy", "none")}


def _planar_supports():
    """Seeded points v, u_0, u_1, u_2 in R^2, with the kind of support they
    make: at random ("general"), the support on a line with v off it or
    on it, a support point repeated, and v repeating a support point.
    Coordinates are in [-9, 9] or near +-10^6, integers or with
    denominators up to 10^6."""
    rng = random.Random("planar-kernel-vector")
    kinds = ("general", "collinear support", "all collinear", "repeated support point",
             "v repeats a support point")
    for i in range(500):
        kind = kinds[i % 5]
        big = i // 5 % 2 == 1
        dens = (1,) if i // 10 % 2 == 0 else (1, 2, 3, 7, 10 ** 6 - 1)

        def coord():
            c = rng.choice((-10 ** 6, 10 ** 6)) + rng.randint(-50, 50) if big else 0
            return c + F(rng.randint(-9, 9), rng.choice(dens))

        def on_line(a, d):
            t = F(rng.randint(-5, 5), rng.choice(dens))
            return [a[0] + t * d[0], a[1] + t * d[1]]

        pts = [[coord(), coord()] for _ in range(4)]
        if kind in ("collinear support", "all collinear"):
            a, d = pts[1], [rng.randint(-9, 9), rng.randint(1, 9)]
            pts[2:] = [on_line(a, d), on_line(a, d)]
            if kind == "all collinear":
                pts[0] = on_line(a, d)
        elif kind == "repeated support point":
            pts[2] = list(pts[1])
        elif kind == "v repeats a support point":
            pts[0] = list(pts[3])
        yield kind, big, [framework._lift(p) for p in pts]


def _primitive(lifted, keys, y):
    """The column ``_gale_columns`` stores for the vector y of
    ``_kernel_vector`` over the 0-based vertices ``keys``."""
    if y is None:
        return None
    w = [lifted[u][-1] * x for u, x in zip(keys, y)]
    g = math.gcd(*w) if w[0] > 0 else -math.gcd(*w)
    return [x // g for x in w]


def _vector_from(lifted, z):
    """y from a vector z with sum_k z_k D_k = 0 over the support's
    differences, as ``_kernel_vector`` expands it; None when z or y_v is
    zero."""
    l_v = lifted[0][-1]
    y_v = -sum(x * q[-1] for x, q in zip(z, lifted[1:]))
    return [y_v, *(l_v * x for x in z)] if any(z) and y_v else None


def _stored(keys, column):
    """A column of ``_primitive`` as ``_gale_columns`` stores it: {key:
    entry} over its nonzero entries, in key order."""
    return None if column is None else {u: x for u, x in zip(keys, column) if x}


class TestPlanarColumn:
    def test_plane_column_is_the_cofactor_column(self):
        """In the plane ``_plane_column`` builds the column in straight-line
        integers from the cross product. It equals, bit for bit and key
        order included, the column of the general route
        (``_cofactor_column``: y from one ``_cofactor_basis`` pass over the
        two difference rows, which ``_kernel_vector`` runs at every dim)
        and the one from their signed 2 x 2 minors
        (``oracles.cofactor_vector``): on independent supports, which give
        a dependency of v on the support, and on dependent ones, which give
        None, with repeated points, lifts with l > 1 and coordinates near
        10^6."""
        dependent = {"collinear support", "all collinear", "repeated support point"}
        keys, seen = [0, 1, 2, 3], set()
        for kind, big, lifted in _planar_supports():
            got = certify._plane_column(lifted, 0, keys[1:])
            y = certify._kernel_vector(lifted, 0, keys[1:])
            base = lifted[0]
            rows = [[base[-1] * q[i] - q[-1] * base[i] for q in lifted[1:]] for i in range(2)]
            basis, _, rank = exactmat._cofactor_basis(rows, 3)
            by_pass = _vector_from(lifted, basis[0]) if rank == 2 else None
            by_minors = _vector_from(lifted, [int(x) for x in oracles.cofactor_vector(rows)])
            general = certify._cofactor_column(lifted, 0, keys[1:])
            assert got == general == _stored(keys, _primitive(lifted, keys, y))
            assert got == _stored(keys, _primitive(lifted, keys, by_pass))
            assert got == _stored(keys, _primitive(lifted, keys, by_minors))
            assert got is None or list(got.items()) == list(general.items())
            assert (got is None) == (y is None) == (kind in dependent)
            if got is not None:
                assert all(sum(c * q[i] for c, q in zip(y, lifted)) == 0 for i in range(3))
                assert all(sum(F(x * lifted[u][i], lifted[u][-1]) for u, x in got.items()) == 0
                           for i in range(3))
            seen.add((kind, big, any(q[-1] > 1 for q in lifted)))
        assert seen == {(kind, big, scaled) for kind in dependent | {
            "general", "v repeats a support point"} for big in (False, True)
            for scaled in (False, True)}

    def test_the_plane_check_is_the_generic_check(self):
        """``framework._in_gale_space`` sums the plane's three coordinates
        in straight-line integers; it answers as the generic form, one dot
        product per coordinate, on each vector alone and on lists of them:
        on the columns ``_plane_column`` builds, which pass, and on those
        columns with one entry changed, which fail."""
        rng = random.Random("plane-gale-check")
        seen = set()
        for kind, big, lifted in _planar_supports():
            col = certify._plane_column(lifted, 0, [1, 2, 3])
            if col is None:
                continue
            scales = [lifted[u][-1] for u in col]
            m = math.lcm(*scales)
            good = {u: x * (m // l) for (u, x), l in zip(col.items(), scales)}
            bad = dict(good)
            u = rng.choice(list(bad))
            bad[u] += rng.choice((-1, 1)) * rng.randint(1, 3)
            for vecs in ([good], [bad], [good, bad], [bad, good], [good, good], []):
                expected = not any(sum(y * lifted[v][i] for v, y in vec.items())
                                   for vec in vecs for i in range(3))
                assert framework._in_gale_space(lifted, vecs) == expected
                seen.add(expected)
        assert seen == {True, False}


class TestIntegerColumns:
    def test_columns_are_primitive_dependencies_and_give_the_dense_gale(self):
        """Each column is gcd 1 with its pivot first and positive, the pivot
        is the lcm of the denominators of the column of Z, the column is a
        dependency sum_u w_u (p_u, 1) = 0 of the points, and
        the dense ``GaleMatrix`` of the columns is the sympy-solved Z wherever the
        earliest supports, which sympy solves on, are independent."""
        seen = set()
        for fw in _gale_inputs():
            peo = is_chordal(fw.graph).peo
            try:
                columns = helpers.gale_columns(fw, peo)
            except certify.DegenerateEvidence:
                continue
            for j, col in enumerate(columns, 1):
                pivot, d = next(iter(col.items()))
                assert pivot == peo.vertex_at(j) - 1 and d > 0
                assert all(type(x) is int and x for x in col.values())
                assert math.gcd(*col.values()) == 1
                assert d == math.lcm(*(F(x, d).denominator for x in col.values()))
                for k in range(fw.dim + 1):
                    coord = [F(1)] * fw.n if k == fw.dim else [p[k] for p in fw.points]
                    assert sum(x * coord[u] for u, x in col.items()) == 0
                seen.add(d > 1)
            z = GaleMatrix(columns, fw.n).matrix
            assert all(type(x) is Fraction for row in z.data for x in row)
            if framework.is_general_position(fw)[0]:
                expected = oracles.unit_triangular_gale_by_solving(
                    fw.points, fw.graph.edges, list(peo))
                assert z.to_lists() == expected
                seen.add("solved")
        assert seen == {True, False, "solved"}

    def test_gale_space_check_reads_the_stored_column(self, monkeypatch):
        """The Gale-space check of ``_gale_columns`` runs in integers on
        each column as it is returned: the column itself when every l_u of
        its support is 1, else m w_u / l_u, m the lcm of those l_u, the
        coefficients of the lifted points L_u in m sum_u w_u (p_u, 1). A
        slip between the Cramer vector and the stored integers, one entry
        doubled, raises AssertionFailure, on the line and in the plane,
        where one straight-line function (``_plane_column``) builds the
        column from the cross product, and the slip is made there."""
        checked = []
        real = certify._in_gale_space
        monkeypatch.setattr(certify, "_in_gale_space",
                            lambda lifted, vecs: checked.extend(vecs) or real(lifted, vecs))
        rational = [fw for fw in _gale_inputs() if any(p[-1] > 1 for p in fw._lifted)]
        rational = [fw for r in (1, 2) for fw in rational if fw.dim == r][:12]
        seen = set()
        for fw in rational:
            checked.clear()
            try:
                columns = helpers.gale_columns(fw, is_chordal(fw.graph).peo)
            except certify.DegenerateEvidence:
                continue
            assert len(checked) == len(columns)
            for col, vec in zip(columns, checked):
                scales = [fw._lifted[u][-1] for u in col]
                m = math.lcm(*scales)
                assert all(type(y) is int for y in vec.values())
                assert vec == {u: F(x * m, l) for (u, x), l in zip(col.items(), scales)}
                if m == 1:
                    assert vec is col
                seen.add((fw.dim, m > 1))
        assert {(1, True), (1, False), (2, True)} <= seen
        monkeypatch.undo()
        real_kernel, real_plane = certify._kernel_vector, certify._plane_column

        def slipped(*args):
            y = real_kernel(*args)
            return y and [y[0], 2 * y[1], *y[2:]]

        def plane_slipped(*args):
            col = real_plane(*args)
            if col:
                col[list(col)[1]] *= 2
            return col
        monkeypatch.setattr(certify, "_kernel_vector", slipped)
        monkeypatch.setattr(certify, "_plane_column", plane_slipped)
        for r in (1, 2):
            fw = next(fw for fw in rational if fw.dim == r)
            with pytest.raises(certify.AssertionFailure, match="column 1 does not lie"):
                helpers.gale_columns(fw, is_chordal(fw.graph).peo)

    def test_psdize_columns_are_the_integer_form_of_its_factor(self, hexagon):
        """The columns ``psdize_stress`` builds from its elimination steps
        are the unit columns of the Fraction kernel
        ``helpers.reference_sparse_factor`` on the input, along the same
        ordering, each cleared of denominators (``_integer_row``), key
        order included: on the hexagon, on seeded stresses whose
        elimination divides exactly throughout, and on seeded stresses
        where an inexact quotient leaves a Fraction in a later step."""
        res = certify.psdize_stress(hexagon.fw, StressMatrix(hexagon.stress))
        assert res.gale.columns == [{0: 2, 1: -2, 2: -1, 3: 1}, {1: 1, 2: -1, 3: -1, 4: 1},
                               {2: 1, 3: -1, 4: -2, 5: 2}]
        assert res.gale.matrix == hexagon.gale
        seen = set()
        for fw, s in [(hexagon.fw, StressMatrix(hexagon.stress)), *_psdize_stresses(couple=True)]:
            res = certify.psdize_stress(fw, s)
            order = [v - 1 for v in res.peo]
            reference = helpers.reference_sparse_factor(exactmat._sparse_rows(s.matrix), order)
            cleared = [dict(zip(col, exactmat._integer_row(col.values())[0]))
                       for col in reference.columns]
            assert [list(col.items()) for col in res.gale.columns] == \
                [list(col.items()) for col in cleared]
            steps = exactmat._sparse_factor(s.congruent[0], order).steps
            seen.add(any(type(x) is Fraction for _, p, row in steps for x in (p, *row.values())))
        assert seen == {True, False}


class TestNoFractionOnThePositiveBranch:
    def test_integer_points_make_no_fraction_until_the_stress_is_read(self, monkeypatch):
        """At integer points the Gale columns, the Gram sum, its clauses, the
        elimination and the conic check all run in integers: the first
        Fraction ``certify_chordal`` causes is made when the stress is read."""
        frameworks = [framework.random_general_position_framework(n, r, seed)
                      for n, r, seed in ((12, 1, 0), (20, 2, 1), (16, 3, 2), (14, 4, 3))]
        made = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(1)
            return real(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counted)
        for fw in frameworks:
            cert = certify_chordal(fw)
            assert cert.verdict is Verdict.UNIVERSALLY_RIGID
            assert made == []
        cert.stress.nonzero_rows()
        assert made

    def test_psdize_makes_no_fraction_beyond_its_elimination(self, hexagon, monkeypatch):
        """``psdize_stress`` builds its integer Gale factor from the steps of
        its one ``_sparse_factor`` pass: around the whole call no more
        Fractions are made than around that pass alone, on the hexagon and
        on seeded Z D Z^T stresses at integer points, whose congruent rows
        are read first."""
        made = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(1)
            return real(cls, *args, **kwargs)
        for fw, s in [(hexagon.fw, StressMatrix(hexagon.stress)), *_psdize_stresses(couple=False)]:
            rows, _ = s.congruent
            order = [v - 1 for v in certify._elimination_order(fw.graph)]
            monkeypatch.setattr(Fraction, "__new__", counted)
            exactmat._sparse_factor(rows, order)
            alone = len(made)
            made.clear()
            certify.psdize_stress(fw, s)
            assert len(made) <= alone
            made.clear()
            monkeypatch.undo()

    def test_gale_matrices_make_no_fraction_until_the_matrix_is_read(self, monkeypatch):
        """At integer points ``gale_matrix`` and ``unit_triangular_gale``
        build their Gale matrices, and ``psdize_stress`` hands over its own,
        as integer columns: the first Fraction is made when the dense
        ``matrix`` is read."""
        made = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(1)
            return real(cls, *args, **kwargs)
        for n, r, seed in ((12, 1, 0), (20, 2, 1), (16, 3, 2), (14, 4, 3)):
            fw = framework.random_general_position_framework(n, r, seed)
            res = certify.psdize_stress(fw, certify_chordal(fw).stress)
            peo = certify._elimination_order(fw.graph)
            made.clear()
            monkeypatch.setattr(Fraction, "__new__", counted)
            gales = [framework.gale_matrix(fw), unit_triangular_gale(fw, peo), res.gale]
            assert made == []
            for z in gales:
                z.matrix
                assert made
                made.clear()
            monkeypatch.undo()


def _random_rational_matrix(rng, rows, cols):
    """Entries with denominators up to 10^6 and both signs, about half of
    them zero, and now and then a whole row or column of zeros."""
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.3 else None
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.3 else None
    return [[F(0) if i == zero_row or j == zero_col or rng.random() < 0.5
             else F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
             for j in range(cols)] for i in range(rows)]


class TestSparseProduct:
    def test_matches_the_brute_force_sum(self):
        rng = random.Random("sparse-product")
        shapes = set()
        for _ in range(400):
            m, k, n = (rng.randint(0, 6) for _ in range(3))
            a = _random_rational_matrix(rng, m, k)
            b = _random_rational_matrix(rng, k, n)
            got = Matrix(a, shape=(m, k)) * Matrix(b, shape=(k, n))
            expected = [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(n)]
                        for i in range(m)]
            assert (got.rows, got.cols) == (m, n)
            assert got.to_lists() == expected
            assert all(type(x) is Fraction for row in got.data for x in row)
            shapes.add((m == 0, k == 0, n == 0))
        assert len(shapes) == 8

    def test_zeros_are_shared_and_transpose_keeps_the_entries(self):
        a = Matrix([[0, "1/2"], [3, 0]])
        zero = exactmat._coerce(0)
        assert a[0, 0] is zero and (a * a)[0, 1] is zero
        t = a.transpose()
        assert t[1, 0] is a[0, 1] and t.transpose() == a
        assert Matrix([], shape=(0, 3)).transpose() == Matrix([[], [], []], shape=(3, 0))

    def test_public_constructor_keeps_its_checks(self):
        assert Matrix([[1, "3/4"]]) == Matrix([[1, F(3, 4)]])
        for bad in (1.5, True):
            with pytest.raises(TypeError):
                Matrix([[1, bad]])


class TestLazyCongruent:
    def test_built_on_first_read(self, hexagon, monkeypatch):
        calls = []
        real = framework._congruent_rows
        monkeypatch.setattr(framework, "_congruent_rows",
                            lambda rows: calls.append(1) or real(rows))
        dense = StressMatrix(hexagon.stress)
        sparse = StressMatrix.from_rows(exactmat._sparse_rows(hexagon.stress))
        jsonio.stress_to_obj(dense), jsonio.stress_to_obj(sparse)
        assert calls == [] and dense.n == sparse.n == 6
        assert dense.congruent is dense.congruent and calls == [1]
        assert sparse == dense and calls == [1]
        gram = certify.psdize_stress(hexagon.fw, dense).stress
        assert calls == [1]
        assert gram.congruent is gram.congruent and calls == [1, 1]
        assert gram.matrix == hexagon.psd
