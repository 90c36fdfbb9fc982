"""The elimination kernel on congruent integer rows, the lazy stress and the
JSON writer.

``exactmat._sparse_factor`` runs on M = C S C, C = diag(c) of positive
integers, and divides through ``exactmat._quotient``: an int when exact, a
Fraction otherwise. It is compared here with ``helpers.reference_sparse_factor``,
the Fraction kernel it replaced, run on S: rank, PSD, the first zero pivot,
the pivots and the unit columns must agree, on random row scales, in label,
perfect elimination and shuffled orders, with inexact quotients, zero pivots
over zero rows and 2x2 blocks all present. The Gram stress of a certificate
is eliminated along its own PEO without an inexact quotient, and along other
orders it is still PSD of rank rbar; it agrees with the dense Z Z^T.
``StressMatrix`` builds its congruent rows and its dense matrix on first
read only, and ``jsonio.render_json`` writes the bytes of
``json.dumps(obj, indent=2)``.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    eliminated,
    factor_in_scale,
    gale_columns,
    gale_fractions,
    gale_stress,
    reference_sparse_factor,
    scaled_matrix,
    spy_matrix_shapes,
    zeros,
)
from chordalrig import certify, exactmat, framework, jsonio
from chordalrig.certify import (
    Certificate,
    Verdict,
    certify_chordal,
    psdize_stress,
    unit_triangular_gale,
)
from chordalrig.exactmat import (
    DimensionMismatch,
    Matrix,
    _congruent_rows,
    _sparse_factor,
    _sparse_rows,
)
from chordalrig.framework import (
    DegenerateSpan,
    Framework,
    StressMatrix,
    is_general_position,
    omega_from_stress,
    random_general_position_framework,
    validate_stress_matrix,
)
from chordalrig.graphs import Graph, Ordering, gen_ktree, is_chordal, is_peo, mcs_order

F = Fraction


def rational_framework(rng, n, r):
    """A (r+1)-tree in R^r whose points have differing denominators."""
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


def symmetric_input(rng, g):
    """A symmetric rational matrix on the pattern of g: random entries, a
    sum of rank-one terms on vertices and edges, or either with a zero
    diagonal entry over a nonzero row (a 2x2 step) or a zero row and
    column."""
    n = g.n
    rows = [[F(0)] * n for _ in range(n)]
    if rng.random() < 0.5:
        for v in range(n):
            rows[v][v] = F(rng.randint(-4, 4), rng.randint(1, 5))
        for u, v in g.edges:
            rows[u - 1][v - 1] = rows[v - 1][u - 1] = F(rng.randint(-4, 4), rng.randint(1, 5))
    else:
        supports = [(v,) for v in range(1, n + 1)] + list(g.edges)
        for _ in range(rng.randint(1, n + 2)):
            vec = {u - 1: F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
                   for u in rng.choice(supports)}
            weight = rng.choice((-2, -1, 1, 1, 2, 3))
            for u, a in vec.items():
                for w, b in vec.items():
                    rows[u][w] += weight * a * b
    shape = rng.random()
    if shape < 0.25:
        v = rng.randrange(n)
        rows[v][v] = F(0)
    elif shape < 0.45:
        v = rng.randrange(n)
        for i in range(n):
            rows[i][v] = rows[v][i] = F(0)
    return rows


def scaled(rows, rng):
    """The integer sparse rows of C S C and c, with c_u the lcm of row u's
    denominators times a random positive integer."""
    scale = [math.lcm(*(x.denominator for x in row)) * rng.randint(1, 6) for row in rows]
    ints = {u: {w: x * scale[u] * scale[w] for w, x in enumerate(row) if x}
            for u, row in enumerate(rows)}
    assert all(x.denominator == 1 for row in ints.values() for x in row.values())
    return {u: {w: x.numerator for w, x in row.items()} for u, row in ints.items()}, scale


def is_rational(x):
    return type(x) in (int, Fraction)


def record_schur_entries(monkeypatch):
    """Patch ``exactmat._schur_update`` so that every entry it subtracts is
    also appended to the list returned."""
    entries = []
    real = exactmat._schur_update

    def recorded(work, gone, keys, entry):
        def watched(i, k):
            entries.append(entry(i, k))
            return entries[-1]
        return real(work, gone, keys, watched)
    monkeypatch.setattr(exactmat, "_schur_update", recorded)
    return entries


class TestAgainstTheFractionKernel:
    def test_seeded_scales_and_orders(self, monkeypatch):
        entries = record_schur_entries(monkeypatch)
        seen = set()
        for seed in range(200):
            rng = random.Random(f"congruent/{seed}")
            n = rng.randint(2, 7)
            if seed % 2:
                g = gen_ktree(n, rng.randint(1, n - 1), rng.randrange(10_000))
            else:
                g = Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                              if rng.random() < 0.5])
            rows = symmetric_input(rng, g)
            ints, scale = scaled(rows, rng)
            assert all(type(x) is int for row in ints.values() for x in row.values())
            chord = is_chordal(g)
            orders = [list(range(n)), rng.sample(range(n), n)]
            if chord.chordal:
                orders.append([v - 1 for v in chord.peo])
            for order in orders:
                del entries[:]
                got = _sparse_factor(ints, order)
                pivots, columns = factor_in_scale(got, scale)
                want = reference_sparse_factor(_sparse_rows(Matrix(rows)), order)
                assert (got.rank, got.psd, got.first_zero) == want[:3]
                assert got.generic == want.generic
                assert pivots == want.pivots
                assert columns == want.columns
                assert all(map(is_rational, pivots))
                assert all(is_rational(x) for col in columns for x in col.values())
                peo = chord.chordal and is_peo(g, Ordering([v + 1 for v in order]))[0]
                seen.add(("peo", peo))
                if any(type(x) is Fraction for x in entries):
                    seen.add("inexact quotient")
                if got.rank > len(got.steps):
                    seen.add("2x2 step")
                if got.first_zero is not None and got.rank == len(got.steps):
                    seen.add("zero pivot without a block")
                seen.add(("psd", got.psd))
        assert seen >= {("peo", True), ("peo", False), "inexact quotient", "2x2 step",
                        "zero pivot without a block", ("psd", True), ("psd", False)}

    def test_identity_scale_matches_too(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 6)
            g = gen_ktree(n, rng.randint(1, n - 1), rng.randrange(10_000))
            rows = symmetric_input(rng, g)
            order = rng.sample(range(n), n)
            got = _sparse_factor(_sparse_rows(Matrix(rows)), order)
            want = reference_sparse_factor(_sparse_rows(Matrix(rows)), order)
            assert (got.rank, got.psd, got.first_zero, *factor_in_scale(got)) == tuple(want)

    def test_congruent_rows_of_a_matrix(self):
        m = Matrix([[F(1, 2), F(-1, 3), 0], [F(-1, 3), 2, 0], [0, 0, 0]])
        rows, scale = _congruent_rows(_sparse_rows(m))
        assert scale == [6, 3, 1]
        assert rows == {0: {0: 18, 1: -6}, 1: {0: -6, 1: 18}, 2: {}}


def dense_gram(columns, n):
    z = Matrix([[col.get(v, 0) for col in columns] for v in range(n)], shape=(n, len(columns)))
    return z * z.transpose()


def certificate_inputs():
    rng = random.Random("congruent-gram")
    for r in (1, 2, 3, 4):
        for i in range(4):
            n = rng.randint(r + 3, r + 12)
            if i % 2:
                yield rational_framework(rng, n, r)
            else:
                yield random_general_position_framework(n, r, rng.randrange(10_000))


class TestGramStress:
    @pytest.mark.parametrize("fw", list(certificate_inputs()),
                             ids=lambda fw: f"n{fw.n}-r{fw.dim}")
    def test_exact_along_the_peo_and_equal_to_the_dense_product(self, fw, monkeypatch):
        """Integer and rational points, r = 1..4: eliminating the
        certificate's Gram stress along its PEO, every Schur update is an
        int and takes no division, the kernel dividing once per pivot, and
        finds PSD of rank rbar; the stress is Z Z^T."""
        cert = certify_chordal(fw)
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID
        rows, scale = cert.stress.congruent
        assert all(type(x) is int for row in rows.values() for x in row.values())
        assert all(type(c) is int and c > 0 for c in scale)
        entries = record_schur_entries(monkeypatch)
        divisions = []
        real = exactmat._quotient
        monkeypatch.setattr(exactmat, "_quotient",
                            lambda a, b: divisions.append((a, b)) or real(a, b))
        result = _sparse_factor(rows, [v - 1 for v in cert.peo])
        assert (result.rank, result.psd) == (fw.rbar, True)
        assert entries and all(type(x) is int for x in entries)
        assert len(divisions) == fw.rbar
        monkeypatch.undo()
        columns = gale_fractions(gale_columns(fw, cert.peo))
        assert cert.stress.matrix == dense_gram(columns, fw.n)

    def test_gale_matrix_not_triangular_in_mcs_order(self, monkeypatch):
        """The Gram stress of the Gale columns along one PEO, eliminated
        along orders they are not triangular in: the MCS order, another PEO,
        and the label order, which fills in and divides inexactly. Each
        finds PSD of rank rbar, and the stress is the dense Z Z^T."""
        entries = record_schur_entries(monkeypatch)
        rng = random.Random(11)
        for i in range(16):
            r = i % 4 + 1
            n = rng.randint(r + 4, r + 10)
            fw = rational_framework(rng, n, r) if i % 2 else \
                random_general_position_framework(n, r, rng.randrange(10_000))
            other = Ordering(range(n, 0, -1))
            assert is_peo(fw.graph, other)[0] and other != mcs_order(fw.graph)
            stress = StressMatrix.from_gale_columns(gale_columns(fw, other), n)
            rows, _ = stress.congruent
            for order in ([v - 1 for v in mcs_order(fw.graph)], range(n)):
                result = _sparse_factor(rows, order)
                assert (result.rank, result.psd) == (fw.rbar, True)
            z = unit_triangular_gale(fw, other)
            assert stress == gale_stress(fw, z, Matrix.identity(fw.rbar))
        assert any(type(x) is Fraction for x in entries)


class TestLazyStress:
    def test_certify_builds_no_dense_stress(self, monkeypatch):
        fw = random_general_position_framework(40, 2, 4)
        shapes = spy_matrix_shapes(monkeypatch)
        cert = certify_chordal(fw)
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID
        assert (fw.n, fw.n) not in shapes
        jsonio.certificate_to_obj(cert)
        assert (fw.n, fw.n) not in shapes

    def test_matrix_is_built_once_on_first_read(self, monkeypatch):
        fw = random_general_position_framework(16, 3, 2)
        cert = certify_chordal(fw)
        built = spy_matrix_shapes(monkeypatch)
        first = cert.stress.matrix
        assert built == [(16, 16)]
        assert cert.stress.matrix is first
        assert built == [(16, 16)]
        monkeypatch.undo()
        assert first == dense_gram(gale_fractions(gale_columns(fw, cert.peo)), fw.n)

    def test_sparse_built_equals_dense_built(self):
        rng = random.Random(5)
        for r in (1, 2, 3):
            fw = random_general_position_framework(rng.randint(r + 4, r + 12), r,
                                                   rng.randrange(10_000))
            cert = certify_chordal(fw)
            dense = StressMatrix(cert.stress.matrix)
            assert cert.stress == dense and dense == cert.stress
            assert StressMatrix(cert.stress.matrix) == dense
            assert hash(cert.stress) == hash(dense)
            other = certify_chordal(fw)  # a new sparse stress: compared sparse
            assert other.stress == cert.stress
            assert other == cert
            assert cert.stress != StressMatrix(scaled_matrix(cert.stress.matrix, 2))
            assert omega_from_stress(fw, cert.stress) == omega_from_stress(fw, dense)

    def test_equality_ignores_stored_zeros_and_the_scale(self):
        # Z = [[1, 1], [1/2, -1/2]]: the Gram sum leaves out the cancelled
        # entry (0, 1), so C = diag(1, 2), as for b
        a = StressMatrix.from_gale_columns([{0: 2, 1: 1}, {0: 2, 1: -1}], 2)
        assert a.nonzero_rows() == {0: {0: 2}, 1: {1: F(1, 2)}}
        assert a.congruent == ({0: {0: 2}, 1: {1: 2}}, [1, 2])
        b = StressMatrix.from_rows({0: {0: F(2)}, 1: {1: F(1, 2)}})
        c = StressMatrix.from_rows({0: {0: F(2)}, 1: {1: F(1, 3)}})
        d = StressMatrix(Matrix([[2, 0], [0, F(1, 2)]]))
        assert b.congruent[1] == [1, 2]
        assert a == b == d and a.matrix == d.matrix
        assert a != c and c != d
        assert StressMatrix.from_rows({0: {}}) != b
        assert hash(a) == hash(b) == hash(d)

    def test_a_non_square_matrix_is_rejected_when_built(self):
        with pytest.raises(DimensionMismatch, match="2x3"):
            StressMatrix(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_equal_stresses_hash_alike(self, hexagon, tmp_path):
        """a == b implies hash(a) == hash(b) across every route a stress is
        built by: from a dense matrix, from sparse rows, from integer Gale
        columns, whose cancelled entries are left out, and loaded from a
        file."""
        rng = random.Random(8)
        hexagon_columns = gale_columns(hexagon.fw, Ordering.identity(6))
        # z_0 + z_2, z_1 and z_0 - z_2 of the hexagon's Z: their Gram sum
        # cancels at (1, 5), (1, 6) and (2, 6)
        cancelling = [{0: 2, 1: -2, 2: 1, 3: -1, 4: -4, 5: 4}, {1: 1, 2: -1, 3: -1, 4: 1},
                      {0: 2, 1: -2, 2: -3, 3: 3, 4: 4, 5: -4}]
        assert 4 not in StressMatrix.from_gale_columns(cancelling, 6).nonzero_rows()[0]
        stresses = [(scaled_matrix(hexagon.stress, F(1, 6)), None),
                    (hexagon.psd, hexagon_columns),
                    (dense_gram(gale_fractions(cancelling), 6), cancelling)]
        for r in (1, 2, 3):
            fw = rational_framework(rng, rng.randint(r + 3, r + 8), r)
            cert = certify_chordal(fw)
            stresses.append((cert.stress.matrix, gale_columns(fw, cert.peo)))
        path = tmp_path / "s.json"
        for dense, columns in stresses:
            jsonio.write_json(path, jsonio.stress_to_obj(StressMatrix(dense)))
            routes = [StressMatrix(dense), StressMatrix.from_rows(_sparse_rows(dense)),
                      jsonio.load_stress(path)]
            if columns is not None:
                routes.append(StressMatrix.from_gale_columns(columns, dense.rows))
            for a in routes:
                for b in routes:
                    assert a == b and hash(a) == hash(b)
            assert StressMatrix(scaled_matrix(dense, 2)) != routes[-1]

    def test_hash_builds_no_dense_matrix(self, monkeypatch):
        rng = random.Random(300)
        g = gen_ktree(300, 3, 1)
        fw = Framework(g, 2, [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                              for _ in range(g.n)])
        cert, other = certify_chordal(fw), certify_chordal(fw)
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID
        shapes = spy_matrix_shapes(monkeypatch)
        assert hash(cert.stress) == hash(cert.stress)
        assert cert.stress == other.stress
        assert shapes == []

    def test_n3000_r4_within_seconds_without_summing_the_stress(self, monkeypatch):
        """The Gram product is summed only when the stress is read, so a
        certificate at n=3000, r=4 costs its Gale columns and the conic
        check alone. The first read then sums each entry on its own scale
        (``framework._gram_entries``), within seconds too; the rows of the
        first and last vertices of the PEO are checked against the sum of
        the columns as Fractions."""
        rng = random.Random(0)
        g = gen_ktree(3000, 5, 0)
        fw = Framework(g, 4, [[rng.randint(-10**6, 10**6) for _ in range(4)]
                              for _ in range(g.n)])

        def forbidden(*args):
            raise AssertionError("the stress was summed")
        monkeypatch.setattr(framework, "_gram_entries", forbidden)
        start = time.perf_counter()
        cert = certify_chordal(fw)
        elapsed = time.perf_counter() - start
        assert cert.verdict is Verdict.UNIVERSALLY_RIGID and cert.stress.n == 3000
        assert elapsed < 5.0, f"certify_chordal took {elapsed:.1f}s"
        monkeypatch.undo()
        start = time.perf_counter()
        rows = cert.stress.nonzero_rows()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"the first read of the stress took {elapsed:.1f}s"
        columns = gale_fractions(gale_columns(fw, cert.peo))
        for u in (cert.peo.vertex_at(1) - 1, cert.peo.vertex_at(3000) - 1):
            expected = {}
            for col in columns:
                if u in col:
                    for w, x in col.items():
                        expected[w] = expected.get(w, 0) + col[u] * x
            assert rows[u] == {w: x for w, x in expected.items() if x}

    def test_repr_names_the_size_and_sums_no_stress(self, monkeypatch):
        """The repr of a stress or a Gale matrix names its size, as that of
        a framework does, so a certificate's repr at n=2000, r=2 sums no
        stress; the dense text would pass Python's int-to-str digit limit."""
        rng = random.Random(0)
        g = gen_ktree(2000, 3, 0)
        fw = Framework(g, 2, [[rng.randint(-10**6, 10**6) for _ in range(2)]
                              for _ in range(g.n)])

        def forbidden(*args):
            raise AssertionError("the stress was summed")
        monkeypatch.setattr(framework, "_gram_entries", forbidden)
        cert = certify_chordal(fw)
        text = repr(cert)
        assert "stress=StressMatrix(n=2000)" in text and len(text) < 10 * fw.n
        assert repr(unit_triangular_gale(fw, cert.peo)) == "GaleMatrix(n=2000, rbar=1997)"

    def test_psdize_reads_the_unit_columns_in_the_input_scale(self, hexagon):
        res = psdize_stress(hexagon.fw, StressMatrix(scaled_matrix(hexagon.stress, F(1, 6))))
        assert res.stress.matrix == hexagon.psd
        assert eliminated(res) == hexagon.eliminated
        assert res.gale.matrix == hexagon.gale


def seeded_matrices():
    rng = random.Random("json")
    for n in (1, 2, 5, 9):
        yield [[str(F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else 0)
                for _ in range(n)] for _ in range(n)]


class TestRenderJson:
    @pytest.mark.parametrize("rows", list(seeded_matrices()), ids=len)
    def test_matrix_bytes(self, rows, tmp_path):
        for obj in (rows, {"n": len(rows), "matrix": rows}):
            assert jsonio.render_json(obj) == json.dumps(obj, indent=2)
            path = tmp_path / "m.json"
            jsonio.write_json(path, obj)
            assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()

    def test_certificates_with_and_without_a_stress(self, hexagon):
        fw = random_general_position_framework(12, 2, 1)
        certs = [certify_chordal(fw),
                 Certificate(Verdict.INCONCLUSIVE, connectivity=2, detail=(1, 2)),
                 Certificate(Verdict.UNIVERSALLY_RIGID, stress=StressMatrix(zeros(3, 3))),
                 Certificate(Verdict.UNIVERSALLY_RIGID, stress=StressMatrix(hexagon.psd))]
        for cert in certs:
            obj = jsonio.certificate_to_obj(cert)
            assert jsonio.render_json(obj) == json.dumps(obj, indent=2)
        assert '"stress": null' in jsonio.render_json(jsonio.certificate_to_obj(certs[1]))

    @pytest.mark.parametrize("obj", [
        {}, [], "xé\"\\", 3, None, 1.5, True, [[]], [[], [1, [2, {}]]],
        {"a": {"b": [None, False, 0.25]}, "c": []}, {1: 2, None: 3, True: [4]}, (1, (2,)),
    ], ids=repr)
    def test_any_json_value(self, obj):
        assert jsonio.render_json(obj) == json.dumps(obj, indent=2)

    def test_strings_that_need_escaping(self):
        """Rows of strings go out joined as they are only when json would
        not escape them: seeded strings of printable ASCII, control
        characters, DEL, quotes, backslashes and non-ASCII characters."""
        rng = random.Random("escapes")
        alphabet = [chr(c) for c in range(0, 0x80)] + ["é", "\u2028", "\ud800", "\U0001f600"]
        for _ in range(500):
            row = ["".join(rng.choice(alphabet) if rng.random() < 0.2
                           else chr(rng.randrange(32, 127)) for _ in range(rng.randrange(5)))
                   for _ in range(rng.randint(1, 4))]
            for obj in (row, {"m": [row, row]}):
                assert jsonio.render_json(obj) == json.dumps(obj, indent=2)

    def test_unencodable_values_raise_as_json_does(self):
        for obj in ({(1, 2): 3}, [F(1, 2)], {"a": [object()]}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2)
            with pytest.raises(TypeError):
                jsonio.render_json(obj)
