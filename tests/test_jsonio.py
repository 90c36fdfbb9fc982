import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import rational_lists, rational_points_framework, spy_matrix_shapes
from chordalrig import jsonio
from chordalrig.certify import certify_chordal, unit_triangular_gale
from chordalrig.exactmat import Matrix
from chordalrig.framework import (
    Framework,
    StressMatrix,
    gale_matrix,
    random_general_position_framework,
)
from chordalrig.graphs import Graph, is_chordal
from chordalrig.jsonio import (
    MAX_VERTICES,
    InputTooLarge,
    ParseError,
    certificate_to_obj,
    framework_from_obj,
    framework_to_obj,
    gale_to_lists,
    graph_from_obj,
    graph_to_obj,
    load_framework,
    load_stress,
    parse_rational,
    rational_str,
    read_json,
    stress_matrix_from_obj,
    stress_to_obj,
    write_json,
)

F = Fraction

# The interpreter's int-string digit limit; a numerator or denominator of
# this many digits parses, one more digit does not.
_LIMIT = sys.get_int_max_str_digits()

_NAMED = ["-0", "+0", "0", "00", "0/7", "-0/3", "2/4", "-6/4", "+10/15", "007",
          "-007/21", "1/1", "9" * _LIMIT, "-" + "0" * (_LIMIT - 1) + "1",
          "3" * _LIMIT + "/" + "6" * _LIMIT]


@st.composite
def _digit_run(draw, first="0123456789"):
    """A short run of ASCII digits or one of exactly the digit limit's
    length, repeated from a short pattern."""
    head = draw(st.sampled_from(first))
    tail = draw(st.text("0123456789", max_size=8))
    size = draw(st.one_of(st.integers(1, 9), st.integers(_LIMIT - 2, _LIMIT)))
    return (head + (tail or head) * size)[:size]


# The accepted grammar: an optional sign, a numerator (leading zeros
# allowed), and an optional denominator without leading zeros.
_GRAMMAR = st.builds(
    lambda sign, zeros, num, den: sign + "0" * zeros + num + (f"/{den}" if den else ""),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 3),
    _digit_run(),
    st.one_of(st.none(), _digit_run("123456789")),
).filter(lambda s: len(s.split("/")[0].lstrip("+-")) <= _LIMIT)


class TestParseRational:
    @pytest.mark.parametrize("raw, expected", [
        ("3", F(3)),
        ("-4/7", F(-4, 7)),
        ("+3", F(3)),
        (5, F(5)),
        (-2, F(-2)),
        ("2/4", F(1, 2)),
        ("0", F(0)),
    ])
    def test_accepted(self, raw, expected):
        assert parse_rational(raw, "x") == expected

    @pytest.mark.parametrize("raw", [1.5, "1.5", True, False, "4/0", "4/-7",
                                     " 1", "1 ", "", "a", None, [1],
                                     "5\n", "3/4\n", "\u0663", "\uff17"])
    def test_rejected(self, raw):
        # the last two are an Arabic-Indic three and a full-width seven
        with pytest.raises(ParseError):
            parse_rational(raw, "x")

    def test_named_forms_match_fraction(self):
        for raw in _NAMED:
            assert parse_rational(raw, "x") == Fraction(raw)

    @seed(13)
    @settings(max_examples=300, deadline=None, database=None)
    @given(_GRAMMAR)
    def test_matches_fraction_over_the_grammar(self, raw):
        assert parse_rational(raw, "x") == Fraction(raw)

    @pytest.mark.parametrize("raw", [
        "7" * (_LIMIT + 1),
        "-" + "0" * (_LIMIT + 1),
        "1/" + "3" * (_LIMIT + 1),
        "+" + "9" * (_LIMIT + 1) + "/2",
    ], ids=["numerator", "signed zeros", "denominator", "signed numerator"])
    def test_past_the_digit_limit(self, raw):
        with pytest.raises(ParseError, match=rf"rational too long to parse \({len(raw)} "):
            parse_rational(raw, "x")

    def test_error_carries_location(self):
        with pytest.raises(ParseError, match=r"points\[2\]"):
            parse_rational("oops", "points[2]")

    def test_rational_str_round_trip(self):
        for q in (F(0), F(3), F(-4, 7), F(10, 2)):
            assert parse_rational(rational_str(q), "x") == q

    def test_integer_renders_bare(self):
        assert rational_str(F(6, 2)) == "3"
        assert rational_str(F(1, 2)) == "1/2"


class TestGraphObj:
    def test_round_trip(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert graph_from_obj(graph_to_obj(g)) == g

    def test_either_endpoint_order(self):
        g = graph_from_obj({"n": 3, "edges": [[2, 1], [3, 2]]})
        assert g.has_edge(1, 2) and g.has_edge(2, 3)

    def test_loop_located(self):
        with pytest.raises(ParseError, match=r"edges\[1\]"):
            graph_from_obj({"n": 3, "edges": [[1, 2], [2, 2]]})

    def test_duplicate_located(self):
        with pytest.raises(ParseError, match=r"edges\[2\]"):
            graph_from_obj({"n": 3, "edges": [[1, 2], [2, 3], [2, 1]]})

    def test_range_checked(self):
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            graph_from_obj({"n": 3, "edges": [[1, 4]]})

    def test_short_edge_rejected(self):
        with pytest.raises(ParseError):
            graph_from_obj({"n": 3, "edges": [[1]]})

    def test_missing_edges_means_edgeless(self):
        g = graph_from_obj({"n": 3})
        assert g.n == 3 and not g.edges

    def test_missing_n_rejected(self):
        with pytest.raises(ParseError, match="'n'"):
            graph_from_obj({"edges": []})

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            graph_from_obj([1, 2])


    @pytest.mark.parametrize("obj, where", [
        ({"n": MAX_VERTICES + 1, "edges": []}, r"graph\.n"),
        ({"dim": 1, "points": [["0"]] * (MAX_VERTICES + 1), "edges": []},
         r"framework\.points"),
    ])
    def test_vertex_bound_checked_before_allocation(self, monkeypatch, obj, where):
        def no_graph(*args, **kwargs):
            pytest.fail("a graph was allocated")

        monkeypatch.setattr(jsonio, "Graph", no_graph)
        parse = graph_from_obj if "n" in obj else framework_from_obj
        with pytest.raises(InputTooLarge, match=where) as err:
            parse(obj)
        assert not isinstance(err.value, ParseError)


class TestFrameworkObj:
    def test_round_trip_exact(self, hexagon):
        obj = framework_to_obj(hexagon.fw)
        back = framework_from_obj(obj)
        assert back.graph == hexagon.fw.graph
        assert back.points == hexagon.fw.points
        assert back.dim == hexagon.fw.dim

    def test_fractional_coordinates_survive(self):
        fw = Framework(Graph.path(2), 1, [("1/3",), ("5/7",)])
        assert framework_from_obj(framework_to_obj(fw)).points == fw.points

    def test_point_dimension_located(self):
        obj = {"dim": 2, "points": [["0", "0"], ["1"], ["0", "1"]],
               "edges": [[1, 2], [2, 3], [1, 3]]}
        with pytest.raises(ParseError, match=r"points\[1\]"):
            framework_from_obj(obj)

    def test_missing_key(self):
        with pytest.raises(ParseError, match="dim"):
            framework_from_obj({"points": [], "edges": []})

    def test_construction_errors_become_parse_errors(self):
        collinear = {"dim": 2, "points": [["0", "0"], ["1", "0"], ["2", "0"]],
                     "edges": [[1, 2], [2, 3], [1, 3]]}
        with pytest.raises(ParseError):
            framework_from_obj(collinear)
        disconnected = {"dim": 1, "points": [["0"], ["1"], ["2"]],
                        "edges": [[1, 2]]}
        with pytest.raises(ParseError):
            framework_from_obj(disconnected)

    def test_float_coordinate_rejected(self):
        obj = {"dim": 1, "points": [[0.5], [1]], "edges": [[1, 2]]}
        with pytest.raises(ParseError, match="floating-point"):
            framework_from_obj(obj)


class TestGaleLists:
    def test_the_dense_view_written_from_the_columns(self, monkeypatch):
        """The rows ``gale_to_lists`` writes from the integer columns are the
        dense view's entries as rational strings, for the canonical and the
        unit-triangular Gale matrices of seeded frameworks with integer and
        rational points, r = 1..3; no ``Matrix`` is built on the way."""
        rng = random.Random("gale-lists")
        for r in (1, 2, 3):
            for fw in (random_general_position_framework(rng.randint(r + 2, r + 9), r,
                                                         rng.randrange(10_000)),
                       rational_points_framework(rng, rng.randint(r + 2, r + 9), r)):
                for z in (gale_matrix(fw), unit_triangular_gale(fw, is_chordal(fw.graph).peo)):
                    shapes = spy_matrix_shapes(monkeypatch)
                    rows = gale_to_lists(z)
                    assert shapes == []
                    monkeypatch.undo()
                    assert rows == rational_lists(z.matrix)


class TestMatrixObj:
    def test_round_trip(self, hexagon):
        lists = rational_lists(hexagon.stress)
        assert stress_matrix_from_obj({"n": 6, "matrix": lists}) == StressMatrix(hexagon.stress)
        assert all(isinstance(x, str) for row in lists for x in row)

    def test_bare_ints_accepted(self):
        assert stress_matrix_from_obj({"n": 2, "matrix": [[1, 2], [3, 4]]}) \
            == StressMatrix(Matrix([[1, 2], [3, 4]]))

    def test_ragged_rejected(self):
        with pytest.raises(ParseError, match=r"matrix\[1\]"):
            stress_matrix_from_obj({"n": 2, "matrix": [[1, 2], [3]]})

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            stress_matrix_from_obj({"n": 0, "matrix": []})

    def test_non_list_rejected(self):
        with pytest.raises(ParseError):
            stress_matrix_from_obj({"n": 1, "matrix": "nope"})


class TestStressObj:
    def test_round_trip(self, hexagon):
        obj = stress_to_obj(StressMatrix(hexagon.stress))
        assert obj["n"] == 6
        assert stress_matrix_from_obj(obj) == StressMatrix(hexagon.stress)

    def test_size_mismatch(self):
        with pytest.raises(ParseError, match="2x2"):
            stress_matrix_from_obj({"n": 3, "matrix": [[0, 0], [0, 0]]})

    def test_missing_matrix(self):
        with pytest.raises(ParseError, match="matrix"):
            stress_matrix_from_obj({"n": 2})

    def test_an_entry_past_the_digit_limit_raises_before_the_dense_rows(self):
        """The nonzero entries are written first: an entry that
        ``rational_str`` cannot write raises before the n x n rows of "0",
        72 MB of list slots at n = 3000, are allocated."""
        n = 3000
        rows = {u: {} for u in range(n)}
        rows[n - 1][n - 1] = F(10 ** _LIMIT)  # one digit past the limit
        s = StressMatrix.from_rows(rows)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit"):
                stress_to_obj(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n // 20


def seeded_stress_objects():
    """Stress objects of n = 1..30 whose entries mix denominators, bare
    ints and every spelling of zero."""
    rng = random.Random("sparse parse")
    zeros = [0, "0", "0/7", "-0", "+0", "-0/3"]
    for n in range(1, 31):
        def entry():
            if rng.random() < 0.5:
                return rng.choice(zeros)
            q = F(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12, 35)))
            return int(q) if q.denominator == 1 and rng.random() < 0.3 else str(q)
        yield {"n": n, "matrix": [[entry() for _ in range(n)] for _ in range(n)]}


# Malformed stress objects and the message each raised when stresses were
# parsed into a dense matrix first; the sparse parse keeps them byte for byte.
MALFORMED_STRESSES = [
    ([], "stress: expected an object"),
    ({"matrix": [[0]]}, "stress: missing key 'n'"),
    ({"n": 1}, "stress: missing key 'matrix'"),
    ({"n": "2", "matrix": [[0, 0], [0, 0]]}, "stress.n: expected an integer, got str"),
    ({"n": True, "matrix": [[0]]}, "stress.n: expected an integer, got bool"),
    ({"n": 3, "matrix": [[0, 0], [0, 0]]}, "stress.matrix: matrix is 2x2, expected 3x3"),
    ({"n": -1, "matrix": [[0]]}, "stress.matrix: matrix is 1x1, expected -1x-1"),
    ({"n": 2, "matrix": [["0", "0"], ["0", "0"], ["0", "0"]]},
     "stress.matrix: matrix is 3x2, expected 2x2"),
    ({"n": 2, "matrix": [["0", "0", "0"], ["0", "0", "0"]]},
     "stress.matrix: matrix is 2x3, expected 2x2"),
    ({"n": 1, "matrix": "nope"}, "stress.matrix: expected a list, got str"),
    ({"n": 1, "matrix": {"a": 1}}, "stress.matrix: expected a list, got dict"),
    ({"n": 0, "matrix": []}, "stress.matrix: matrix must have at least one row"),
    ({"n": 2, "matrix": [[], []]}, "stress.matrix: matrix rows must be nonempty"),
    ({"n": 2, "matrix": [["1"], "x"]}, "stress.matrix[1]: expected a list, got str"),
    ({"n": 1, "matrix": [5]}, "stress.matrix[0]: expected a list, got int"),
    ({"n": 2, "matrix": [["1", "2"], ["3"]]}, "stress.matrix[1]: row has 1 entries, expected 2"),
    ({"n": 2, "matrix": [["1"], ["2", "3"]]}, "stress.matrix[1]: row has 2 entries, expected 1"),
    ({"n": 1, "matrix": [[False]]}, "stress.matrix[0][0]: expected a rational, got a boolean"),
    ({"n": 2, "matrix": [["1", False], ["0", "0"]]},
     "stress.matrix[0][1]: expected a rational, got a boolean"),
    ({"n": 1, "matrix": [[0.0]]},
     "stress.matrix[0][0]: floating-point numbers are not accepted; use a string"),
    ({"n": 2, "matrix": [["0", "0"], ["0", 0.0]]},
     "stress.matrix[1][1]: floating-point numbers are not accepted; use a string"),
    ({"n": 1, "matrix": [["5\n"]]}, "stress.matrix[0][0]: malformed rational '5\\n'"),
    # a bad entry in row 0 is reported ahead of a ragged row 1
    ({"n": 2, "matrix": [["1", "x"], ["2"]]}, "stress.matrix[0][1]: malformed rational 'x'"),
    ({"n": 2, "matrix": [["0", False], ["2"]]},
     "stress.matrix[0][1]: expected a rational, got a boolean"),
    ({"n": 3, "matrix": [["1", "2"], ["3"], ["x", "y"]]},
     "stress.matrix[1]: row has 1 entries, expected 2"),
    ({"n": 3, "matrix": [["x"], [], ["y"]]}, "stress.matrix[0][0]: malformed rational 'x'"),
    ({"n": 2, "matrix": [["0", "0"], ["0", "1/0"]]},
     "stress.matrix[1][1]: malformed rational '1/0'"),
    ({"n": 1, "matrix": [[None]]}, "stress.matrix[0][0]: expected a rational, got NoneType"),
    ({"n": 1, "matrix": [[[1]]]}, "stress.matrix[0][0]: expected a rational, got list"),
    ({"n": 1, "matrix": [["7" * 4400]]},
     "stress.matrix[0][0]: rational too long to parse (4400 characters)"),
    ({"n": 1, "matrix": [["0 "]]}, "stress.matrix[0][0]: malformed rational '0 '"),
    ({"n": 1, "matrix": [["1/-2"]]}, "stress.matrix[0][0]: malformed rational '1/-2'"),
    ({"n": 1, "matrix": [["\u0663"]]}, "stress.matrix[0][0]: malformed rational '\u0663'"),
    ({"n": 1, "matrix": [["1.5"]]}, "stress.matrix[0][0]: malformed rational '1.5'"),
]


class TestSparseStressParse:
    @pytest.mark.parametrize("obj", list(seeded_stress_objects()), ids=lambda o: str(o["n"]))
    def test_equals_the_dense_parse(self, obj):
        dense = Matrix([[F(x) for x in row] for row in obj["matrix"]])
        got = stress_matrix_from_obj(obj)
        want = StressMatrix(dense)
        assert got == want and got.matrix == dense
        assert got.nonzero_rows() == want.nonzero_rows()
        assert got.congruent == want.congruent

    @pytest.mark.parametrize("obj, message", MALFORMED_STRESSES,
                             ids=range(len(MALFORMED_STRESSES)))
    def test_parse_error_messages(self, obj, message):
        with pytest.raises(ParseError) as err:
            stress_matrix_from_obj(obj)
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            stress_matrix_from_obj(obj, where="s.json")
        assert str(err.value) == "s.json" + message.removeprefix("stress")


CERT_KEYS = {"verdict", "connectivity", "peo", "stress", "counterexample", "reason"}


class TestCertificateObj:
    def test_rigid_certificate(self, hexagon):
        obj = certificate_to_obj(certify_chordal(hexagon.fw))
        assert set(obj) == CERT_KEYS
        assert obj["verdict"] == "UniversallyRigid"
        assert obj["connectivity"] == 3
        assert obj["peo"] == [1, 2, 5, 4, 3, 6]
        assert obj["stress"]["n"] == 6
        assert obj["counterexample"] is None and obj["reason"] is None

    def test_flexible_certificate(self, path3_line):
        obj = certificate_to_obj(certify_chordal(path3_line))
        assert set(obj) == CERT_KEYS
        assert obj["verdict"] == "NotGloballyRigid"
        assert obj["stress"] is None
        assert obj["counterexample"]["points"] == [["2"], ["1"], ["2"]]

    def test_inconclusive_certificate(self, prism):
        obj = certificate_to_obj(certify_chordal(prism))
        assert set(obj) == CERT_KEYS
        assert obj["verdict"] == "Inconclusive"
        assert obj["reason"] == "NotChordal"
        assert obj["peo"] is None and obj["connectivity"] is None

    def test_detail_not_serialized(self, k5_minus_edge):
        obj = certificate_to_obj(certify_chordal(k5_minus_edge))
        assert "detail" not in obj
        assert obj["reason"] == "NotGeneralPosition"


class TestFiles:
    def test_framework_file_round_trip(self, tmp_path, hexagon):
        path = tmp_path / "fw.json"
        write_json(path, framework_to_obj(hexagon.fw))
        back = load_framework(path)
        assert back.points == hexagon.fw.points
        assert back.graph == hexagon.fw.graph

    def test_stress_file_round_trip(self, tmp_path, hexagon):
        path = tmp_path / "s.json"
        write_json(path, stress_to_obj(StressMatrix(hexagon.psd)))
        assert load_stress(path) == StressMatrix(hexagon.psd)

    def test_invalid_json_located(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 1,\n  broken\n}\n')
        with pytest.raises(ParseError) as err:
            read_json(path)
        assert f"{path}:2:3" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_json(tmp_path / "absent.json")

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json(path, {"a": 1})
        assert path.read_text().endswith("}\n")
