"""JSON serialization for graphs, frameworks, stresses and certificates.

Rationals travel as strings ("p/q" in lowest terms, or a plain decimal
integer, in ASCII digits; bare JSON integers are accepted as shorthand) so
nothing ever round-trips through floating point. Parsers report the
position of the offending element.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from pathlib import Path

from .certify import Certificate
from .framework import Framework, GaleMatrix, StressMatrix
from .graphs import Graph

# Matched against the whole string: a signed numerator, then an optional
# denominator without leading zeros, both in ASCII digits.
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")

# Largest vertex count a graph or framework file may declare. A graph
# allocates per vertex, so without a bound a file of a few bytes could ask
# for any amount of memory.
MAX_VERTICES = 10_000


class ParseError(Exception):
    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class InputTooLarge(Exception):
    """A well-formed input declares more vertices than ``MAX_VERTICES``."""


def _check_vertex_count(n: int, where: str) -> None:
    if n > MAX_VERTICES:
        raise InputTooLarge(f"{where}: {n} vertices exceed the bound of {MAX_VERTICES}")


def parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", where)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError("floating-point numbers are not accepted; use a string", where)
    if isinstance(value, str):
        match = _RATIONAL_RE.fullmatch(value)
        if match is None:
            raise ParseError(f"malformed rational {value!r}", where)
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ValueError:  # beyond the interpreter's int-string digit limit
            raise ParseError(f"rational too long to parse ({len(value)} characters)",
                             where) from None
    raise ParseError(f"expected a rational, got {type(value).__name__}", where)


def rational_str(q: Fraction) -> str:
    return str(q)


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected a list, got {type(value).__name__}", where)
    return value


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {type(value).__name__}", where)
    return value


def _parse_edges(value, n: int, where: str) -> list[tuple[int, int]]:
    edges = []
    seen = set()
    for k, item in enumerate(_expect_list(value, where)):
        spot = f"{where}[{k}]"
        pair = _expect_list(item, spot)
        if len(pair) != 2:
            raise ParseError(f"edge must have two endpoints, got {len(pair)}", spot)
        u = _expect_int(pair[0], spot)
        v = _expect_int(pair[1], spot)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range 1..{n}", spot)
        if u == v:
            raise ParseError(f"loop at vertex {u}", spot)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {list(key)}", spot)
        seen.add(key)
        edges.append(key)
    return edges


def graph_to_obj(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_obj(obj, where: str = "graph") -> Graph:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    if "n" not in obj:
        raise ParseError("missing key 'n'", where)
    n = _expect_int(obj["n"], f"{where}.n")
    if n < 1:
        raise ParseError("vertex count must be positive", f"{where}.n")
    _check_vertex_count(n, f"{where}.n")
    edges = _parse_edges(obj.get("edges", []), n, f"{where}.edges")
    return Graph(n, edges)


def framework_to_obj(fw: Framework) -> dict:
    return {
        "dim": fw.dim,
        "points": [[rational_str(x) for x in p] for p in fw.points],
        "edges": [list(e) for e in fw.graph.edges],
    }


def framework_from_obj(obj, where: str = "framework") -> Framework:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    for key in ("dim", "points", "edges"):
        if key not in obj:
            raise ParseError(f"missing key '{key}'", where)
    dim = _expect_int(obj["dim"], f"{where}.dim")
    if dim < 1:
        raise ParseError("dimension must be positive", f"{where}.dim")
    raw_points = _expect_list(obj["points"], f"{where}.points")
    if not raw_points:
        raise ParseError("at least one point required", f"{where}.points")
    _check_vertex_count(len(raw_points), f"{where}.points")
    points = []
    for i, rp in enumerate(raw_points):
        spot = f"{where}.points[{i}]"
        coords = _expect_list(rp, spot)
        if len(coords) != dim:
            raise ParseError(f"point has {len(coords)} coordinates, expected {dim}", spot)
        points.append([parse_rational(c, f"{spot}[{k}]") for k, c in enumerate(coords)])
    edges = _parse_edges(obj["edges"], len(points), f"{where}.edges")
    try:
        return Framework(Graph(len(points), edges), dim, points)
    except Exception as exc:
        raise ParseError(str(exc), where) from exc


def gale_to_lists(z: GaleMatrix) -> list[list[str]]:
    """The rows of rational strings of a Gale matrix, written from its
    integer columns (``GaleMatrix.columns``): x / d at each entry x of a
    column with pivot entry d, "0" elsewhere; no dense matrix is built."""
    out = [["0"] * z.rbar for _ in range(z.n)]
    for j, col in enumerate(z.columns):
        d = next(iter(col.values()))
        for u, x in col.items():
            out[u][j] = rational_str(Fraction(x, d))
    return out


def stress_to_obj(s: StressMatrix) -> dict:
    """The stress as {"n": n, "matrix": rows of rational strings}, written
    from its nonzero entries (``StressMatrix.nonzero_rows``) with "0"
    elsewhere, so a stress held sparse is written without its dense
    matrix. The nonzero entries are turned into strings before the n x n
    rows are allocated, so an entry ``rational_str`` cannot write raises
    before the dense rows cost any memory."""
    written = [(u, [(w, rational_str(x)) for w, x in row.items()])
               for u, row in s.nonzero_rows().items()]
    out = [["0"] * s.n for _ in range(s.n)]
    for u, row in written:
        line = out[u]
        for w, text in row:
            line[w] = text
    return {"n": s.n, "matrix": out}


def stress_matrix_from_obj(obj, where: str = "stress") -> StressMatrix:
    """The stress of {"n": n, "matrix": n rows of n rationals}, parsed
    straight into its nonzero entries (``StressMatrix.from_rows``): no
    dense matrix is built. The rows are read in order, each checked to be
    a list as wide as the first before its entries are parsed, so the
    first malformed element is the one reported; "0" entries are skipped
    unparsed, and any other zero is dropped once parsed."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    for key in ("n", "matrix"):
        if key not in obj:
            raise ParseError(f"missing key '{key}'", where)
    n = _expect_int(obj["n"], f"{where}.n")
    where = f"{where}.matrix"
    raw = _expect_list(obj["matrix"], where)
    if not raw:
        raise ParseError("matrix must have at least one row", where)
    width = None
    rows = {}
    for i, entries in enumerate(raw):
        spot = f"{where}[{i}]"
        entries = _expect_list(entries, spot)
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(f"row has {len(entries)} entries, expected {width}", spot)
        row = rows[i] = {}
        for k, x in enumerate(entries):
            if x != "0" and (q := parse_rational(x, f"{spot}[{k}]")):
                row[k] = q
    if width == 0:
        raise ParseError("matrix rows must be nonempty", where)
    if (len(raw), width) != (n, n):
        raise ParseError(f"matrix is {len(raw)}x{width}, expected {n}x{n}", where)
    return StressMatrix.from_rows(rows)


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "verdict": cert.verdict.value,
        "connectivity": cert.connectivity,
        "peo": list(cert.peo.order) if cert.peo is not None else None,
        "stress": stress_to_obj(cert.stress) if cert.stress is not None else None,
        "counterexample": (framework_to_obj(cert.counterexample)
                           if cert.counterexample is not None else None),
        "reason": cert.reason.value if cert.reason is not None else None,
    }


def read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} cannot be decoded",
                         str(path)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"{path}:{exc.lineno}:{exc.colno}") from exc
    except ValueError:  # an integer literal beyond the int-string digit limit
        raise ParseError("integer literal too long to parse", str(path)) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to parse", str(path)) from None


# The types json encodes as scalars; a subclass takes the general path.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=16)
def _scalar_list_encoder(inner: str) -> json.JSONEncoder:
    """The C encoder of a list of scalars whose items start at ``inner``:
    its item separator carries the line break and the indent."""
    return json.JSONEncoder(separators=("," + inner, ": "))


def _unescaped(text: str) -> bool:
    """Whether json writes ``text`` as it is: printable ASCII without
    quotes or backslashes, the characters that ``ensure_ascii`` leaves."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _scalar_items(items: list, types: set, inner: str) -> str:
    """The scalars ``items``, of the ``types``, as ``json.dumps`` writes
    them one per line at ``inner``, without the brackets. Strings that need
    no escaping, such as rational strings, are quoted and joined as they
    are; anything else goes to the C encoder."""
    if types == {str} and _unescaped("".join(items)):
        return '"' + ('",' + inner + '"').join(items) + '"'
    return _scalar_list_encoder(inner).encode(items)[1:-1]


def _render(obj, newline: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``json.dumps(obj, indent=2)`` for a
    value whose first line is already written and whose lines continue at
    ``newline``. A list of scalars, such as a row of rational strings, is
    written in one piece (``_scalar_items``); only dicts and nested lists
    are walked here."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{"
        for key, value in obj.items():
            if not isinstance(key, str):
                if type(key) not in _SCALAR_TYPES:
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = json.dumps(key)
            out.append(f"{sep}{inner}{json.dumps(key)}: ")
            _render(value, inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif (types := set(map(type, obj))) <= _SCALAR_TYPES:
            out.append(f"[{inner}{_scalar_items(obj, types, inner)}{newline}]")
        else:
            sep = "["
            for value in obj:
                out.append(sep + inner)
                _render(value, inner, out)
                sep = ","
            out.append(newline + "]")
    else:
        out.append(json.dumps(obj))


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without the pure-Python
    encoder that an indent selects: each row of a matrix is written in one
    piece (``_render``)."""
    out: list[str] = []
    _render(obj, "\n", out)
    return "".join(out)


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(render_json(obj) + "\n")


def load_framework(path: str | Path) -> Framework:
    return framework_from_obj(read_json(path), where=str(path))


def load_stress(path: str | Path) -> StressMatrix:
    """The stress held in a JSON file (``stress_matrix_from_obj``)."""
    return stress_matrix_from_obj(read_json(path), where=str(path))
