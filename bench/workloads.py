"""Seeded inputs, the timed op and the output checks of each workload.

Inputs come in chunks. A chunk holds one input per size in the workload's
size range, in increasing order. Every chunk has fresh graphs and points
drawn from (workload, seed, chunk, index), so no input repeats within a
run. The sizes do not depend on the seed; the seed only picks the graphs,
points and diagonals.

README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from chordalrig import certify, cli, exactmat, framework, graphs, jsonio

DEFAULT_SEED = 0
REFERENCE_DIGESTS = Path(__file__).with_name("reference_digests.json")


@dataclass
class Input:
    key: str
    n: int
    r: int
    fw: framework.Framework
    in_bits: int
    files: dict[str, Path] | None = None


@dataclass
class Checked:
    digest: str
    out_bits: int
    problems: list[str]


def bits(values) -> int:
    """Largest numerator or denominator bit-length among the values."""
    return max((max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                for q in map(Fraction, values)), default=0)


def _rng(name: str, seed: int, chunk: int, index: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{chunk}/{index}")


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _extends_general_position(points: list[tuple[int, ...]], p: tuple[int, ...]) -> bool:
    """Whether p and every dim of the points (dim 2 or 3) are affinely
    independent, by exact integer determinants, independently of the
    package under test."""
    dim = len(p)
    return all(_det([[q[k] - p[k] for k in range(dim)] for q in rest]) != 0
               for rest in itertools.combinations(points, dim))


def ktree_framework(n: int, dim: int, k: int, rng: random.Random) -> framework.Framework:
    """A seeded k-tree with integer points in general position, drawn one
    at a time from [-4n, 4n]^dim; a point is drawn again only if it is
    dependent on earlier ones. Set-up thus scans the C(n, dim+1) subsets
    once whatever the seed, instead of once per rejected configuration."""
    g = graphs.gen_ktree(n, k, rng.randrange(2 ** 31))
    pts: list[tuple[int, ...]] = []
    while len(pts) < n:
        p = tuple(rng.randint(-4 * n, 4 * n) for _ in range(dim))
        if _extends_general_position(pts, p):
            pts.append(p)
    return framework.Framework(g, dim, pts)


# ---- independent re-checks -------------------------------------------------

def psd_rank(rows: list[list[Fraction]]) -> int | None:
    """Rank of a symmetric rational matrix if it is positive semidefinite,
    else None.

    Exact symmetric elimination (LDL^T) over Fraction, pivoting on a
    positive diagonal entry. With a positive pivot the matrix is PSD
    exactly when the Schur complement is, and a PSD matrix whose diagonal
    is zero is zero.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    while a:
        diagonal = [row[i] for i, row in enumerate(a)]
        if min(diagonal) < 0:
            return None
        p = next((i for i, d in enumerate(diagonal) if d > 0), None)
        if p is None:
            return None if any(any(row) for row in a) else rank
        pivot_row = a[p]
        a = [[row[j] - row[p] * pivot_row[j] / pivot_row[p]
              for j in range(len(row)) if j != p]
             for i, row in enumerate(a) if i != p]
        rank += 1
    return rank


def stress_problems(fw: framework.Framework, rows: list[list[Fraction]]) -> list[str]:
    """Symmetric, zero on non-edges, kills the extended configuration, and
    PSD of rank n-dim-1."""
    n = fw.n
    if len(rows) != n or any(len(row) != n for row in rows):
        return [f"stress is not {n}x{n}"]
    problems = []
    edges = set(fw.graph.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                problems.append(f"asymmetric at ({i + 1},{j + 1})")
            elif rows[i][j] != 0 and (i + 1, j + 1) not in edges:
                problems.append(f"nonzero on non-edge ({i + 1},{j + 1})")
    for j in range(n):
        lifted = [sum(rows[i][j] * fw.points[i][c] for i in range(n)) for c in range(fw.dim)]
        if any(lifted) or sum(rows[i][j] for i in range(n)) != 0:
            problems.append(f"column {j + 1} does not kill the extended configuration")
    if not problems:
        rank = psd_rank(rows)
        if rank != fw.rbar:
            problems.append("stress is not PSD" if rank is None
                            else f"stress has rank {rank}, expected {fw.rbar}")
    return problems


def _sq(p, q) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(p, q))


def counterexample_problems(fw: framework.Framework, other: framework.Framework) -> list[str]:
    """Same graph, equal edge lengths, and not congruent."""
    if other.graph.edges != fw.graph.edges or other.dim != fw.dim:
        return ["counterexample has another graph or dimension"]
    problems = [f"edge {u}-{v} changed length" for u, v in fw.graph.edges
                if _sq(fw.point(u), fw.point(v)) != _sq(other.point(u), other.point(v))]
    if all(_sq(fw.point(u), fw.point(v)) == _sq(other.point(u), other.point(v))
           for u, v in itertools.combinations(range(1, fw.n + 1), 2)):
        problems.append("counterexample is congruent to the input")
    return problems


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _certificate_digest(cert) -> str:
    return _sha256(json.dumps(jsonio.certificate_to_obj(cert), indent=2).encode())


# ---- workloads ---------------------------------------------------------------

class Workload:
    name: str
    r: int
    sizes: range
    # Op seconds of one untraced chunk on the 2-vCPU host the harness was
    # built on. It only converts --seconds into a fixed number of chunks.
    chunk_seconds: float

    def chunks_for(self, seconds: float, trace: bool) -> int:
        """Chunks a run executes: the fewest whose ops take at least
        ``seconds`` at the built-on host's speed, a fixed amount of work. A
        traced run executes every input twice, so it takes half as many."""
        return max(1, math.ceil(seconds / (self.chunk_seconds * (2 if trace else 1))))

    def make_chunk(self, seed: int, chunk: int, workdir: Path) -> list[Input]:
        return [self.make_input(n, _rng(self.name, seed, chunk, i), f"{chunk}.{i}", workdir)
                for i, n in enumerate(self.sizes)]

    def make_input(self, n: int, rng: random.Random, key: str, workdir: Path) -> Input:
        raise NotImplementedError

    def run(self, inp: Input):
        """The timed op."""
        raise NotImplementedError

    def check(self, inp: Input, out) -> Checked:
        """Verdict and exact re-checks of one op's output (not timed)."""
        raise NotImplementedError


class CertifyUR(Workload):
    name = "certify_ur"
    r = 2
    sizes = range(12, 31)
    chunk_seconds = 15.0

    def make_input(self, n, rng, key, workdir):
        fw = framework.random_general_position_framework(n, self.r, rng.randrange(2 ** 31))
        return Input(key, n, self.r, fw, bits(itertools.chain(*fw.points)))

    def run(self, inp):
        return certify.certify_chordal(inp.fw)

    def check(self, inp, cert):
        if cert.verdict is not certify.Verdict.UNIVERSALLY_RIGID or cert.stress is None:
            return Checked("", 0, [f"verdict {cert.verdict.value}, expected UniversallyRigid"])
        rows = cert.stress.matrix.to_lists()
        return Checked(_certificate_digest(cert), bits(itertools.chain(*rows)),
                       stress_problems(inp.fw, rows))


class CertifyNGR(Workload):
    name = "certify_ngr"
    r = 3
    sizes = range(12, 21)
    chunk_seconds = 2.8

    def make_input(self, n, rng, key, workdir):
        fw = ktree_framework(n, self.r, self.r, rng)
        return Input(key, n, self.r, fw, bits(itertools.chain(*fw.points)))

    def run(self, inp):
        return certify.certify_chordal(inp.fw)

    def check(self, inp, cert):
        if cert.verdict is not certify.Verdict.NOT_GLOBALLY_RIGID or cert.counterexample is None:
            return Checked("", 0, [f"verdict {cert.verdict.value}, expected NotGloballyRigid"])
        other = cert.counterexample
        return Checked(_certificate_digest(cert), bits(itertools.chain(*other.points)),
                       counterexample_problems(inp.fw, other))


class PsdizeCLI(Workload):
    """``chordalrig psdize`` on S = Z D Z^T, with Z the unit-triangular Gale
    matrix in the ordering psdize picks and D a seeded diagonal of nonzero
    integers of both signs, so S is an indefinite maximal-rank stress whose
    leading minors are products of D's entries, hence nonzero."""

    name = "psdize_cli"
    r = 2
    sizes = range(12, 25)
    chunk_seconds = 5.3

    def make_input(self, n, rng, key, workdir):
        fw = ktree_framework(n, self.r, self.r + 1, rng)
        ident = graphs.Ordering.identity(n)
        peo = ident if graphs.is_peo(fw.graph, ident)[0] else graphs.is_chordal(fw.graph).peo
        z = certify.unit_triangular_gale(fw, peo).matrix
        d = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(fw.rbar)]
        if len({x > 0 for x in d}) == 1:
            d[rng.randrange(len(d))] *= -1
        s = z * exactmat.Matrix([[d[i] if i == j else 0 for j in range(fw.rbar)]
                                 for i in range(fw.rbar)]) * z.transpose()
        files = {kind: workdir / f"{kind}_{key}.json" for kind in ("fw", "stress", "out")}
        jsonio.write_json(files["fw"], jsonio.framework_to_obj(fw))
        jsonio.write_json(files["stress"], jsonio.stress_to_obj(framework.StressMatrix(s)))
        return Input(key, n, self.r, fw, bits(itertools.chain(*s.data)), files)

    def run(self, inp):
        args = ["psdize", str(inp.files["fw"]), "--stress", str(inp.files["stress"]),
                "--output", str(inp.files["out"])]
        with redirect_stdout(io.StringIO()) as out:
            cli.main.main(args=args, prog_name="chordalrig", standalone_mode=False)
        return out.getvalue()

    def check(self, inp, stdout):
        rbar = inp.fw.rbar
        expected = f"rank: {rbar}\npsd: yes\nminors checked: {rbar}\n"
        if stdout != expected:
            return Checked("", 0, [f"stdout {stdout!r}, expected {expected!r}"])
        raw = inp.files["out"].read_bytes()
        obj = json.loads(raw)
        rows = [[Fraction(x) for x in row] for row in obj["matrix"]]
        return Checked(_sha256(raw), bits(itertools.chain(*rows)), stress_problems(inp.fw, rows))


WORKLOADS = {w.name: w for w in (CertifyUR(), CertifyNGR(), PsdizeCLI())}


def load_reference_digests() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE_DIGESTS.read_text())
