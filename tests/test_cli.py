import hashlib
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

import helpers
from chordalrig import certify, cli, graphs
from chordalrig.certify import certify_chordal, unit_triangular_gale
from chordalrig.cli import EXIT_LIMIT, main
from chordalrig.exactmat import Matrix
from chordalrig.framework import (
    Framework,
    StressMatrix,
    gale_matrix,
    is_general_position,
    random_general_position_framework,
)
from chordalrig.graphs import Graph, Ordering, gen_ktree, is_chordal, mcs_order
from chordalrig.jsonio import (
    MAX_VERTICES,
    framework_to_obj,
    graph_to_obj,
    load_framework,
    stress_to_obj,
    write_json,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path, hexagon, k5_minus_edge, prism, path3_line):
    paths = {}

    def save(name, obj):
        path = tmp_path / name
        write_json(path, obj)
        paths[name.removesuffix(".json")] = str(path)

    save("hexagon.json", framework_to_obj(hexagon.fw))
    save("hexagon_stress.json", stress_to_obj(StressMatrix(hexagon.stress)))
    save("hexagon_psd.json", stress_to_obj(StressMatrix(hexagon.psd)))
    save("zero_stress.json", stress_to_obj(StressMatrix(helpers.zeros(6, 6))))
    save("k5me.json", framework_to_obj(k5_minus_edge))
    save("prism.json", framework_to_obj(prism))
    save("prism_graph.json", graph_to_obj(prism.graph))
    save("path3.json", framework_to_obj(path3_line))
    paths["dir"] = str(tmp_path)
    return paths


def lines_of(result):
    return result.output.splitlines()


def _diagonal(d):
    return Matrix([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


def stress_command_inputs():
    """Seeded (framework, dense stress) pairs for the stress commands, 38
    in all: indefinite stresses Z D Z^T of generic rank profile at integer
    and rational points in R^1..R^3, stresses of complete graphs whose first
    or second leading minor vanishes, rank-deficient, zero and certificate
    stresses, symmetric matrices that break the pattern or the kernel,
    non-symmetric matrices and stresses of the wrong size."""
    rng = random.Random("stress digests")
    out = []
    for k in range(12):
        r = k % 3 + 1
        fw = random_general_position_framework(rng.randint(r + 3, r + 8), r, rng.randrange(10**4))
        if k % 2:  # rational points: an axis scaling keeps general position
            axes = [rng.randint(2, 9) for _ in range(r)]
            fw = Framework(fw.graph, r, [[F(x, a) for x, a in zip(p, axes)] for p in fw.points])
        z = unit_triangular_gale(fw, certify._elimination_order(fw.graph)).matrix
        d = [rng.choice((-1, 1)) * F(rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(fw.rbar)]
        s = z * _diagonal(d) * z.transpose()
        out.append((fw, s))
        if k % 3 == 0:  # rank-deficient
            d[rng.randrange(len(d))] = 0
            out.append((fw, z * _diagonal(d) * z.transpose()))
        if k % 4 == 1:  # non-symmetric
            rows = s.to_lists()
            u, w = rng.sample(range(fw.n), 2)
            rows[u][w] += 1
            out.append((fw, Matrix(rows)))
        if k % 4 == 2:  # wrong size
            out.append((fw, helpers.zeros(fw.n + 1, fw.n + 1)))
            out.append((fw, helpers.submatrix(s, range(fw.n - 1), range(fw.n - 1))))
        if k % 4 == 3:  # symmetric out of the kernel, a certificate stress, zero
            rows = s.to_lists()
            rows[0][0] += 1
            out.append((fw, Matrix(rows)))
            cert = certify_chordal(fw)
            out.append((fw, cert.stress.matrix))
            out.append((fw, helpers.zeros(fw.n, fw.n)))
    for n, psi in ((5, [[0, 1], [1, 0]]), (6, [[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
                   (6, [[2, 0, 0], [0, 0, 3], [0, 3, 1]])):
        base = random_general_position_framework(n, 2, n)
        fw = Framework(Graph.complete(n), 2, base.points)
        z = unit_triangular_gale(fw, Ordering.identity(n)).matrix
        out.append((fw, z * Matrix(psi) * z.transpose()))
    fw = random_general_position_framework(8, 2, 5)  # symmetric, nonzero on a non-edge
    rows = helpers.zeros(8, 8).to_lists()
    u, w = next(e for e in itertools.combinations(range(1, 9), 2) if not fw.graph.has_edge(*e))
    rows[u - 1][w - 1] = rows[w - 1][u - 1] = F(1, 3)
    out.append((fw, Matrix(rows)))
    return out


STRESS_COMMANDS = [["psdize"], ["psdize", "--output"], ["stress-check"],
                   ["stress-check", "--format", "json"], ["plot"], ["plot", "--output"]]


def stress_command_digest(runner, tmp_path):
    """The sha256 of the stdout, the stderr, the exit code and the --output
    bytes of every stress command on every input, and the psdize exit codes."""
    record, codes = [], []
    fw_path, s_path, out_path = (tmp_path / name for name in ("fw.json", "s.json", "out"))
    for fw, s in stress_command_inputs():
        write_json(fw_path, framework_to_obj(fw))
        write_json(s_path, stress_to_obj(StressMatrix(s)))
        for command, *options in STRESS_COMMANDS:
            if out_path.exists():
                out_path.unlink()
            if options == ["--output"]:
                options = ["--output", str(out_path)]
            result = runner.invoke(main, [command, str(fw_path), "--stress", str(s_path),
                                          *options])
            written = out_path.read_bytes().decode() if out_path.exists() else None
            record.append([command, *options[:1], result.exit_code, result.stdout,
                           result.stderr.replace(str(tmp_path), "<tmp>"), written])
            if command == "psdize":
                codes.append(result.exit_code)
    return hashlib.sha256(json.dumps(record).encode()).hexdigest(), codes


class TestAnalyze:
    def test_hexagon_report(self, runner, files):
        result = runner.invoke(main, ["analyze", files["hexagon"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "vertices: 6" in out
        assert "edges: 12" in out
        assert "dimension: 2" in out
        assert "gale dimension: 3" in out
        assert "chordal: yes" in out
        assert "peo: 1 2 5 4 3 6" in out
        assert "connectivity: 3" in out
        assert "general position: yes" in out
        assert "verdict: UniversallyRigid" in out
        assert "stress rank: 3 (positive semidefinite)" in out

    def test_not_chordal_report(self, runner, files):
        result = runner.invoke(main, ["analyze", files["prism"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "chordal: no" in out
        assert "chordless cycle: 1 2 4 3" in out
        assert "connectivity: n/a" in out
        assert "verdict: Inconclusive" in out
        assert "reason: NotChordal" in out

    def test_degenerate_report(self, runner, files):
        result = runner.invoke(main, ["analyze", files["k5me"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "general position: no" in out
        assert "degenerate subset: 1 2 3" in out
        assert "reason: NotGeneralPosition" in out

    def test_counterexample_line(self, runner, files):
        result = runner.invoke(main, ["analyze", files["path3"]])
        assert result.exit_code == 0
        assert "verdict: NotGloballyRigid" in lines_of(result)
        assert "counterexample: second realization with equal edge lengths" \
            in lines_of(result)

    def test_json_format(self, runner, files):
        result = runner.invoke(main, ["analyze", files["hexagon"],
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["verdict"] == "UniversallyRigid"
        assert obj["connectivity"] == 3

    def test_output_file(self, runner, files, tmp_path):
        dest = tmp_path / "cert.json"
        result = runner.invoke(main, ["analyze", files["hexagon"],
                                      "--output", str(dest)])
        assert result.exit_code == 0
        obj = json.loads(dest.read_text())
        assert obj["verdict"] == "UniversallyRigid"
        assert "verdict: UniversallyRigid" in lines_of(result)


    @pytest.mark.parametrize("name, witness", [
        ("hexagon", None), ("k5me", (1, 2, 3)), ("path3", None), ("prism", None)])
    def test_one_sweep_per_run(self, runner, files, monkeypatch, name, witness):
        calls = []

        def counted(fw, **kwargs):
            calls.append(fw.n)
            return is_general_position(fw, **kwargs)

        monkeypatch.setattr(cli, "is_general_position", counted)
        result = runner.invoke(main, ["analyze", files[name]])
        assert result.exit_code == 0
        assert len(calls) == 1
        out = lines_of(result)
        assert ("general position: yes" if witness is None else "general position: no") in out
        if witness is not None:
            assert "degenerate subset: " + " ".join(map(str, witness)) in out

    @pytest.mark.parametrize("name", ["hexagon", "prism"])
    def test_cap_hit_exits_with_limit_code(self, runner, files, name):
        # Both have C(6, 3) = 20 subsets. analyze sweeps both itself:
        # certify_chordal proves the hexagon rigid without a sweep.
        result = runner.invoke(main, ["analyze", files[name], "--cap-subsets", "19"])
        assert result.exit_code == EXIT_LIMIT
        assert "20 subsets exceed the cap of 19" in result.stderr


class TestCertify:
    def test_flexible_path(self, runner, files):
        result = runner.invoke(main, ["certify", files["path3"]])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["verdict"] == "NotGloballyRigid"
        assert obj["counterexample"]["points"] == [["2"], ["1"], ["2"]]
        assert obj["stress"] is None

    def test_rigid_hexagon(self, runner, files):
        result = runner.invoke(main, ["certify", files["hexagon"]])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["verdict"] == "UniversallyRigid"
        assert obj["stress"]["n"] == 6


class TestPsdize:
    def test_stdout_matches_frozen(self, runner, files, hexagon):
        result = runner.invoke(main, ["psdize", files["hexagon"],
                                      "--stress", files["hexagon_stress"]])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj == stress_to_obj(StressMatrix(hexagon.psd))

    def test_output_summary(self, runner, files, tmp_path, hexagon):
        dest = tmp_path / "psd.json"
        result = runner.invoke(main, ["psdize", files["hexagon"],
                                      "--stress", files["hexagon_stress"],
                                      "--output", str(dest)])
        assert result.exit_code == 0
        assert lines_of(result) == ["rank: 3", "psd: yes", "minors checked: 3"]
        assert json.loads(dest.read_text()) == stress_to_obj(StressMatrix(hexagon.psd))

    def test_builds_no_dense_view(self, runner, files, tmp_path, hexagon, monkeypatch):
        results = []

        def recorded(*args, **kwargs):
            results.append(certify.psdize_stress(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "psdize_stress", recorded)
        result = runner.invoke(main, ["psdize", files["hexagon"],
                                      "--stress", files["hexagon_stress"],
                                      "--output", str(tmp_path / "psd.json")])
        assert result.exit_code == 0
        res, = results
        assert res.gale._matrix is None
        assert res.gale.matrix == hexagon.gale
        assert helpers.eliminated(res) == hexagon.eliminated

    def test_vanishing_minor_is_hypothesis_failure(self, runner, tmp_path):
        pts = [(i, i * i) for i in range(1, 6)]
        fw = Framework(Graph.complete(5), 2, pts)
        z = unit_triangular_gale(fw, Ordering.identity(5))
        s = helpers.gale_stress(fw, z, Matrix([[0, 1], [1, 0]]))
        fw_path, s_path = tmp_path / "k5.json", tmp_path / "k5s.json"
        write_json(fw_path, framework_to_obj(fw))
        write_json(s_path, stress_to_obj(s))
        result = runner.invoke(main, ["psdize", str(fw_path), "--stress", str(s_path)])
        assert result.exit_code == 1
        assert "leading principal minor 1 is zero" in result.stderr

    def test_zero_stress_rejected(self, runner, files):
        result = runner.invoke(main, ["psdize", files["hexagon"],
                                      "--stress", files["zero_stress"]])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_stress_required(self, runner, files):
        result = runner.invoke(main, ["psdize", files["hexagon"]])
        assert result.exit_code == 2


class TestStressCommands:
    def test_frozen_digest(self, runner, tmp_path):
        """psdize, stress-check and plot --stress on seeded inputs, with
        the digest recorded when stresses were parsed into a dense matrix."""
        digest, codes = stress_command_digest(runner, tmp_path)
        assert sorted(set(codes)) == [0, 1, 3]
        assert digest == "3c0906be1cefb43f062819341a19428834c4d5c9eab9df0a4844f10e4664b4a6"

    def test_build_no_dense_stress(self, runner, tmp_path, monkeypatch):
        fw = random_general_position_framework(40, 2, 3)
        z = unit_triangular_gale(fw, certify._elimination_order(fw.graph)).matrix
        d = [(-1) ** k * (k % 5 + 1) for k in range(fw.rbar)]
        fw_path, s_path = tmp_path / "fw.json", tmp_path / "s.json"
        write_json(fw_path, framework_to_obj(fw))
        write_json(s_path, stress_to_obj(StressMatrix(z * _diagonal(d) * z.transpose())))
        shapes = helpers.spy_matrix_shapes(monkeypatch)
        for command, *options in (["psdize", "--output", str(tmp_path / "psd.json")],
                                  ["stress-check"], ["plot"]):
            result = runner.invoke(main, [command, str(fw_path), "--stress", str(s_path),
                                          *options])
            assert result.exit_code == 0, result.stderr
            if command == "stress-check":
                assert "symmetric: yes" in lines_of(result) and "psd: no" in lines_of(result)
        assert (40, 40) not in shapes


class TestStressCheck:
    def test_indefinite_text(self, runner, files):
        result = runner.invoke(main, ["stress-check", files["hexagon"],
                                      "--stress", files["hexagon_stress"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "symmetric: yes" in out
        assert "pattern: yes" in out
        assert "kernel: yes" in out
        assert "rank: 3" in out
        assert "generic rank profile: yes" in out
        assert "psd: no" in out
        assert "stress matrix: yes" in out

    def test_psd_json(self, runner, files):
        result = runner.invoke(main, ["stress-check", files["hexagon"],
                                      "--stress", files["hexagon_psd"],
                                      "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj == {"symmetric": True, "pattern_ok": True, "kernel_ok": True,
                       "rank": 3, "generic_rank_profile": True, "psd": True,
                       "stress_matrix": True}


class TestGale:
    def test_triangular_frozen(self, runner, files, hexagon):
        result = runner.invoke(main, ["gale", files["hexagon"], "--triangular"])
        assert result.exit_code == 0
        assert json.loads(result.output) == helpers.rational_lists(hexagon.gale)

    def test_default_kernel_basis(self, runner, files, hexagon):
        result = runner.invoke(main, ["gale", files["hexagon"]])
        assert result.exit_code == 0
        expected = helpers.rational_lists(gale_matrix(hexagon.fw).matrix)
        assert json.loads(result.output) == expected

    def test_triangular_needs_chordal(self, runner, files):
        result = runner.invoke(main, ["gale", files["prism"], "--triangular"])
        assert result.exit_code == 1

    def test_triangular_checks_the_ordering_once(self, runner, files, hexagon, tmp_path,
                                                 monkeypatch):
        """An identity that is a PEO proves the graph chordal: no search
        runs, and the Gale construction walks it once more, to build and
        check its later-neighbour lists: 2 walks. Otherwise the search's
        PEO is walked and used: 3 walks. On a graph that is not chordal
        both orderings are walked and no chordless cycle is searched for."""
        # swapping labels 1 and 3 makes vertex 1 adjacent to the non-edge {3, 5}
        swap = {1: 3, 3: 1}
        graph = Graph(6, [(swap.get(u, u), swap.get(v, v)) for u, v in hexagon.fw.graph.edges])
        points = [hexagon.fw.point(swap.get(v, v)) for v in range(1, 7)]
        relabelled = Framework(graph, 2, points)
        path = tmp_path / "relabelled.json"
        write_json(path, framework_to_obj(relabelled))
        expected = helpers.rational_lists(
            unit_triangular_gale(relabelled, is_chordal(graph).peo).matrix)
        calls = helpers.spy_order_calls(monkeypatch)
        results = {}

        def no_cycle_search(g):
            raise AssertionError("a chordless cycle was searched for")
        for module in (certify, graphs):
            monkeypatch.setattr(module, "find_chordless_cycle", no_cycle_search)
        for name, exit_code, walks, mcs_calls in (
                (files["hexagon"], 0, 2, 0), (str(path), 0, 3, 1), (files["prism"], 1, 2, 1)):
            calls.clear()
            results[name] = runner.invoke(main, ["gale", name, "--triangular"])
            assert results[name].exit_code == exit_code
            assert calls["_later_neighbors"] == calls["_peo_violation"] == walks
            assert calls["mcs_order"] == mcs_calls
        assert json.loads(results[str(path)].output) == expected
        assert results[files["prism"]].stderr == "error: graph is not chordal\n"


class TestReflect:
    def test_default_cut(self, runner, files):
        result = runner.invoke(main, ["reflect", files["path3"]])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["points"] == [["2"], ["1"], ["2"]]

    def test_explicit_cut(self, runner, files):
        result = runner.invoke(main, ["reflect", files["path3"], "--cut", "2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["points"] == [["2"], ["1"], ["2"]]

    def test_malformed_cut(self, runner, files):
        result = runner.invoke(main, ["reflect", files["path3"], "--cut", "2,x"])
        assert result.exit_code == 2

    def test_no_small_cut(self, runner, files):
        result = runner.invoke(main, ["reflect", files["hexagon"]])
        assert result.exit_code == 1
        assert "no separating set" in result.stderr

    @pytest.mark.parametrize("cut", ["99", "0", "2,4"])
    def test_cut_vertex_out_of_range_is_a_usage_error(self, runner, files, cut):
        result = runner.invoke(main, ["reflect", files["path3"], "--cut", cut])
        assert result.exit_code == 2
        assert f"--cut '{cut}' names a vertex outside 1..3" in result.stderr

    def test_non_separating_cut(self, runner, files):
        result = runner.invoke(main, ["reflect", files["path3"], "--cut", "1"])
        assert result.exit_code == 1
        assert "error: removing [1] leaves the graph connected" in result.stderr

    def test_default_cut_needs_chordal(self, runner, files):
        result = runner.invoke(main, ["reflect", files["prism"]])
        assert result.exit_code == 1
        assert "error: graph is not chordal; supply --cut explicitly" in result.stderr

    def test_default_cut_walks_the_ordering_once(self, runner, tmp_path, monkeypatch):
        """Without --cut, a 40-vertex 2-tree in R^2 is walked once along its
        MCS ordering, and the components that the cut's check finds go to
        the reflection: two component searches, one of them the load's
        connectivity check. The output is the one ``reflect --cut`` gives
        on the same cut."""
        ur = random_general_position_framework(40, 2, 3)
        fw = Framework(gen_ktree(40, 2, 3), 2, ur.points)
        path = tmp_path / "ngr.json"
        write_json(path, framework_to_obj(fw))
        calls = helpers.spy_order_calls(monkeypatch)
        real = graphs.components_after_removal

        def counted(*args):
            calls["components_after_removal"] += 1
            return real(*args)
        for module in (certify, graphs):
            monkeypatch.setattr(module, "components_after_removal", counted)
        result = runner.invoke(main, ["reflect", str(path)])
        assert result.exit_code == 0
        assert calls == {"mcs_order": 1, "_later_neighbors": 1, "_peo_violation": 1,
                         "components_after_removal": 2}
        cut = graphs.vertex_cut_of_size_at_most(fw.graph, mcs_order(fw.graph), 2)
        explicit = runner.invoke(main, ["reflect", str(path), "--cut",
                                        ",".join(map(str, sorted(cut)))])
        assert explicit.exit_code == 0 and explicit.output == result.output


class TestChordal:
    def test_graph_file(self, runner, files):
        result = runner.invoke(main, ["chordal", files["prism_graph"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "chordal: no" in out
        assert "chordless cycle: 1 2 4 3" in out

    def test_framework_file(self, runner, files):
        result = runner.invoke(main, ["chordal", files["hexagon"]])
        assert result.exit_code == 0
        out = lines_of(result)
        assert "chordal: yes" in out
        assert "peo: 1 2 5 4 3 6" in out

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["chordal", str(tmp_path / "absent.json")])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ") and "absent.json" in result.stderr

    def test_malformed_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 3,\n"edges": [[1, 2]\n')
        result = runner.invoke(main, ["chordal", str(bad)])
        assert result.exit_code == 3
        assert result.stderr.startswith(f"error: {bad}:")


class TestGen:
    def test_deterministic(self, runner):
        first = runner.invoke(main, ["gen", "--n", "7", "--r", "2", "--seed", "4"])
        second = runner.invoke(main, ["gen", "--n", "7", "--r", "2", "--seed", "4"])
        assert first.exit_code == 0
        assert first.output == second.output

    def test_generated_framework_certifies(self, runner, tmp_path):
        dest = tmp_path / "fw.json"
        gen = runner.invoke(main, ["gen", "--n", "6", "--r", "2", "--seed", "1",
                                   "--output", str(dest)])
        assert gen.exit_code == 0
        result = runner.invoke(main, ["analyze", str(dest), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "UniversallyRigid"

    def test_line_framework(self, runner, tmp_path):
        dest = tmp_path / "line.json"
        gen = runner.invoke(main, ["gen", "--n", "5", "--r", "1", "--seed", "2",
                                   "--output", str(dest)])
        assert gen.exit_code == 0
        result = runner.invoke(main, ["analyze", str(dest)])
        out = lines_of(result)
        assert "chordal: yes" in out
        assert "general position: yes" in out

    def test_simplex(self, runner, tmp_path):
        dest = tmp_path / "tri.json"
        gen = runner.invoke(main, ["gen", "--n", "3", "--r", "2", "--output", str(dest)])
        assert gen.exit_code == 0
        result = runner.invoke(main, ["analyze", str(dest)])
        assert "reason: SimplexCase" in lines_of(result)

    def test_invalid_parameters(self, runner):
        result = runner.invoke(main, ["gen", "--n", "2", "--r", "2"])
        assert result.exit_code == 2


class TestPlot:
    def test_hexagon_svg(self, runner, files):
        result = runner.invoke(main, ["plot", files["hexagon"]])
        assert result.exit_code == 0
        assert result.output.startswith("<svg")
        assert result.output.count("<line") == 12
        assert result.output.count("<circle") == 6

    def test_stress_coloring_changes_output(self, runner, files):
        plain = runner.invoke(main, ["plot", files["hexagon"]])
        colored = runner.invoke(main, ["plot", files["hexagon"],
                                       "--stress", files["hexagon_stress"]])
        assert colored.exit_code == 0
        assert colored.output != plain.output

    def test_output_file(self, runner, files, tmp_path):
        dest = tmp_path / "hex.svg"
        result = runner.invoke(main, ["plot", files["hexagon"],
                                      "--output", str(dest)])
        assert result.exit_code == 0
        assert dest.read_text().startswith("<svg")

    def test_non_planar_rejected(self, runner, tmp_path):
        dest = tmp_path / "d3.json"
        runner.invoke(main, ["gen", "--n", "5", "--r", "3", "--output", str(dest)])
        result = runner.invoke(main, ["plot", str(dest)])
        assert result.exit_code == 1


class TestErrorHandling:
    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["analyze", str(tmp_path / "absent.json")])
        assert result.exit_code == 3
        assert "error:" in result.stderr

    def test_invalid_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 1,\nbroken}\n')
        result = runner.invoke(main, ["certify", str(bad)])
        assert result.exit_code == 3
        assert "bad.json:2" in result.stderr

    def test_semantic_error_located(self, runner, tmp_path):
        bad = tmp_path / "loop.json"
        write_json(bad, {"dim": 1, "points": [["0"], ["1"]], "edges": [[1, 1]]})
        result = runner.invoke(main, ["certify", str(bad)])
        assert result.exit_code == 3
        assert "edges[0]" in result.stderr

    @pytest.mark.parametrize("command, obj, message", [
        ("chordal", {"n": 0, "edges": []}, ".n: vertex count must be positive"),
        ("certify", [["0", "0"]], ": expected an object"),
        ("certify", {"dim": 0, "points": [["0"]], "edges": []},
         ".dim: dimension must be positive"),
        ("certify", {"dim": 2, "points": [], "edges": []},
         ".points: at least one point required"),
    ], ids=["n", "framework-not-an-object", "dim", "no-points"])
    def test_rejected_field_is_malformed_input(self, runner, tmp_path, command, obj, message):
        bad = tmp_path / "bad.json"
        write_json(bad, obj)
        result = runner.invoke(main, [command, str(bad)])
        assert result.exit_code == 3
        assert result.stderr == f"error: {bad}{message}\n"

    def test_no_arguments(self, runner):
        assert runner.invoke(main, []).exit_code == 2

    def test_unknown_command(self, runner):
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2

    @pytest.mark.parametrize("args", [
        ["analyze", "{hexagon}"],
        ["certify", "{hexagon}"],
        ["psdize", "{hexagon}", "--stress", "{hexagon_stress}"],
        ["gale", "{hexagon}", "--triangular"],
        ["reflect", "{path3}"],
        ["gen", "--n", "6"],
        ["plot", "{hexagon}"],
    ], ids=lambda args: args[0])
    def test_unwritable_output_is_a_usage_error(self, runner, files, tmp_path, args):
        dest = tmp_path / "absent" / "out"
        result = runner.invoke(main, [a.format(**files) for a in args]
                               + ["--output", str(dest)])
        assert result.exit_code == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and str(dest) in line
        assert not dest.parent.exists()

    def test_non_utf8_file_is_malformed_input(self, runner, files, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + Path(files["hexagon"]).read_bytes())
        result = runner.invoke(main, ["certify", str(bad)])
        assert result.exit_code == 3
        assert "not UTF-8" in result.stderr

    def test_deeply_nested_json_is_malformed_input(self, runner, tmp_path):
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000)
        result = runner.invoke(main, ["certify", str(bad)])
        assert result.exit_code == 3
        assert "nested too deeply" in result.stderr

    @pytest.mark.parametrize("where", ["coordinate", "bare integer", "stress entry"])
    def test_huge_rational_is_malformed_input(self, runner, files, tmp_path, where):
        digits = "7" * 4400  # past the interpreter's 4300-digit int-string limit
        fw_text = Path(files["hexagon"]).read_text()
        stress_text = Path(files["hexagon_stress"]).read_text()
        # The first "-2" is point 1's x; the first "10" is the stress's (1,1).
        if where == "coordinate":
            fw_text = fw_text.replace('"-2"', f'"{digits}"', 1)
        elif where == "bare integer":
            fw_text = fw_text.replace('"-2"', digits, 1)
        else:
            stress_text = stress_text.replace('"10"', f'"{digits}"', 1)
        fw_path, stress_path = tmp_path / "huge.json", tmp_path / "huge_stress.json"
        fw_path.write_text(fw_text)
        stress_path.write_text(stress_text)
        result = runner.invoke(main, ["psdize", str(fw_path), "--stress", str(stress_path)])
        assert result.exit_code == 3
        assert "too long to parse" in result.stderr

    @pytest.mark.parametrize("raw", ["5\n", "3/4\n", "\u0663", "\uff17"],
                             ids=["newline", "fraction newline", "arabic-indic", "full-width"])
    @pytest.mark.parametrize("command", ["psdize", "certify"])
    def test_rational_outside_the_ascii_grammar_is_malformed_input(
            self, runner, files, tmp_path, raw, command):
        """psdize reads it as the stress's (1,1) entry, certify as point 1's x."""
        if command == "psdize":
            fw_path = files["hexagon"]
            obj = json.loads(Path(files["hexagon_stress"]).read_text())
            obj["matrix"][0][0] = raw
            path = tmp_path / "odd_stress.json"
            args = [fw_path, "--stress", str(path)]
        else:
            obj = json.loads(Path(files["hexagon"]).read_text())
            obj["points"][0][0] = raw
            path = tmp_path / "odd_framework.json"
            args = [str(path)]
        write_json(path, obj)
        result = runner.invoke(main, [command, *args])
        assert result.exit_code == 3
        assert f"malformed rational {raw!r}" in result.stderr

    @pytest.mark.parametrize("command", ["psdize", "plot", "stress-check"])
    @pytest.mark.parametrize("name, n", [("hexagon", 6), ("k5me", 5), ("prism", 6)])
    def test_stress_of_another_size_is_malformed_input(self, runner, files, tmp_path,
                                                       command, name, n):
        """Also before the hypotheses: k5me is not in general position and
        the prism is not chordal."""
        other = certify_chordal(random_general_position_framework(7, 2, 0)).stress
        path = tmp_path / "stress7.json"
        write_json(path, stress_to_obj(other))
        result = runner.invoke(main, [command, files[name], "--stress", str(path)])
        assert result.exit_code == 3
        assert f"error: stress must be {n}x{n}, got 7x7" in result.stderr


class TestVertexBound:
    def test_tiny_file_with_huge_n_is_a_limit(self, runner, tmp_path):
        path = tmp_path / "huge_n.json"
        path.write_text('{"n": 1000000, "edges": []}')
        assert path.stat().st_size == 27
        start = time.perf_counter()
        result = runner.invoke(main, ["chordal", str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == EXIT_LIMIT
        assert f"1000000 vertices exceed the bound of {MAX_VERTICES}" in result.stderr

    def test_bound_is_inclusive(self, runner, tmp_path):
        path = tmp_path / "at_bound.json"
        write_json(path, {"n": MAX_VERTICES, "edges": []})
        result = runner.invoke(main, ["chordal", str(path)])
        assert result.exit_code == 0
        assert lines_of(result)[0] == "chordal: yes"

    @pytest.mark.parametrize("command", ["analyze", "certify", "psdize", "stress-check",
                                         "gale", "reflect", "plot", "chordal"])
    def test_framework_with_too_many_points_is_a_limit(self, runner, files, tmp_path,
                                                       command):
        path = tmp_path / "many_points.json"
        path.write_text(json.dumps({"dim": 1, "points": [["0"]] * (MAX_VERTICES + 1),
                                    "edges": []}))
        args = [command, str(path)]
        if command in ("psdize", "stress-check"):
            args += ["--stress", files["hexagon_stress"]]
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_LIMIT
        assert f"{MAX_VERTICES + 1} vertices exceed the bound" in result.stderr


class TestSubsetCap:
    @pytest.fixture()
    def long_path(self, tmp_path):
        """A 120-vertex path in R^2: C(120, 3) = 280,840 subsets exceed the
        default cap of 200,000. The second file repeats point 2 as point
        120, so certify's reflection through the cut vertex 2 is
        infeasible."""
        points = [(i, i * i) for i in range(120)]
        paths = []
        for name, pts in (("path120", points), ("repeat120", points[:-1] + [points[1]])):
            path = tmp_path / f"{name}.json"
            write_json(path, framework_to_obj(Framework(Graph.path(120), 2, pts)))
            paths.append(str(path))
        stress = tmp_path / "zero120.json"
        write_json(stress, stress_to_obj(StressMatrix(helpers.zeros(120, 120))))
        return (*paths, str(stress))

    def test_default_cap_exits_with_limit_code(self, runner, long_path):
        fw_path, _, _ = long_path
        result = runner.invoke(main, ["analyze", fw_path])
        assert result.exit_code == EXIT_LIMIT == 4
        assert "280840 subsets exceed the cap of 200000" in result.stderr

    def test_certify_names_the_repeated_point_past_the_default_cap(self, runner, long_path):
        """certify never sweeps: the infeasible reflection names the cut
        vertex 2, the point 120 that repeats it and vertex 1 as padding."""
        _, repeat_path, _ = long_path
        result = runner.invoke(main, ["certify", repeat_path])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert (obj["verdict"], obj["reason"]) == ("Inconclusive", "NotGeneralPosition")
        cert = certify_chordal(load_framework(repeat_path))
        assert cert.detail == (1, 2, 120)

    def test_triangular_gale_passes_the_default_cap(self, runner, long_path, tmp_path):
        """gale --triangular never sweeps: past the default cap it builds the
        Gale matrix of a 3-tree and names the first short position of the
        path."""
        fw_path, _, _ = long_path
        points = [(i, i * i) for i in range(120)]
        fw = Framework(gen_ktree(120, 3, 5), 2, points)
        tree_path = tmp_path / "tree120.json"
        write_json(tree_path, framework_to_obj(fw))
        result = runner.invoke(main, ["gale", str(tree_path), "--triangular"])
        assert result.exit_code == 0
        z = Matrix([[F(x) for x in row] for row in json.loads(result.output)])
        assert (z.rows, z.cols) == (120, fw.rbar)
        assert helpers.extended_config_matrix(fw) * z == helpers.zeros(3, fw.rbar)
        result = runner.invoke(main, ["gale", fw_path, "--triangular"])
        assert result.exit_code == 1
        assert result.stderr == "error: position 1 has only 1 later neighbors, need 3\n"

    def test_certify_takes_no_cap(self, runner, long_path, files):
        """--cap-subsets is no option of certify, so even a cap of 0 is a
        usage error rather than a hit cap, on any verdict."""
        fw_path, _, _ = long_path
        for path in (fw_path, files["hexagon"], files["path3"], files["k5me"]):
            result = runner.invoke(main, ["certify", path, "--cap-subsets", "0"])
            assert result.exit_code == 2
            assert "No such option" in result.stderr and "--cap-subsets" in result.stderr

    def test_psdize_passes_the_default_cap(self, runner, long_path):
        """psdize never sweeps: past the default cap it reaches the stress's
        rank."""
        fw_path, _, stress_path = long_path
        result = runner.invoke(main, ["psdize", fw_path, "--stress", stress_path])
        assert result.exit_code == 1
        assert "stress rank 0 differs from the maximal 117" in result.stderr

    def test_psdize_takes_no_cap(self, runner, long_path):
        """--cap-subsets is no option of psdize, so even a cap of 0 is a
        usage error rather than a hit cap."""
        fw_path, _, stress_path = long_path
        result = runner.invoke(main, ["psdize", fw_path, "--stress", stress_path,
                                      "--cap-subsets", "0"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr and "--cap-subsets" in result.stderr

    def test_gen_reports_cap_as_limit(self, runner):
        result = runner.invoke(main, ["gen", "--n", "120", "--r", "2"])
        assert result.exit_code == EXIT_LIMIT
        assert "280840 subsets exceed the cap of 200000" in result.stderr

    def test_gen_checks_the_cap_before_building(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, ["gen", "--n", "100000", "--r", "1"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == EXIT_LIMIT
        assert "4999950000 subsets exceed the cap of 200000" in result.stderr

    @pytest.mark.parametrize("cap, code, command", [
        ("-1", 2, "analyze"), ("-1", 2, "certify"), ("-1", 2, "psdize"),
        ("0", EXIT_LIMIT, "analyze"), ("0", 2, "certify"),
    ])
    def test_negative_cap_is_a_usage_error(self, runner, files, command, cap, code):
        # analyze sweeps the hexagon, C(6, 3) = 20 subsets. certify and
        # psdize take no cap, so any cap is a usage error there.
        name = "k5me" if command == "certify" else "hexagon"
        args = [command, files[name], f"--cap-subsets={cap}"]
        if command == "psdize":
            args += ["--stress", files["hexagon_stress"]]
        result = runner.invoke(main, args)
        assert result.exit_code == code
        if code == 2:
            assert "--cap-subsets" in result.stderr and "exceed" not in result.stderr
        else:
            assert "20 subsets exceed the cap of 0" in result.stderr

    def test_explicit_cap_boundary(self, runner, files):
        # k5me has C(5, 3) = 10 subsets, and analyze sweeps them.
        at_cap = runner.invoke(main, ["analyze", files["k5me"], "--cap-subsets", "10"])
        assert at_cap.exit_code == 0
        assert "reason: NotGeneralPosition" in lines_of(at_cap)
        below = runner.invoke(main, ["analyze", files["k5me"], "--cap-subsets", "9"])
        assert below.exit_code == EXIT_LIMIT


class TestIntStringLimit:
    """CPython converts no integer of more than ``sys.get_int_max_str_digits()``
    digits to a string. A certificate that would write one is a limit: exit
    4 with the entry's digit count, and no file."""

    @pytest.fixture()
    def big(self, tmp_path):
        """A seeded 3-tree in R^2 on 100 vertices whose certificate stress
        has a 724-digit entry, and an integer stress S = sum_j d_j^2 z_j
        z_j^T of its Gale columns z_j (d_j the lcm of column j's
        denominators), whose entries have at most 26 digits and which
        psdize turns back into that stress."""
        rng = random.Random(0)
        g = gen_ktree(100, 3, 0)
        fw = Framework(g, 2, [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                              for _ in range(g.n)])
        rows = {v: {} for v in range(g.n)}
        for col in helpers.gale_fractions(
                helpers.gale_columns(fw, certify._elimination_order(g))):
            d = math.lcm(*[x.denominator for x in col.values()])
            for u, a in col.items():
                for w, b in col.items():
                    rows[u][w] = rows[u].get(w, 0) + d * d * a * b
        paths = {"fw": tmp_path / "fw.json", "stress": tmp_path / "s.json",
                 "out": tmp_path / "out.json"}
        write_json(paths["fw"], framework_to_obj(fw))
        write_json(paths["stress"], stress_to_obj(StressMatrix.from_rows(rows)))
        return {name: str(path) for name, path in paths.items()}

    @pytest.fixture()
    def low_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit CPython accepts
        yield
        sys.set_int_max_str_digits(old)

    def _commands(self, big):
        return [["certify", big["fw"]], ["certify", big["fw"], "--output", big["out"]],
                ["analyze", big["fw"], "--output", big["out"]],
                ["analyze", big["fw"], "--format", "json"],
                ["psdize", big["fw"], "--stress", big["stress"]],
                ["psdize", big["fw"], "--stress", big["stress"], "--output", big["out"]]]

    def test_entries_past_the_limit_are_a_limit(self, runner, big, low_limit):
        for args in self._commands(big):
            result = runner.invoke(main, args)
            assert result.exit_code == EXIT_LIMIT, args
            assert result.stdout == ""
            assert result.stderr == ("error: an output entry has 724 digits, more than "
                                     "the 640 this interpreter writes as a string\n")
            assert not Path(big["out"]).exists()

    def test_the_same_commands_succeed_under_the_default_limit(self, runner, big):
        for args in self._commands(big):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, args
        out = json.loads(Path(big["out"]).read_text())
        assert max(len(x) for row in out["matrix"] for x in row) > 724


# sha256 of the exit codes and output of analyze and certify below, recorded
# while certify still swept for general position on its failure paths
CLI_DIGEST = "8f41d008cc1e3337d0a8985e180bdc64b50eda7463784b421b50145e2eb2afb4"


class TestFrozenBytes:
    def test_analyze_and_certify_bytes_frozen(self, runner, tmp_path, hexagon, k5_minus_edge,
                                              prism, path3_line):
        """Exit code, stdout and stderr of analyze (text, json and
        --cap-subsets 5) and certify on four fixtures and on the moved
        suites, 264 frameworks in and out of general position: certify's
        witnesses live only in ``Certificate.detail``, which no command
        writes, and analyze sweeps itself."""
        named = [("hexagon", hexagon.fw), ("k5me", k5_minus_edge), ("prism", prism),
                 ("path3", path3_line)]
        named += [(f"ur{i}", fw) for i, fw in enumerate(helpers.ur_moved_suite(60))]
        named += [(f"ngr{i}", fw) for i, fw in enumerate(helpers.ngr_moved_suite(200))]
        assert len(named) == 264
        path = tmp_path / "fw.json"
        digest = hashlib.sha256()
        for name, fw in named:
            write_json(path, framework_to_obj(fw))
            for command, *extra in (["analyze"], ["analyze", "--format", "json"],
                                    ["analyze", "--cap-subsets", "5"], ["certify"]):
                result = runner.invoke(main, [command, str(path), *extra])
                digest.update(repr((name, command, extra, result.exit_code, result.stdout,
                                    result.stderr)).encode())
        assert digest.hexdigest() == CLI_DIGEST
