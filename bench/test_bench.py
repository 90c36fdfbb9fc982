"""Tests of the benchmark's own helpers: python -m pytest bench -q"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from chordalrig import certify, exactmat, framework, jsonio  # noqa: E402
from spans import Span, Tracer, self_times, summarise  # noqa: E402


@pytest.mark.parametrize("k, percentile, rank", [
    (100, 90, 90), (40, 75, 30), (41, 75, 31), (20, 50, 10), (11, 9, 1)])
def test_tail_percentile_leaves_ten_samples_beyond(k, percentile, rank):
    samples = [float(x) for x in range(k, 0, -1)]
    assert run.tail_percentile(samples) == (percentile, float(rank))


def test_tail_percentile_falls_back_to_median_below_eleven_samples():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)


def test_self_time_subtracts_the_children_of_nested_spans():
    spans = [
        Span("a.root", 0.0, 10.0, None, 0),
        Span("a.child", 1.0, 4.0, 0, 0),
        Span("b.grandchild", 2.0, 3.0, 1, 0),
        Span("a.child", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    st = summarise(spans, {"a.gen": 3})
    assert (st["a.child"].calls, st["a.child"].total_s, st["a.child"].self_s) == (2, 7.0, 6.0)
    assert st["a.gen"].calls == 3


def _small(name, sizes=range(12, 14)):
    w = copy.copy(workloads.WORKLOADS[name])
    w.sizes = sizes
    return w


def _input_bytes(inputs) -> bytes:
    out = []
    for inp in inputs:
        out.append(json.dumps(jsonio.framework_to_obj(inp.fw)).encode())
        for kind in ("fw", "stress"):
            if inp.files:
                out.append(inp.files[kind].read_bytes())
    return b"\n".join(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(name, tmp_path):
    w = _small(name)
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = _input_bytes(w.make_chunk(7, 1, dirs[0]))
    again = _input_bytes(w.make_chunk(7, 1, dirs[1]))
    other = _input_bytes(w.make_chunk(8, 1, dirs[2]))
    assert first == again
    assert first != other


def test_tracer_catches_calls_through_imported_names():
    fw = framework.random_general_position_framework(7, 2, 1)
    tracer = Tracer()
    with tracer.installed(), tracer.op(0):
        certify.certify_chordal(fw)
        exactmat.gauss_step_sequence(exactmat.Matrix.identity(3), 2)
    names = [s.name for s in tracer.spans]
    calls = {(s.name, tracer.spans[s.parent].name) for s in tracer.spans if s.parent is not None}
    # certify calls is_general_position through its own imported name, and
    # framework calls rank through its imported name.
    assert ("framework.is_general_position", "certify.certify_chordal") in calls
    assert ("exactmat.rank", "framework.affinely_independent") in calls
    assert "exactmat.Matrix.__mul__" in names
    assert "exactmat.gauss_steps" not in names
    assert tracer.generator_calls["exactmat.gauss_steps"] == 1
    assert certify.is_general_position is framework.is_general_position
    assert not hasattr(certify.is_general_position, "__wrapped__")


def test_tracer_records_nothing_outside_an_op():
    tracer = Tracer()
    with tracer.installed():
        exactmat.rank(exactmat.Matrix.identity(2))
    assert tracer.spans == []


def test_stress_check_rejects_a_changed_entry():
    fw = framework.random_general_position_framework(8, 2, 3)
    rows = certify.certify_chordal(fw).stress.matrix.to_lists()
    assert workloads.stress_problems(fw, rows) == []
    u, v = fw.graph.edges[0]
    rows[u - 1][v - 1] += 1
    assert workloads.stress_problems(fw, rows)


def test_stress_check_rejects_the_zero_and_the_negated_stress():
    fw = framework.random_general_position_framework(8, 2, 3)
    rows = certify.certify_chordal(fw).stress.matrix.to_lists()
    assert workloads.psd_rank(rows) == fw.rbar
    zero = [[0 * x for x in row] for row in rows]
    assert workloads.stress_problems(fw, zero) == [f"stress has rank 0, expected {fw.rbar}"]
    negated = [[-x for x in row] for row in rows]
    assert workloads.stress_problems(fw, negated) == ["stress is not PSD"]


@pytest.mark.parametrize("rows, rank", [
    ([[1, 2], [2, 4]], 1),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3),
    ([[0, 0], [0, 3]], 1),
    ([[1, 2], [2, 1]], None),
    ([[0, 1], [1, 0]], None),
    ([[1, 0], [0, -1]], None),
])
def test_psd_rank_of_small_matrices(rows, rank):
    assert workloads.psd_rank([[Fraction(x, 3) for x in row] for row in rows]) == rank


def test_counterexample_check_rejects_the_input_itself():
    fw = workloads.ktree_framework(8, 3, 3, workloads._rng("t", 0, 0, 0))
    assert workloads.counterexample_problems(fw, fw) == ["counterexample is congruent to the input"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
