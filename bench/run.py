"""Seeded closed-loop benchmark of chordalrig.

    python3 bench/run.py --workload certify_ur --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, never from an installed copy. One caller, one
process, one thread: each op starts when the previous one has returned.
A run executes a fixed number of input chunks, the fewest that take at
least ``--seconds`` on the host the harness was built on; every output is
checked between ops, outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every
input twice, once untraced and once under the span tracer of spans.py,
and prints the per-layer metrics of the traced ops. The last line of
standard output is the JSON result; the line before it, starting with
``record``, holds the environment and one entry per op. README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from spans import LAYERS, FunctionStats, Tracer, summarise

DEFAULT_SECONDS = 20
ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FIELDS = {"self_s": "s", "calls": "count", "raised": "count"}

FUNCTION_METRICS = [
    "exactmat.determinant.calls",
    "exactmat.determinant.self_s",
    "exactmat.has_generic_rank_profile.total_s",
    "exactmat.rank.calls",
    "exactmat.rank.self_s",
    "exactmat.psd_check.self_s",
    "exactmat.gauss_step_sequence.self_s",
    "exactmat.Matrix.__mul__.self_s",
    "exactmat.solve_linear.calls",
    "framework.is_general_position.calls",
    "framework.is_general_position.total_s",
    "framework.affinely_independent.calls",
    "framework.validate_stress_matrix.calls",
    "framework.validate_stress_matrix.total_s",
    "framework.frameworks_congruent.self_s",
    "certify.unit_triangular_gale.total_s",
    "certify.psd_stress_from_gale.total_s",
    "certify.reflection_counterexample.total_s",
    "graphs.is_chordal.total_s",
    "jsonio.load_framework.total_s",
    "jsonio.load_stress.total_s",
    "jsonio.write_json.total_s",
]

# Ratios of ops to the runs of a whole-input check; a layer that is never
# run wastes nothing and reads 1.0.
USEFUL_RATIOS = {
    "framework.sweep.useful_ratio": "framework.is_general_position",
    "framework.validate.useful_ratio": "framework.validate_stress_matrix",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": unit for layer in LAYERS
             for field, unit in LAYER_FIELDS.items()}
    units.update({m: ("count" if m.endswith(".calls") else "s") for m in FUNCTION_METRICS})
    units.update({m: "ratio" for m in USEFUL_RATIOS})
    units.update({"in.entry_bits.max": "bits", "out.entry_bits.max": "bits",
                  "trace.overhead_ratio": "ratio"})
    return units


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples ranked beyond
    it (nearest-rank), and the sample there. With ten samples or fewer no
    percentile qualifies and the median is returned as percentile 50."""
    k = len(samples)
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p * k / 100)
        if k - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def import_package():
    """Import chordalrig from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import chordalrig
        import chordalrig.cli  # noqa: F401  (click and the whole package)
    except ImportError as exc:
        sys.exit(f"cannot import chordalrig from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(chordalrig.__file__).resolve().is_relative_to(src):
        sys.exit(f"chordalrig was imported from {chordalrig.__file__}, not from {src}")
    return elapsed


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed}


class Loop:
    """Makes and runs chunks of inputs, checks each output outside the timed
    region and keeps one record per op."""

    def __init__(self, workload, seed: int, workdir: Path, references):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.references = references
        self.digests: dict[str, str] = {}
        self.records: list[dict] = []
        self.chunk_s: list[float] = []

    def run_op(self, inp, tracer=None) -> dict:
        op_id = len(self.records)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.run(inp)
                elapsed = time.perf_counter() - start
            else:
                with tracer.installed(), tracer.op(op_id):
                    start = time.perf_counter()
                    out = self.workload.run(inp)
                    elapsed = time.perf_counter() - start
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - start
            error = repr(exc)
        record = {"op": op_id, "input": inp.key, "n": inp.n, "r": inp.r,
                  "traced": tracer is not None, "s": elapsed, "in_bits": inp.in_bits,
                  "out_bits": None, "problems": [error] if error else []}
        if error is None:
            try:
                checked = self.workload.check(inp, out)
            except Exception as exc:  # a malformed output is a failed op
                record["problems"] = [f"check raised {exc!r}"]
            else:
                record["out_bits"] = checked.out_bits
                record["problems"] = checked.problems + self._digest_problems(inp, checked.digest)
        self.records.append(record)
        return record

    def _digest_problems(self, inp, digest: str) -> list[str]:
        """The digest must match the recorded reference when there is one,
        and every earlier op on the same input."""
        expected = self.references.get(inp.key, self.digests.get(inp.key))
        self.digests.setdefault(inp.key, digest)
        if expected is not None and digest != expected:
            return [f"output digest {digest[:12]} differs from {expected[:12]}"]
        return []

    def make_chunk(self, index: int):
        start = time.perf_counter()
        chunk = self.workload.make_chunk(self.seed, index, self.workdir)
        self.chunk_s.append(time.perf_counter() - start)
        return chunk

    def measure(self, count: int, tracer=None) -> None:
        """Make and run ``count`` chunks, each input untraced and, with a
        tracer, once more traced.

        Each chunk is made just before it runs, so set-up is timed under
        the same host conditions as the ops. At least three chunks are
        made, so that set-up has a median.
        """
        for index in range(count):
            for inp in self.make_chunk(index):
                self.run_op(inp)
                if tracer is not None:
                    self.run_op(inp, tracer)
        for index in range(count, 3):
            self.make_chunk(index)


@contextmanager
def workspace():
    """A directory of this process's own for input and output files, removed
    with its parent when that is left empty."""
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def end_to_end(records, setup_s: float) -> tuple[dict, dict]:
    latencies = [r["s"] for r in records]
    completed = sum(1 for r in records if not r["problems"])
    p, tail = tail_percentile(latencies)
    metrics = {
        "ops_per_s": completed / sum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": p, "ops": len(latencies)}


def per_layer(tracer, records) -> dict:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    ops = len(traced)
    stats = summarise(tracer.spans, tracer.generator_calls)
    metrics = {}
    for layer in LAYERS:
        mine = [st for name, st in stats.items() if name.split(".", 1)[0] == layer]
        for field in LAYER_FIELDS:
            metrics[f"{layer}.{field}"] = sum(getattr(st, field) for st in mine) / ops
    for m in FUNCTION_METRICS:
        name, field = m.rsplit(".", 1)
        metrics[m] = getattr(stats.get(name, FunctionStats()), field) / ops
    for m, name in USEFUL_RATIOS.items():
        runs = stats.get(name, FunctionStats()).calls
        metrics[m] = ops / runs if runs else 1.0
    metrics["in.entry_bits.max"] = max(r["in_bits"] for r in traced)
    metrics["out.entry_bits.max"] = max(r["out_bits"] or 0 for r in traced)
    metrics["trace.overhead_ratio"] = (statistics.median(r["s"] for r in traced)
                                       / statistics.median(r["s"] for r in untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed; outputs are compared with recorded digests "
                             "at the default seed (0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    references = (workloads.load_reference_digests()[workload.name]
                  if seed == workloads.DEFAULT_SEED else {})

    count = workload.chunks_for(args.seconds, bool(args.trace))
    tracer = Tracer() if args.trace else None
    with workspace() as workdir:
        loop = Loop(workload, seed, workdir, references)
        loop.measure(count, tracer)
    # Every chunk holds the same sizes, so the median chunk time times the
    # count of chunks run estimates their set-up with less of the host's noise.
    setup_s = import_s + count * statistics.median(loop.chunk_s)

    records = loop.records
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        values = per_layer(tracer, records)
        units = per_layer_units()
        extra = {}
    else:
        values, extra = end_to_end(records, setup_s)
        units = END_TO_END
    env = environment(seed)
    print(f"workload {workload.name}  seed {seed}  python {env['python']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"ops attempted {len(records)}  failed {failed}  "
          f"failed_ratio {failed / len(records)}")
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED op {r['op']} input {r['input']} n={r['n']}: {problem}")
    for name, value in values.items():
        note = (f"  (p{extra['tail_percentile']} of {extra['ops']} ops)"
                if name == "op_s.tail" else "")
        print(f"{name} {value} {units[name]}{note}")
    record = {"workload": workload.name, "environment": env, "seconds": args.seconds,
              "trace": args.trace, "setup": {"import_s": import_s, "chunk_s": loop.chunk_s},
              **extra, "ops": records}
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
