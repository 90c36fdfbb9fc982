"""Command-line front end.

Exit codes: 0 when a verdict was reached (any verdict), 1 when a
mathematical hypothesis failed (for example a vanishing leading minor),
2 for usage errors (an --output path that cannot be written among them),
3 for malformed input files, 4 when a limit is hit: an input with more
vertices than ``jsonio.MAX_VERTICES``, an output entry with more digits
than ``sys.get_int_max_str_digits()``, or a general-position sweep past
its cap. Only ``analyze`` (see --cap-subsets) and ``gen`` sweep.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from .certify import (
    CertifyError,
    NotGenericRankProfile,
    _elimination_order,
    _reflection,
    certify_chordal,
    psdize_stress,
    reflection_counterexample,
    unit_triangular_gale,
)
from .exactmat import DimensionMismatch, ExactMatError
from .framework import (
    DEFAULT_POSITION_CAP,
    FrameworkError,
    SizeCapExceededError,
    gale_matrix,
    is_general_position,
    omega_from_stress,
    random_general_position_framework,
    validate_stress_matrix,
)
from .graphs import (
    GraphError,
    InvalidParameters,
    _mcs_later,
    _peo_violation,
    _small_cut,
    is_chordal,
)
from .jsonio import (
    InputTooLarge,
    ParseError,
    certificate_to_obj,
    framework_from_obj,
    framework_to_obj,
    gale_to_lists,
    graph_from_obj,
    load_framework,
    load_stress,
    rational_str,
    read_json,
    render_json,
    stress_to_obj,
    write_json,
)
from .svgplot import UnsupportedDimension, render_framework_svg

EXIT_HYPOTHESIS = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_LIMIT = 4


def _fail(exc, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _load_framework(path: str):
    try:
        return load_framework(path)
    except InputTooLarge as exc:
        _fail(exc, EXIT_LIMIT)
    except (ParseError, OSError) as exc:
        _fail(exc, EXIT_INPUT)


def _load_stress(path: str):
    try:
        return load_stress(path)
    except (ParseError, OSError) as exc:
        _fail(exc, EXIT_INPUT)


def _write(write, path, content) -> None:
    """Every output file is written here, by ``write(path, content)``; a
    path that cannot be written is a usage error."""
    try:
        write(path, content)
    except OSError as exc:
        _fail(exc, EXIT_USAGE)


def _digits(x: int) -> int:
    """The decimal digits of x > 0, counted without writing it as a string."""
    k = int(math.log10(x)) + 1
    return k + (x >= 10 ** k) - (10 ** (k - 1) > x)


def _emit(to_obj, value, output: str | None) -> None:
    """Write ``to_obj(value)`` as JSON to ``output``, or to stdout when it
    is None; an entry that ``jsonio.rational_str`` cannot write as a string
    is a limit, reported with its digit count before anything is written."""
    try:
        obj = to_obj(value)
    except ValueError as exc:
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not rational_str.__code__:
            tb = tb.tb_next
        if tb is None:
            raise
        q = tb.tb_frame.f_locals["q"]
        digits = _digits(max(abs(q.numerator), q.denominator))
        _fail(f"an output entry has {digits} digits, more than the "
              f"{sys.get_int_max_str_digits()} this interpreter writes as a string", EXIT_LIMIT)
    if output:
        _write(write_json, output, obj)
    else:
        click.echo(render_json(obj))


@click.group()
def main():
    """Exact rigidity certificates for chordal bar frameworks."""


@main.command()
@click.argument("framework_file")
@click.option("--output", default=None, help="Write the certificate JSON here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--cap-subsets", type=click.IntRange(min=0), default=None,
              help="Abort the general-position sweep beyond this many (r+1)-point "
                   f"subsets (default {DEFAULT_POSITION_CAP:,}).")
def analyze(framework_file, output, fmt, cap_subsets):
    """Report chordality, connectivity, general position and the verdict."""
    fw = _load_framework(framework_file)
    try:
        cert = certify_chordal(fw)
        gp, gp_witness = is_general_position(fw, cap=cap_subsets)
    except SizeCapExceededError as exc:
        _fail(exc, EXIT_LIMIT)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    if output:
        _emit(certificate_to_obj, cert, output)
    if fmt == "json":
        _emit(certificate_to_obj, cert, None)
        return
    click.echo(f"vertices: {fw.n}")
    click.echo(f"edges: {fw.graph.edge_count}")
    click.echo(f"dimension: {fw.dim}")
    click.echo(f"gale dimension: {fw.rbar}")
    if cert.peo is not None:
        click.echo("chordal: yes")
        click.echo("peo: " + " ".join(str(v) for v in cert.peo))
        click.echo(f"connectivity: {cert.connectivity}")
    else:
        click.echo("chordal: no")
        click.echo("chordless cycle: " + " ".join(str(v) for v in cert.detail))
        click.echo("connectivity: n/a")
    click.echo(f"general position: {'yes' if gp else 'no'}")
    if not gp:
        click.echo("degenerate subset: " + " ".join(str(v) for v in gp_witness))
    click.echo(f"verdict: {cert.verdict.value}")
    if cert.reason is not None:
        click.echo(f"reason: {cert.reason.value}")
    if cert.stress is not None:
        click.echo(f"stress rank: {fw.rbar} (positive semidefinite)")
    if cert.counterexample is not None:
        click.echo("counterexample: second realization with equal edge lengths")


@main.command()
@click.argument("framework_file")
@click.option("--output", default=None, help="Write the certificate JSON here.")
def certify(framework_file, output):
    """Emit the certificate as JSON."""
    fw = _load_framework(framework_file)
    try:
        cert = certify_chordal(fw)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    _emit(certificate_to_obj, cert, output)


@main.command()
@click.argument("framework_file")
@click.option("--stress", "stress_file", required=True, help="Stress matrix JSON.")
@click.option("--output", default=None, help="Write the PSD stress JSON here.")
def psdize(framework_file, stress_file, output):
    """Convert a maximal-rank stress with generic rank profile into a PSD one."""
    fw = _load_framework(framework_file)
    s = _load_stress(stress_file)
    try:
        result = psdize_stress(fw, s)
    except NotGenericRankProfile as exc:
        _fail(f"not generic rank profile: leading principal minor {exc.minor_index} is zero",
              EXIT_HYPOTHESIS)
    except DimensionMismatch as exc:  # a stress whose size is not the framework's
        _fail(exc, EXIT_INPUT)
    except (CertifyError, FrameworkError, ExactMatError) as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    _emit(stress_to_obj, result.stress, output)
    if output:
        click.echo(f"rank: {fw.rbar}")
        click.echo("psd: yes")
        click.echo(f"minors checked: {fw.rbar}")


@main.command("stress-check")
@click.argument("framework_file")
@click.option("--stress", "stress_file", required=True, help="Stress matrix JSON.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def stress_check(framework_file, stress_file, fmt):
    """Validate every stress-matrix clause independently."""
    fw = _load_framework(framework_file)
    s = _load_stress(stress_file)
    try:
        report = validate_stress_matrix(fw, s)
    except (FrameworkError, ExactMatError) as exc:
        _fail(exc, EXIT_INPUT)
    clauses = [("symmetric", "symmetric", report.symmetric),
               ("pattern_ok", "pattern", report.pattern_ok),
               ("kernel_ok", "kernel", report.kernel_ok),
               ("rank", "rank", report.rank),
               ("generic_rank_profile", "generic rank profile", report.generic_rank_profile),
               ("psd", "psd", report.psd),
               ("stress_matrix", "stress matrix", report.is_stress_matrix)]
    if fmt == "json":
        click.echo(render_json({key: value for key, _, value in clauses}))
        return
    for _, label, value in clauses:
        text = ("yes" if value else "no") if isinstance(value, bool) else value
        click.echo(f"{label}: {text}")


@main.command()
@click.argument("framework_file")
@click.option("--triangular", is_flag=True,
              help="Build the unit-triangular Gale matrix from an elimination ordering.")
@click.option("--output", default=None)
def gale(framework_file, triangular, output):
    """Emit a Gale matrix as a JSON array of rational strings."""
    fw = _load_framework(framework_file)
    try:
        if triangular:
            z = unit_triangular_gale(fw, _elimination_order(fw.graph))
        else:
            z = gale_matrix(fw)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    _emit(gale_to_lists, z, output)


@main.command()
@click.argument("framework_file")
@click.option("--cut", "cut_spec", default=None,
              help="Comma-separated vertices; found from the ordering when omitted.")
@click.option("--output", default=None)
def reflect(framework_file, cut_spec, output):
    """Reflect one side of a vertex cut, keeping all edge lengths."""
    fw = _load_framework(framework_file)
    try:
        if cut_spec is not None:
            try:
                cut = frozenset(int(tok.strip()) for tok in cut_spec.split(","))
            except ValueError:
                raise click.UsageError(f"malformed --cut {cut_spec!r}")
            if not all(1 <= v <= fw.n for v in cut):
                raise click.UsageError(f"--cut {cut_spec!r} names a vertex outside 1..{fw.n}")
            result = reflection_counterexample(fw, cut)
        else:  # as certify_chordal: one walk, and the cut's components go on
            peo, later = _mcs_later(fw.graph)
            if _peo_violation(fw.graph, peo, later) is not None:
                raise CertifyError("graph is not chordal; supply --cut explicitly")
            found = _small_cut(fw.graph, later, fw.dim)
            if found is None:
                raise CertifyError(f"no separating set of size at most {fw.dim} exists")
            result = _reflection(fw, *found)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    _emit(framework_to_obj, result, output)


@main.command()
@click.argument("input_file")
def chordal(input_file):
    """Chordality of a graph or framework file, with a certificate."""
    try:
        obj = read_json(input_file)
        if isinstance(obj, dict) and "points" in obj:
            g = framework_from_obj(obj, where=str(input_file)).graph
        else:
            g = graph_from_obj(obj, where=str(input_file))
    except InputTooLarge as exc:
        _fail(exc, EXIT_LIMIT)
    except (ParseError, OSError) as exc:
        _fail(exc, EXIT_INPUT)
    result = is_chordal(g)
    if result.chordal:
        click.echo("chordal: yes")
        click.echo("peo: " + " ".join(str(v) for v in result.peo))
    else:
        click.echo("chordal: no")
        click.echo("chordless cycle: " + " ".join(str(v) for v in result.chordless_cycle))


@main.command()
@click.option("--n", "n", type=int, required=True, help="Number of vertices.")
@click.option("--r", "r", type=int, default=2, help="Ambient dimension.")
@click.option("--seed", type=int, default=0)
@click.option("--output", default=None)
def gen(n, r, seed, output):
    """Generate a seeded (r+1)-tree framework in general position."""
    try:
        fw = random_general_position_framework(n, r, seed)
    except SizeCapExceededError as exc:
        _fail(exc, EXIT_LIMIT)
    except (InvalidParameters, FrameworkError) as exc:
        raise click.UsageError(str(exc))
    _emit(framework_to_obj, fw, output)


@main.command()
@click.argument("framework_file")
@click.option("--stress", "stress_file", default=None,
              help="Stress matrix JSON; edges are colored by weight sign.")
@click.option("--output", default=None, help="Write the SVG here.")
def plot(framework_file, stress_file, output):
    """Render a planar framework to SVG."""
    fw = _load_framework(framework_file)
    omega = None
    if stress_file is not None:
        s = _load_stress(stress_file)
        try:
            omega = omega_from_stress(fw, s)
        except DimensionMismatch as exc:
            _fail(exc, EXIT_INPUT)
        except (FrameworkError, ExactMatError) as exc:
            _fail(exc, EXIT_HYPOTHESIS)
    try:
        svg = render_framework_svg(fw, omega)
    except UnsupportedDimension as exc:
        _fail(exc, EXIT_HYPOTHESIS)
    if output:
        _write(Path.write_text, Path(output), svg)
    else:
        click.echo(svg, nl=False)


if __name__ == "__main__":
    main()
