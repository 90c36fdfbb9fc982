"""Command-line front end.

Exit codes: 0 when a verdict was reached (any verdict), 1 when a
mathematical hypothesis failed (for example a vanishing leading minor),
2 for usage errors (an --output path that cannot be written among them),
3 for malformed input files, 4 when a subset sweep
would exceed its size cap (raise it with --cap-subsets) or an input graph
or framework has more vertices than ``jsonio.MAX_VERTICES``. ``certify``
sweeps only when its evidence fails, so it exits 4 only then; ``gale`` and
``psdize`` never sweep.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .certify import (
    CertifyError,
    NotGenericRankProfile,
    Reason,
    _elimination_order,
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
    is_chordal,
    vertex_cut_of_size_at_most,
)
from .jsonio import (
    InputTooLarge,
    ParseError,
    certificate_to_obj,
    framework_from_obj,
    framework_to_obj,
    graph_from_obj,
    load_framework,
    load_stress,
    matrix_to_lists,
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


def _input_error(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_INPUT)


def _hypothesis_error(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_HYPOTHESIS)


def _limit_error(exc) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_LIMIT)


def _load_framework(path: str):
    try:
        return load_framework(path)
    except InputTooLarge as exc:
        _limit_error(exc)
    except (ParseError, OSError) as exc:
        _input_error(exc)


def _load_stress(path: str):
    try:
        return load_stress(path)
    except (ParseError, OSError) as exc:
        _input_error(exc)


def _write(write, path, content) -> None:
    """Every output file is written here, by ``write(path, content)``; a
    path that cannot be written is a usage error."""
    try:
        write(path, content)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _emit(obj, output: str | None) -> None:
    if output:
        _write(write_json, output, obj)
    else:
        click.echo(render_json(obj))


_cap_subsets = click.option(
    "--cap-subsets", type=click.IntRange(min=0), default=None,
    help="Abort the general-position sweep beyond this many (r+1)-point subsets "
         f"(default {DEFAULT_POSITION_CAP:,}). analyze always sweeps; certify sweeps "
         "only when its evidence fails, to name the failed hypothesis.")


@click.group()
def main():
    """Exact rigidity certificates for chordal bar frameworks."""


@main.command()
@click.argument("framework_file")
@click.option("--output", default=None, help="Write the certificate JSON here.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@_cap_subsets
def analyze(framework_file, output, fmt, cap_subsets):
    """Report chordality, connectivity, general position and the verdict."""
    fw = _load_framework(framework_file)
    try:
        cert = certify_chordal(fw, cap=cap_subsets)
        # certify_chordal sweeps only on a failure path; reuse its witness
        if cert.reason is Reason.NOT_GENERAL_POSITION:
            gp, gp_witness = False, cert.detail
        else:
            gp, gp_witness = is_general_position(fw, cap=cap_subsets)
    except SizeCapExceededError as exc:
        _limit_error(exc)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _hypothesis_error(exc)
    if output:
        _emit(certificate_to_obj(cert), output)
    if fmt == "json":
        click.echo(render_json(certificate_to_obj(cert)))
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
@_cap_subsets
def certify(framework_file, output, cap_subsets):
    """Emit the certificate as JSON."""
    fw = _load_framework(framework_file)
    try:
        cert = certify_chordal(fw, cap=cap_subsets)
    except SizeCapExceededError as exc:
        _limit_error(exc)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _hypothesis_error(exc)
    _emit(certificate_to_obj(cert), output)


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
        click.echo(f"error: not generic rank profile: leading principal minor "
                   f"{exc.minor_index} is zero", err=True)
        sys.exit(EXIT_HYPOTHESIS)
    except DimensionMismatch as exc:  # a stress whose size is not the framework's
        _input_error(exc)
    except (CertifyError, FrameworkError, ExactMatError) as exc:
        _hypothesis_error(exc)
    _emit(stress_to_obj(result.stress), output)
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
        _input_error(exc)
    if fmt == "json":
        click.echo(render_json({
            "symmetric": report.symmetric,
            "pattern_ok": report.pattern_ok,
            "kernel_ok": report.kernel_ok,
            "rank": report.rank,
            "generic_rank_profile": report.generic_rank_profile,
            "psd": report.psd,
            "stress_matrix": report.is_stress_matrix,
        }))
        return
    yn = lambda b: "yes" if b else "no"
    click.echo(f"symmetric: {yn(report.symmetric)}")
    click.echo(f"pattern: {yn(report.pattern_ok)}")
    click.echo(f"kernel: {yn(report.kernel_ok)}")
    click.echo(f"rank: {report.rank}")
    click.echo(f"generic rank profile: {yn(report.generic_rank_profile)}")
    click.echo(f"psd: {yn(report.psd)}")
    click.echo(f"stress matrix: {yn(report.is_stress_matrix)}")


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
        _hypothesis_error(exc)
    _emit(matrix_to_lists(z.matrix), output)


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
        else:
            chord = is_chordal(fw.graph)
            if not chord.chordal:
                raise CertifyError("graph is not chordal; supply --cut explicitly")
            cut = vertex_cut_of_size_at_most(fw.graph, chord.peo, fw.dim)
            if cut is None:
                raise CertifyError(f"no separating set of size at most {fw.dim} exists")
        result = reflection_counterexample(fw, cut)
    except (CertifyError, FrameworkError, GraphError, ExactMatError) as exc:
        _hypothesis_error(exc)
    _emit(framework_to_obj(result), output)


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
        _limit_error(exc)
    except (ParseError, OSError) as exc:
        _input_error(exc)
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
        _limit_error(exc)
    except (InvalidParameters, FrameworkError) as exc:
        raise click.UsageError(str(exc))
    _emit(framework_to_obj(fw), output)


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
            _input_error(exc)
        except (FrameworkError, ExactMatError) as exc:
            _hypothesis_error(exc)
    try:
        svg = render_framework_svg(fw, omega)
    except UnsupportedDimension as exc:
        _hypothesis_error(exc)
    if output:
        _write(Path.write_text, Path(output), svg)
    else:
        click.echo(svg, nl=False)


if __name__ == "__main__":
    main()
