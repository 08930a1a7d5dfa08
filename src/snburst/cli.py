"""Command-line interface: layout, metrics, bench, curve and generate commands.

Exit codes: 0 success, 1 usage error, 2 IO/parse error, 3 numeric failure.
The default output directory can be set via the SNBURST_OUT_DIR
environment variable.

The numeric modules are imported inside the commands that use them, so
`--help` and `generate` load no numpy.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import click

from .graphs import (
    GENERATORS,
    DegenerateGraphError,
    DegenerateLayoutError,
    GraphError,
    NumericError,
    write_edge_list,
    write_graphml,
)

# `bench.ALGORITHMS`, spelled out so that parsing the command line loads no
# numpy (a test pins the two equal).
ALGORITHMS = ("snb", "fr")

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

POSITIVE_INT = click.IntRange(min=1)
POSITIVE_FLOAT = click.FloatRange(min=0, min_open=True)


@click.group()
def cli():
    """Sync-and-Burst graph layout toolkit."""


def _out_dir(value: str | None) -> Path:
    if value:
        return Path(value)
    import os

    return Path(os.environ.get("SNBURST_OUT_DIR", "."))


def _snb_params(g, sync_param, **kwargs):
    """SnbParams for a command, s defaulting to the value derived from `g`; an
    s the run cannot hold (need 0 < s < total_multiplier - s) is a usage error."""
    from .snb import SnbParams, compute_sync_param

    s = sync_param if sync_param is not None else compute_sync_param(g)
    try:
        return SnbParams(sync_param=s, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _emit(text: str, output: str | None) -> None:
    """Write `text` to the file `output` and say so, or echo it if none."""
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@cli.command("layout")
@click.argument("graph_file", type=click.Path())
@click.option("--alg", type=click.Choice(ALGORITHMS), default="snb",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--multiplier", type=POSITIVE_INT, default=20, show_default=True,
              help="Iterations per vertex.")
@click.option("--sync-param", type=POSITIVE_FLOAT, default=None,
              help="SnB only: override s (default: derived from betweenness stdev).")
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--labels", is_flag=True, help="Draw vertex labels in the SVG.")
def cmd_layout(graph_file, alg, seed, multiplier, sync_param, out_dir, labels):
    """Lay out GRAPH_FILE and write <stem>_<alg>.svg plus a coordinates CSV."""
    if alg == "fr" and sync_param is not None:
        raise click.UsageError("--sync-param applies to --alg snb only")
    from .bench import load_graph_file
    from .fr import FrParams, fr_run
    from .render import layout_to_csv, layout_to_svg
    from .snb import snb_run

    g = load_graph_file(graph_file)
    if alg == "snb":
        record = snb_run(g, _snb_params(g, sync_param, seed=seed, total_multiplier=multiplier))
    else:
        record = fr_run(g, FrParams(seed=seed, total_multiplier=multiplier))
    out = _out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(graph_file).stem
    svg_path = out / f"{stem}_{alg}.svg"
    csv_path = out / f"{stem}_{alg}.csv"
    svg = layout_to_svg(g, record.final_layout, labels=labels)
    svg_path.write_text(svg, encoding="utf-8")
    csv_path.write_text(layout_to_csv(record.final_layout), encoding="utf-8")
    click.echo(f"wrote {svg_path} and {csv_path}")


@cli.command("metrics")
@click.argument("graph_file", type=click.Path())
@click.argument("layout_csv", type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write to a file instead of stdout.")
def cmd_metrics(graph_file, layout_csv, fmt, output):
    """Compute the aesthetic scorecard of LAYOUT_CSV for GRAPH_FILE."""
    from .bench import load_graph_file
    from .metrics import compute_metrics
    from .render import csv_text, read_layout_csv

    g = load_graph_file(graph_file)
    layout = read_layout_csv(Path(layout_csv).read_text(encoding="utf-8-sig"))
    report = compute_metrics(g, layout)
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        row = report.scalar_row()
        text = csv_text(row.keys(), [row.values()])
    _emit(text, output)


@cli.command("bench")
@click.argument("corpus_dir", type=click.Path())
@click.option("--alg", "algorithms", multiple=True, type=click.Choice(ALGORITHMS),
              default=ALGORITHMS, show_default=True)
@click.option("--seeds", type=POSITIVE_INT, default=1, show_default=True,
              help="Seeds per graph.")
@click.option("--multiplier", type=POSITIVE_INT, default=20, show_default=True)
@click.option("--out-dir", type=click.Path(), default=None)
def cmd_bench(corpus_dir, algorithms, seeds, multiplier, out_dir):
    """Run the corpus in CORPUS_DIR, one job at a time, and write records.csv
    and buckets.csv."""
    from . import bench as bench_mod

    records = bench_mod.run_corpus(
        corpus_dir,
        algorithms=tuple(dict.fromkeys(algorithms)),
        seeds_per_graph=seeds,
        total_multiplier=multiplier,
    )
    buckets = bench_mod.bucketize(records)
    out = _out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(bench_mod.records_to_csv(records), encoding="utf-8")
    (out / "buckets.csv").write_text(bench_mod.buckets_to_csv(buckets), encoding="utf-8")
    click.echo(f"wrote {out / 'records.csv'} ({len(records)} records) and "
               f"{out / 'buckets.csv'} ({len(buckets)} rows)")


@cli.command("curve")
@click.argument("graph_file", type=click.Path())
@click.option("--t-max", type=POSITIVE_INT, default=None,
              help="Last iteration (default: 20n).")
@click.option("--sync-param", type=POSITIVE_FLOAT, default=None)
@click.option("-o", "--output", type=click.Path(), default=None)
def cmd_curve(graph_file, t_max, sync_param, output):
    """Emit the total-magnitude curve CSV (t, Ma, Mr, f) for GRAPH_FILE."""
    from .bench import load_graph_file
    from .render import magnitude_curve_to_csv
    from .snb import total_magnitude_curve

    g = load_graph_file(graph_file)
    params = _snb_params(g, sync_param)
    if t_max is None:
        t_max = params.total_multiplier * g.n
    rows = total_magnitude_curve(g, params, t_max)
    _emit(magnitude_curve_to_csv(rows), output)


@cli.command("generate")
@click.argument("name")
@click.argument("params", nargs=-1, type=int)
@click.option("--seed", type=int, default=None,
              help="Scale-free only: generator seed (default 0).")
@click.option("--target-m", type=int, default=None,
              help="Scale-free only: add extra edges up to this edge count.")
@click.option("--format", "fmt", type=click.Choice(["edgelist", "graphml"]),
              default="edgelist", show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
def cmd_generate(name, params, seed, target_m, fmt, output):
    """Generate a named graph: queen R C | wagner | heawood | scale-free N [K]."""
    if name not in GENERATORS:
        raise click.UsageError(
            f"unknown generator {name!r}; available: {', '.join(sorted(GENERATORS))}"
        )
    generator = GENERATORS[name]
    # Only the options given are passed on, so one the generator lacks is an error.
    options = {k: v for k, v in (("seed", seed), ("target_m", target_m)) if v is not None}
    try:
        inspect.signature(generator).bind(*params, **options)
    except TypeError as exc:
        raise click.UsageError(
            f"bad parameters for {name} ({exc}); see 'snburst generate --help'"
        ) from None
    try:
        g = generator(*params, **options)
    except GraphError as exc:
        raise click.UsageError(f"bad parameters for {name}: {exc}") from None
    text = write_edge_list(g) if fmt == "edgelist" else write_graphml(g)
    if output is None:
        suffix = ".txt" if fmt == "edgelist" else ".graphml"
        output = f"{name}{'_' + '_'.join(map(str, params)) if params else ''}{suffix}"
    Path(output).write_text(text, encoding="utf-8")
    click.echo(f"wrote {output} (n={g.n}, m={g.m})")


def main(argv=None) -> int:
    """Dispatch with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (DegenerateGraphError, DegenerateLayoutError, NumericError) as exc:
        click.echo(f"numeric error: {exc}", err=True)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO
    return 0


def entrypoint():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
