"""The package's public surface, and what importing it costs.

`import snburst` loads only the numpy-free graph code; every other public
name and every submodule is imported on first access.  These tests pin the
exported names to the objects their modules define, and check in fresh
child processes that the graph tools and the `--help` and `generate`
commands never load numpy.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import snburst

EXPORTED = [
    "BucketSummary",
    "CentralityVector",
    "CorpusError",
    "DegenerateGraphError",
    "DegenerateLayoutError",
    "FrParams",
    "Graph",
    "GraphError",
    "Layout",
    "MetricsReport",
    "NumericError",
    "ParseError",
    "RunRecord",
    "SnbParams",
    "avg_adjacent_angle",
    "avg_crossing_angle",
    "betweenness",
    "bucketize",
    "compute_metrics",
    "compute_sync_param",
    "count_crossings",
    "edge_length_stdev",
    "find_crossings",
    "fr_run",
    "fr_temperature",
    "gen_heawood",
    "gen_lcf",
    "gen_queen",
    "gen_scale_free",
    "gen_wagner",
    "initial_layout",
    "log_magnitude",
    "log_turning_point_magnitude",
    "magnitude",
    "min_pair_distance_scaled",
    "normalize_layout",
    "parse_edge_list",
    "parse_graphml",
    "run_corpus",
    "run_one",
    "snb_run",
    "snb_step",
    "sync_phase_iterations",
    "total_magnitude_curve",
    "turning_point_magnitude",
    "vertex_distribution",
    "write_edge_list",
    "write_graphml",
]

SUBMODULES = ["bench", "cli", "fr", "graphs", "layout", "metrics", "render", "rng", "snb"]


def run_child(code):
    """Run `code` in a fresh interpreter that imports snburst from this
    checkout; its standard output, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(snburst.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_its_modules_object(name):
    obj = getattr(snburst, name)
    assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec(f"from snburst import {name}", namespace)
    assert namespace[name] is obj


def test_all_and_star_import():
    assert sorted(snburst.__all__) == EXPORTED
    namespace = {}
    exec("from snburst import *", namespace)
    assert all(namespace[name] is getattr(snburst, name) for name in EXPORTED)


def test_dir_lists_names_and_submodules():
    assert set(EXPORTED + SUBMODULES) <= set(dir(snburst))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        snburst.nope


def test_run_errors_keep_their_layout_import_path():
    from snburst import graphs, layout

    for name in ("DegenerateGraphError", "DegenerateLayoutError", "NumericError"):
        assert getattr(layout, name) is getattr(graphs, name) is getattr(snburst, name)


def test_submodules_resolve_after_bare_import():
    resolved = run_child(f"""
        import json, sys, types
        import snburst
        names = {SUBMODULES!r}
        print(json.dumps([
            isinstance(getattr(snburst, n), types.ModuleType)
            and getattr(snburst, n) is sys.modules["snburst." + n]
            for n in names
        ]))
    """)
    assert resolved == [True] * len(SUBMODULES)


def test_graph_tools_load_no_numpy():
    loaded = run_child("""
        import json, sys
        import snburst
        for g in (snburst.gen_queen(5, 4), snburst.gen_wagner(), snburst.gen_heawood(),
                  snburst.gen_scale_free(30, 2, seed=1, target_m=70)):
            for back in (snburst.parse_edge_list(snburst.write_edge_list(g)),
                         snburst.parse_graphml(snburst.write_graphml(g))):
                assert (back.n, back.m) == (g.n, g.m)
            snburst.betweenness(g)
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "numpy")))
    """)
    assert loaded == []


def test_help_and_generate_load_no_numpy(tmp_path):
    out = tmp_path / "q.txt"
    result = run_child(f"""
        import contextlib, io, json, sys
        from snburst import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["--help"]),
                     cli.main(["generate", "queen", "4", "4", "-o", {str(out)!r}])]
        print(json.dumps([codes, "numpy" in sys.modules]))
    """)
    assert result == [[0, 0], False]
    assert out.read_bytes() == snburst.write_edge_list(snburst.gen_queen(4, 4)).encode()
