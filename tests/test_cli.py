import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import snburst
from snburst import Graph, Layout, gen_scale_free, gen_wagner, parse_edge_list, write_edge_list
from snburst.cli import EXIT_IO, EXIT_NUMERIC, EXIT_USAGE, main
from snburst.render import (
    layout_to_csv,
    layout_to_svg,
    read_layout_csv,
    trajectory_to_csv,
)

PATH4 = "0 1\n1 2\n2 3\n"


def write_graph(tmp_path, name="g.txt", text=PATH4):
    p = tmp_path / name
    p.write_text(text)
    return p


def svg_texts(svg):
    return [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]


def svg_counts(path):
    root = ET.parse(path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    return (
        len(root.findall(f".//{ns}circle")),
        len(root.findall(f".//{ns}line")),
    )


class TestRender:
    def test_svg_structure(self):
        g = gen_wagner()
        layout = Layout(np.random.default_rng(0).random((8, 2)))
        svg = layout_to_svg(g, layout)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f".//{ns}circle")) == g.n
        assert len(root.findall(f".//{ns}line")) == g.m

    def test_svg_labels(self):
        # Labels are text content, so XML's special characters are escaped.
        g = Graph(4, ((0, 1), (1, 2)), labels=("alpha", "a&b", "<c>", "d\"'e"))
        layout = Layout(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
        assert svg_texts(layout_to_svg(g, layout, labels=True)) == list(g.labels)

    def test_layout_csv_roundtrip(self):
        # Already normalized, so the CSV holds these exact values.
        layout = Layout(np.array([[0.0, 0.0], [1.0, 0.1], [1.0 / 3.0, 1.0]]))
        back = read_layout_csv(layout_to_csv(layout))
        assert np.array_equal(back.coords, layout.coords)

    def test_layout_csv_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_layout_csv("a,b,c\n0,0,0\n")

    def test_layout_csv_bad_ids(self):
        with pytest.raises(ValueError, match="0..n-1"):
            read_layout_csv("vertex,x,y\n0,0,0\n2,1,1\n")

    @pytest.mark.parametrize("text, match", [
        ("vertex,x,y\n0,0,0\n1\n", "line 3: expected vertex,x,y"),
        ("vertex,x,y\n0,0,0\n1,nan,1\n", "line 3: non-finite"),
        ("vertex,x,y\n0,inf,0\n1,1,1\n", "line 2: non-finite"),
        ("vertex,x,y\nfoo,0,0\n", "line 2: non-numeric"),
        ("vertex,x,y\n0,0,0\n1,1,one\n", "line 3: non-numeric"),
    ], ids=["short-row", "nan", "inf", "non-numeric-id", "non-numeric-coordinate"])
    def test_layout_csv_malformed_row(self, text, match):
        with pytest.raises(ValueError, match=match):
            read_layout_csv(text)

    def test_trajectory_csv(self):
        traj = [(5, Layout(np.array([[0.0, 0.0], [1.0, 1.0]]), 5))]
        rows = list(csv.reader(io.StringIO(trajectory_to_csv(traj))))
        assert rows[0] == ["t", "vertex", "x", "y"]
        assert rows[1][:2] == ["5", "0"]


class TestLayoutCommand:
    def test_happy_path_snb(self, tmp_path):
        gpath = write_graph(tmp_path)
        assert main(["layout", str(gpath), "--out-dir", str(tmp_path)]) == 0
        svg = tmp_path / "g_snb.svg"
        csv_path = tmp_path / "g_snb.csv"
        assert svg.exists() and csv_path.exists()
        assert svg_counts(svg) == (4, 3)
        layout = read_layout_csv(csv_path.read_text())
        assert len(layout) == 4

    def test_fr_suffix(self, tmp_path):
        gpath = write_graph(tmp_path)
        assert main(["layout", str(gpath), "--alg", "fr", "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "g_fr.svg").exists()

    def test_labels_from_graphml_ids(self, tmp_path):
        gpath = write_graph(tmp_path, "g.graphml", (
            '<graphml><graph edgedefault="undirected">'
            '<node id="a&amp;b"/><node id="&lt;c&gt;"/><node id="d"/>'
            '<edge source="a&amp;b" target="&lt;c&gt;"/><edge source="&lt;c&gt;" target="d"/>'
            '</graph></graphml>'
        ))
        assert main(["layout", str(gpath), "--labels", "--out-dir", str(tmp_path)]) == 0
        assert svg_texts((tmp_path / "g_snb.svg").read_text()) == ["a&b", "<c>", "d"]

    def test_writes_utf8_under_an_ascii_locale(self, tmp_path):
        # With the C locale and UTF-8 mode off, the locale's encoding is
        # ASCII; the SVG declares UTF-8 and must be written as UTF-8.
        gpath = tmp_path / "u.graphml"
        gpath.write_text(
            '<graphml><graph edgedefault="undirected">'
            '<node id="caf\u00e9"/><node id="b"/><edge source="caf\u00e9" target="b"/>'
            "</graph></graphml>",
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C",
                   PYTHONPATH=str(Path(snburst.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "snburst.cli", "layout", str(gpath), "--labels",
             "--out-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        svg = (tmp_path / "u_snb.svg").read_text(encoding="utf-8")
        assert svg_texts(svg) == ["caf\u00e9", "b"]

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["layout", str(tmp_path / "absent.txt")]) == EXIT_IO

    def test_unparseable_file_is_io_error(self, tmp_path):
        gpath = write_graph(tmp_path, text="not an edge list\n")
        assert main(["layout", str(gpath)]) == EXIT_IO

    def test_env_out_dir(self, tmp_path, monkeypatch):
        gpath = write_graph(tmp_path)
        dest = tmp_path / "outputs"
        monkeypatch.setenv("SNBURST_OUT_DIR", str(dest))
        assert main(["layout", str(gpath)]) == 0
        assert (dest / "g_snb.svg").exists()


class TestMetricsCommand:
    def test_json_schema(self, tmp_path, capsys):
        gpath = write_graph(tmp_path)
        assert main(["layout", str(gpath), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(gpath), str(tmp_path / "g_snb.csv")]) == 0
        data = json.loads(capsys.readouterr().out)
        for key in (
            "crossings",
            "avg_crossing_angle",
            "avg_adjacent_angle",
            "edge_length_stdev",
            "min_pair_distance_scaled",
            "vertex_distribution",
            "drawing_area",
            "degenerate_bbox",
        ):
            assert key in data
        assert isinstance(data["crossings"], int)

    def test_csv_format(self, tmp_path, capsys):
        gpath = write_graph(tmp_path)
        main(["layout", str(gpath), "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["metrics", str(gpath), str(tmp_path / "g_snb.csv"),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1 and "crossings" in rows[0]

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" and Notepad both start the file with a BOM.
        gpath = write_graph(tmp_path)
        assert main(["layout", str(gpath), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        layout_csv = tmp_path / "g_snb.csv"
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_text("\ufeff" + layout_csv.read_text(), encoding="utf-8")
        bom_graph = tmp_path / "bom.txt"
        bom_graph.write_text("\ufeff" + PATH4, encoding="utf-8")
        assert main(["metrics", str(gpath), str(layout_csv)]) == 0
        want = capsys.readouterr().out
        assert main(["metrics", str(bom_graph), str(bom_csv)]) == 0
        assert capsys.readouterr().out == want

    def test_vertex_count_mismatch(self, tmp_path):
        gpath = write_graph(tmp_path)
        lpath = tmp_path / "short.csv"
        lpath.write_text("vertex,x,y\n0,0,0\n1,1,1\n")
        assert main(["metrics", str(gpath), str(lpath)]) == EXIT_IO

    def test_output_file(self, tmp_path):
        gpath = write_graph(tmp_path)
        main(["layout", str(gpath), "--out-dir", str(tmp_path)])
        dest = tmp_path / "report.json"
        assert main(["metrics", str(gpath), str(tmp_path / "g_snb.csv"),
                     "-o", str(dest)]) == 0
        assert "crossings" in json.loads(dest.read_text())

    def test_edgeless_graph(self, tmp_path, capsys):
        # Self-loops are dropped, leaving three isolated vertices: FR lays
        # them out and the scorecard reports no edge-length spread.
        gpath = write_graph(tmp_path, text="0 0\n1 1\n2 2\n")
        assert main(["layout", str(gpath), "--alg", "fr", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", str(gpath), str(tmp_path / "g_fr.csv")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["crossings"] == 0 and data["edge_length_stdev"] is None


class TestBenchCommand:
    def test_writes_both_csvs(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text(PATH4)
        (corpus / "b.txt").write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "results"
        assert main(["bench", str(corpus), "--out-dir", str(out)]) == 0
        records = list(csv.DictReader(io.StringIO((out / "records.csv").read_text())))
        assert len(records) == 4  # 2 graphs x 2 algorithms
        assert {r["algorithm"] for r in records} == {"snb", "fr"}
        buckets = list(csv.DictReader(io.StringIO((out / "buckets.csv").read_text())))
        assert len(buckets) == 2  # both graphs land in bucket 0

    def test_empty_corpus_is_io_error(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["bench", str(corpus)]) == EXIT_IO

    def test_workers_option_is_gone(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_graph(corpus)
        out = tmp_path / "results"
        assert main(["bench", str(corpus), "--out-dir", str(out), "--workers", "2"]) == EXIT_USAGE
        assert not out.exists()


class TestCurveCommand:
    def test_sign_change_and_t_max(self, tmp_path):
        gpath = write_graph(tmp_path)
        dest = tmp_path / "curve.csv"
        assert main(["curve", str(gpath), "-o", str(dest)]) == 0
        rows = list(csv.DictReader(io.StringIO(dest.read_text())))
        assert len(rows) == 80  # 20n for the 4-vertex path
        assert rows[0]["t"] == "1"
        fs = [float(r["f"]) for r in rows]
        assert fs[0] > 0 and fs[-1] < 0
        signs = [f > 0 for f in fs if f != 0]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_t_max_one(self, tmp_path, capsys):
        gpath = write_graph(tmp_path)
        assert main(["curve", str(gpath), "--t-max", "1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1


class TestGenerateCommand:
    def test_queen(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "queen", "8", "8"]) == 0
        g = parse_edge_list((tmp_path / "queen_8_8.txt").read_text())
        assert (g.n, g.m) == (64, 728)

    def test_heawood_graphml(self, tmp_path):
        dest = tmp_path / "h.graphml"
        assert main(["generate", "heawood", "--format", "graphml",
                     "-o", str(dest)]) == 0
        from snburst import parse_graphml

        g = parse_graphml(dest.read_text())
        assert (g.n, g.m) == (14, 21)

    def test_scale_free_target_m(self, tmp_path):
        dest = tmp_path / "sf.txt"
        assert main(["generate", "scale-free", "130", "--seed", "3",
                     "--target-m", "190", "-o", str(dest)]) == 0
        g = parse_edge_list(dest.read_text())
        assert (g.n, g.m) == (130, 190)

    def test_unknown_generator_is_usage_error(self):
        assert main(["generate", "petersen"]) == EXIT_USAGE

    def test_queen_missing_params_is_usage_error(self):
        assert main(["generate", "queen", "8"]) == EXIT_USAGE

    def test_wrong_param_count_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for params in (["wagner", "3"], ["heawood", "1"], ["scale-free"],
                       ["scale-free", "10", "2", "5"],
                       # An option the generator does not take.
                       ["queen", "3", "3", "--target-m", "5"], ["wagner", "--seed", "3"]):
            assert main(["generate", *params]) == EXIT_USAGE
        assert not any(tmp_path.iterdir())

    def test_scale_free_default_seed(self, tmp_path):
        dest = tmp_path / "sf.txt"
        assert main(["generate", "scale-free", "10", "2", "-o", str(dest)]) == 0
        assert dest.read_text() == write_edge_list(gen_scale_free(10, 2, seed=0))

    def test_bad_generator_params_is_usage_error(self, tmp_path):
        dest = tmp_path / "x.txt"
        assert main(["generate", "queen", "0", "5", "-o", str(dest)]) == EXIT_USAGE
        assert not dest.exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize("args", [
        ["curve", "{graph}", "-o", "{out}", "--t-max", "0"],
        ["curve", "{graph}", "-o", "{out}", "--sync-param", "-1"],
        ["layout", "{graph}", "--out-dir", "{out}", "--multiplier", "0"],
        ["layout", "{graph}", "--out-dir", "{out}", "--sync-param", "0"],
        ["bench", "{corpus}", "--out-dir", "{out}", "--seeds", "0"],
        ["bench", "{corpus}", "--out-dir", "{out}", "--multiplier", "0"],
        # s must be below total_multiplier - s.
        ["layout", "{graph}", "--out-dir", "{out}", "--sync-param", "25"],
        ["layout", "{graph}", "--out-dir", "{out}", "--multiplier", "5", "--sync-param", "3"],
        ["curve", "{graph}", "-o", "{out}", "--sync-param", "10"],
        # s is a Sync-and-Burst parameter; FR cannot use it.
        ["layout", "{graph}", "--out-dir", "{out}", "--alg", "fr", "--sync-param", "2"],
        # Parameters the generator rejects.
        ["generate", "queen", "0", "3", "-o", "{out}"],
        ["generate", "scale-free", "3", "5", "-o", "{out}"],
        ["generate", "scale-free", "10", "2", "--target-m", "2", "-o", "{out}"],
    ])
    def test_out_of_range_number_is_usage_error(self, tmp_path, args):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        graph = write_graph(corpus)
        out = tmp_path / "out"
        argv = [a.format(graph=graph, corpus=corpus, out=out) for a in args]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0,0,0\n1\n", "0,0,0\n1,nan,1\n", "foo,0,0\n"],
                             ids=["short-row", "nan", "non-numeric"])
    def test_malformed_layout_csv_is_io_error(self, tmp_path, rows):
        graph = write_graph(tmp_path, text="0 1\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("vertex,x,y\n" + rows)
        assert main(["metrics", str(graph), str(bad)]) == EXIT_IO

    def test_graph_without_edges_is_numeric_error(self, tmp_path):
        gpath = write_graph(
            tmp_path, "e.graphml",
            '<graphml><graph edgedefault="undirected"><node id="a"/><node id="b"/>'
            "</graph></graphml>",
        )
        assert main(["layout", str(gpath), "--out-dir", str(tmp_path)]) == EXIT_NUMERIC

    def test_alg_choices_are_the_bench_algorithms(self):
        from snburst import bench, cli

        assert cli.ALGORITHMS == bench.ALGORITHMS

    def test_degenerate_graph_is_numeric_error(self, tmp_path):
        # A graph whose layout cannot be normalized: single edge collapses
        # to one point only in contrived cases, so use the degenerate-run
        # route instead: an empty graph file fails at parse (IO), while a
        # one-vertex graph cannot be expressed in an edge list.  Exercise the
        # numeric branch through the API mapping directly.
        from snburst import DegenerateGraphError
        from snburst.cli import cli
        import click

        @cli.command("boom", hidden=True)
        def _boom():
            raise DegenerateGraphError("synthetic")

        try:
            assert main(["boom"]) == EXIT_NUMERIC
        finally:
            del cli.commands["boom"]
