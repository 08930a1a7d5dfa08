import csv
import dataclasses
import io

import numpy as np
import pytest

from snburst import (
    BucketSummary,
    CorpusError,
    Graph,
    Layout,
    MetricsReport,
    RunRecord,
    bucketize,
    fr_run,
    run_corpus,
    run_one,
    snb_run,
)
from snburst import layout, snb
from snburst.bench import (
    ALGORITHMS,
    BUCKET_FIELDS,
    RECORD_FIELDS,
    buckets_to_csv,
    load_graph_file,
    records_to_csv,
    run_batch,
)

PATH4 = "0 1\n1 2\n2 3\n"
CYCLE5 = "0 1\n1 2\n2 3\n3 4\n4 0\n"
GRAPHML_TRIANGLE = (
    '<graphml><graph id="G" edgedefault="undirected">'
    '<node id="a"/><node id="b"/><node id="c"/>'
    '<edge source="a" target="b"/><edge source="b" target="c"/>'
    '<edge source="a" target="c"/></graph></graphml>'
)


def make_corpus(tmp_path):
    (tmp_path / "path4.txt").write_text(PATH4)
    (tmp_path / "cycle5.txt").write_text(CYCLE5)
    (tmp_path / "triangle.graphml").write_text(GRAPHML_TRIANGLE)
    return tmp_path


def fake_record(n, algorithm, crossings, adjacent=100.0, seed=0):
    metrics = MetricsReport(
        crossings=crossings,
        avg_crossing_angle=90.0,
        avg_adjacent_angle=adjacent,
        edge_length_stdev=0.1,
        min_pair_distance_scaled=1.0,
        vertex_distribution=0.3,
        drawing_area=1.0,
        per_vertex_radii=(),
        nearest_vertex_distances=(),
        border_distances=(),
    )
    return RunRecord(
        graph_id=f"g{n}",
        algorithm=algorithm,
        seed=seed,
        n=n,
        m=n,
        iterations=20 * n,
        wall_time_total=1.0,
        wall_time_per_iteration=1.0 / (20 * n),
        final_layout=Layout(np.zeros((2, 2)) + [[0, 0], [1, 1]]),
        metrics=metrics,
    )


class TestLoadGraphFile:
    def test_by_extension(self, tmp_path):
        corpus = make_corpus(tmp_path)
        assert load_graph_file(corpus / "path4.txt").n == 4
        assert load_graph_file(corpus / "triangle.graphml").m == 3


class TestRunOne:
    def test_attaches_metrics(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        r = run_one(g, "snb", seed=0, graph_id="p4")
        assert r.graph_id == "p4" and r.algorithm == "snb"
        assert r.metrics is not None
        assert r.iterations == 80

    def test_labels_record(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        for alg in ALGORITHMS:
            assert run_one(g, alg, seed=0, graph_id="p4").graph_id == "p4"
        assert snb_run(g).graph_id == fr_run(g).graph_id == ""

    def test_unknown_algorithm(self):
        g = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_one(g, "spring", seed=0)


class TestRunCorpus:
    def test_full_product(self, tmp_path):
        corpus = make_corpus(tmp_path)
        records = run_corpus(corpus, seeds_per_graph=2)
        # 3 graphs x 2 algorithms x 2 seeds
        assert len(records) == 12
        keys = [(r.graph_id, r.algorithm, r.seed) for r in records]
        assert keys == sorted(keys)
        assert all(r.metrics is not None for r in records)

    def test_skips_corrupt_file(self, tmp_path, caplog):
        bad = {
            "broken.txt": "this is not an edge list\n",
            "single_vertex.txt": "0 0\n",  # self-loop dropped: n = 1, m = 0
            "two_isolated.txt": "0 0\n1 1\n",  # n = 2, m = 0
        }
        for name, text in bad.items():
            (tmp_path / name).write_text(text)
        with pytest.raises(CorpusError):  # no usable graph left
            run_corpus(tmp_path)
        corpus = make_corpus(tmp_path)
        # FR could lay out two_isolated.txt, but a graph SnB cannot schedule
        # is skipped for every algorithm, so all algorithms see one corpus.
        for algorithms in (("snb", "fr"), ("fr",)):
            caplog.clear()
            with caplog.at_level("WARNING"):
                records = run_corpus(corpus, algorithms=algorithms)
            assert len(records) == 3 * len(algorithms)
            assert not set(bad) & {r.graph_id for r in records}
            for name in bad:
                assert f"skipping {name}" in caplog.text

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            run_corpus(tmp_path)

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(CorpusError):
            run_corpus(tmp_path / "nope")

    def test_workers_one_is_the_default_run(self, tmp_path):
        # perfbench/one_pass.py calls run_corpus(..., workers=1).
        corpus = make_corpus(tmp_path)
        default = run_corpus(corpus)
        benchmark_shape = run_corpus(corpus, workers=1)
        assert len(default) == len(benchmark_shape) == 6
        for a, b in zip(default, benchmark_shape):
            assert (a.graph_id, a.algorithm, a.seed, a.iterations) == (
                b.graph_id, b.algorithm, b.seed, b.iterations
            )
            assert np.array_equal(a.final_layout.coords, b.final_layout.coords)
            if a.sync_end_layout is not None:
                assert np.array_equal(a.sync_end_layout.coords, b.sync_end_layout.coords)
            assert a.metrics.scalar_row() == b.metrics.scalar_row()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_other_worker_counts_rejected(self, tmp_path, workers):
        corpus = make_corpus(tmp_path)
        with pytest.raises(ValueError, match="workers must be 1"):
            run_corpus(corpus, workers=workers)

    def test_byte_order_mark_accepted(self, tmp_path):
        corpus = make_corpus(tmp_path)
        (corpus / "bom.txt").write_text("\ufeff" + CYCLE5, encoding="utf-8")
        (corpus / "bom.graphml").write_text("\ufeff" + GRAPHML_TRIANGLE, encoding="utf-8")
        assert load_graph_file(corpus / "bom.txt").edges == load_graph_file(
            corpus / "cycle5.txt"
        ).edges
        records = run_corpus(corpus, algorithms=("snb",))
        by_id = {r.graph_id: r for r in records}
        assert set(by_id) == {"bom.graphml", "bom.txt", "cycle5.txt", "path4.txt",
                              "triangle.graphml"}
        assert np.array_equal(by_id["bom.txt"].final_layout.coords,
                              by_id["cycle5.txt"].final_layout.coords)
        assert (by_id["bom.graphml"].n, by_id["bom.graphml"].m) == (3, 3)


class TestBatches:
    def test_run_batch_gives_records_in_seed_order(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
        for alg in ALGORITHMS:
            records = run_batch(g, alg, (2, 0, 1), graph_id="c5")
            assert [r.seed for r in records] == [2, 0, 1]
            assert all(r.graph_id == "c5" and r.metrics is not None for r in records)
            # The batch loop's time, shared equally.
            assert len({r.wall_time_total for r in records}) == 1
            for r in records:
                alone = run_one(g, alg, r.seed)
                assert np.array_equal(r.final_layout.coords, alone.final_layout.coords)

    def test_batch_size_does_not_change_records(self, tmp_path, monkeypatch):
        # Graphs of n = 5, 4 and 3; five seeds each.  PAIR_BLOCK = 50 gives
        # batches of 2, 3 and 5 seeds, so some batches are partial.  Each
        # batch gets one workspace, for SnB and again for FR.
        corpus = make_corpus(tmp_path)
        sizes = []

        class Spy(layout.PairWorkspace):
            def __init__(self, n, seeds):
                super().__init__(n, seeds)
                sizes.append((n, len(self.seeds)))

        monkeypatch.setattr(layout, "PairWorkspace", Spy)
        tables = {}
        for budget in (1, 50, 1 << 15):
            monkeypatch.setattr(layout, "PAIR_BLOCK", budget)
            sizes.clear()
            rows = list(csv.DictReader(io.StringIO(
                records_to_csv(run_corpus(corpus, seeds_per_graph=5))
            )))
            for row in rows:
                del row["wall_time_total"], row["wall_time_per_iteration"]
            tables[budget] = rows
            if budget == 50:
                per_algorithm = [(3, 5), (4, 2), (4, 3), (5, 1), (5, 2), (5, 2)]
                assert sorted(sizes) == sorted(2 * per_algorithm)
            else:
                assert {k for _, k in sizes} == ({1} if budget == 1 else {5})
        assert tables[1] == tables[50] == tables[1 << 15]
        assert len(tables[1]) == 3 * 2 * 5

    def test_sync_param_computed_once_per_graph(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path)
        calls = []
        real = snb.betweenness
        monkeypatch.setattr(snb, "betweenness", lambda g: calls.append(g.n) or real(g))
        monkeypatch.setattr(layout, "PAIR_BLOCK", 1)  # one batch per seed
        run_corpus(corpus, seeds_per_graph=3)
        assert sorted(calls) == [3, 4, 5]
        calls.clear()
        run_corpus(corpus, algorithms=("fr",), seeds_per_graph=3)
        assert calls == []


class TestBucketize:
    def test_bucket_index_boundaries(self):
        records = [fake_record(10, "snb", 1), fake_record(14, "snb", 2), fake_record(15, "snb", 3)]
        out = bucketize(records)
        by_bucket = {(s.bucket_index, s.algorithm): s for s in out}
        assert by_bucket[(2, "snb")].count == 2  # n=10 and n=14
        assert by_bucket[(3, "snb")].count == 1  # n=15

    def test_hand_computed_means(self):
        records = [fake_record(12, "snb", 2), fake_record(13, "snb", 4)]
        (summary,) = bucketize(records)
        assert summary.bucket_index == 2
        assert summary.means["mean_crossings"] == pytest.approx(3.0)
        assert summary.means["mean_avg_adjacent_angle"] == pytest.approx(100.0)

    def test_none_metric_skipped(self):
        records = [
            fake_record(12, "snb", 2, adjacent=None),
            fake_record(13, "snb", 4, adjacent=150.0),
        ]
        (summary,) = bucketize(records)
        assert summary.means["mean_avg_adjacent_angle"] == pytest.approx(150.0)

    def test_algorithms_kept_separate(self):
        records = [fake_record(12, "snb", 2), fake_record(12, "fr", 8)]
        out = bucketize(records)
        assert {(s.bucket_index, s.algorithm) for s in out} == {(2, "snb"), (2, "fr")}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bucketize([])


class TestCsv:
    def test_records_csv_roundtrips(self):
        records = [fake_record(12, "snb", 2), fake_record(12, "fr", 8, adjacent=None)]
        text = records_to_csv(records)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert list(rows[0]) == RECORD_FIELDS
        assert rows[0]["crossings"] == "2"
        # Floats are written exactly: each cell reads back to the same value.
        assert float(rows[0]["edge_length_stdev"]) == 0.1
        assert float(rows[0]["wall_time_per_iteration"]) == 1.0 / 240
        assert float(rows[0]["avg_adjacent_angle"]) == 100.0
        assert rows[1]["avg_adjacent_angle"] == ""

    def test_records_csv_deterministic(self):
        records = [fake_record(12, "snb", 2)]
        assert records_to_csv(records) == records_to_csv(records)

    def test_buckets_csv(self):
        summaries = bucketize([fake_record(12, "snb", 2), fake_record(13, "snb", 4)])
        text = buckets_to_csv(summaries)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0]) == BUCKET_FIELDS
        assert float(rows[0]["mean_crossings"]) == pytest.approx(3.0)

    def test_golden_bytes(self):
        # The text csv.DictWriter(restval="") wrote before both tables moved to
        # render.csv_text: a numpy float64 metric, a None metric (empty cell),
        # 1/240, and a record without metrics (one empty cell per metric).
        records = [
            fake_record(12, "snb", 2, adjacent=np.float64(2.0) / 3.0),
            fake_record(12, "fr", 8, adjacent=None),
            dataclasses.replace(fake_record(13, "snb", 3), metrics=None),
        ]
        assert records_to_csv(records) == (
            "graph_id,algorithm,seed,n,m,iterations,wall_time_total,"
            "wall_time_per_iteration,crossings,avg_crossing_angle,avg_adjacent_angle,"
            "edge_length_stdev,min_pair_distance_scaled,vertex_distribution,drawing_area\n"
            "g12,snb,0,12,12,240,1.0,0.004166666666666667,2,90.0,0.6666666666666666,"
            "0.1,1.0,0.3,1.0\n"
            "g12,fr,0,12,12,240,1.0,0.004166666666666667,8,90.0,,0.1,1.0,0.3,1.0\n"
            "g13,snb,0,13,13,260,1.0,0.0038461538461538464,,,,,,,\n"
        )
        assert buckets_to_csv(bucketize(records)) == (
            "bucket_index,algorithm,count,mean_crossings,mean_avg_crossing_angle,"
            "mean_avg_adjacent_angle,mean_edge_length_stdev,"
            "mean_min_pair_distance_scaled,mean_vertex_distribution,mean_drawing_area,"
            "mean_wall_time_per_iteration\n"
            "2,fr,1,8.0,90.0,,0.1,1.0,0.3,1.0,0.004166666666666667\n"
            "2,snb,2,2.0,90.0,0.6666666666666666,0.1,1.0,0.3,1.0,0.004006410256410256\n"
        )

    def test_none_mean_written_empty(self):
        summaries = bucketize([fake_record(12, "snb", 2, adjacent=None)])
        rows = list(csv.DictReader(io.StringIO(buckets_to_csv(summaries))))
        assert rows[0]["mean_avg_adjacent_angle"] == ""
