import math
import random
import tracemalloc

import pytest

import oracles
from conftest import random_graph
from snburst import (
    Graph,
    GraphError,
    ParseError,
    betweenness,
    gen_heawood,
    gen_queen,
    gen_scale_free,
    gen_wagner,
    parse_edge_list,
    parse_graphml,
    write_edge_list,
    write_graphml,
)

# A Rome-corpus-style GraphML instance (10 nodes, 9 edges).
ROME_STYLE_GRAPHML = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph id="G" edgedefault="undirected">
    <node id="n0"/><node id="n1"/><node id="n2"/><node id="n3"/><node id="n4"/>
    <node id="n5"/><node id="n6"/><node id="n7"/><node id="n8"/><node id="n9"/>
    <edge id="e0" source="n0" target="n1"/>
    <edge id="e1" source="n1" target="n2"/>
    <edge id="e2" source="n2" target="n3"/>
    <edge id="e3" source="n3" target="n4"/>
    <edge id="e4" source="n4" target="n5"/>
    <edge id="e5" source="n5" target="n6"/>
    <edge id="e6" source="n2" target="n7"/>
    <edge id="e7" source="n7" target="n8"/>
    <edge id="e8" source="n8" target="n9"/>
  </graph>
</graphml>
"""


# write_graphml(gen_wagner()), byte for byte.
WAGNER_GRAPHML = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
    '<graph id="G" edgedefault="undirected">'
    '<node id="n0" /><node id="n1" /><node id="n2" /><node id="n3" />'
    '<node id="n4" /><node id="n5" /><node id="n6" /><node id="n7" />'
    '<edge id="e0" source="n0" target="n1" /><edge id="e1" source="n0" target="n4" />'
    '<edge id="e2" source="n0" target="n7" /><edge id="e3" source="n1" target="n2" />'
    '<edge id="e4" source="n1" target="n5" /><edge id="e5" source="n2" target="n3" />'
    '<edge id="e6" source="n2" target="n6" /><edge id="e7" source="n3" target="n4" />'
    '<edge id="e8" source="n3" target="n7" /><edge id="e9" source="n4" target="n5" />'
    '<edge id="e10" source="n5" target="n6" /><edge id="e11" source="n6" target="n7" />'
    "</graph></graphml>\n"
)


def graphml(body, root="graphml"):
    return f'<{root}><graph id="G" edgedefault="undirected">{body}</graph></{root}>'


def parse_outcome(text):
    """parse_graphml's result in the form of oracles.tree_parse_graphml."""
    try:
        g = parse_graphml(text)
    except ParseError as exc:
        return "error", str(exc)
    return "graph", g.n, g.edges, g.labels


def random_graphml(rng):
    """A small GraphML document: nodes, edges, data and keys, now and then
    with a port, a hyperedge, a second graph, a missing or repeated id, a
    missing endpoint, a cut-off end or trailing junk."""

    def element(depth):
        kind = rng.choices(
            ["node", "edge", "data", "key", "port", "hyperedge", "graph"],
            [30, 30, 8, 3, 1, 1, 1],
        )[0]
        attrs = ""
        if kind == "node" and rng.random() < 0.97:
            attrs = f' id="v{rng.randrange(30)}"'
        if kind == "edge":
            ends = [f'source="v{rng.randrange(32)}"', f'target="v{rng.randrange(32)}"']
            attrs = "".join(" " + a for a in ends if rng.random() < 0.98)
        inner = ""
        if depth < 2 and rng.random() < 0.1:
            inner = "".join(element(depth + 1) for _ in range(rng.randrange(3)))
        return f"<{kind}{attrs}>{inner}</{kind}>" if inner else f"<{kind}{attrs}/>"

    xmlns = rng.choice(["", ' xmlns="http://graphml.graphdrawing.org/xmlns"'])
    graphs = "".join(
        f'<graph id="G{k}">' + "\n".join(element(0) for _ in range(rng.randrange(40))) + "</graph>"
        for k in range(rng.choices([0, 1, 2], [1, 20, 1])[0])
    )
    text = f"<?xml version='1.0' encoding='utf-8'?>\n<graphml{xmlns}>{graphs}</graphml>\n"
    if rng.random() < 0.05:
        text = text[: rng.randrange(len(text))]
    elif rng.random() < 0.03:
        text += "<junk/>"
    return text


class TestGraph:
    def test_adjacency_symmetry(self):
        g = Graph(4, ((0, 1), (2, 1), (3, 0)))
        for i in range(g.n):
            for j in g.adjacency[i]:
                assert i in g.adjacency[j]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_edge_count(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3)))
        assert g.m == 3 and g.n == 5


class TestParseEdgeList:
    def test_path_of_three(self):
        g = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)

    def test_dedup_and_self_loop(self, caplog):
        with caplog.at_level("WARNING"):
            g = parse_edge_list("0 1\n0 1\n1 1")
        assert (g.n, g.m) == (2, 1)
        assert "1 duplicate edge(s) and 1 self-loop(s)" in caplog.text

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# header\n\n0 1  # trailing\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_noncontiguous_ids_compacted(self):
        g = parse_edge_list("10 30\n30 20")
        assert (g.n, g.m) == (3, 2)
        assert g.labels == ("10", "30", "20")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 1 2")

    def test_non_integer(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("a b")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("# nothing\n")

    def test_roundtrip(self):
        g = gen_wagner()
        back = parse_edge_list(write_edge_list(g))
        assert (back.n, back.m) == (g.n, g.m)
        # Ids are compacted in first-appearance order; the label map recovers
        # the original edge set.
        orig = {tuple(sorted((int(back.labels[u]), int(back.labels[v])))) for u, v in back.edges}
        assert orig == set(g.edges)


class TestParseGraphml:
    def test_minimal(self):
        text = (
            '<graphml><graph id="G" edgedefault="undirected">'
            '<node id="a"/><node id="b"/>'
            '<edge source="a" target="b"/></graph></graphml>'
        )
        g = parse_graphml(text)
        assert (g.n, g.m) == (2, 1)

    def test_format_equivalence(self):
        g1 = parse_edge_list("0 1\n1 2\n2 0")
        g2 = parse_graphml(write_graphml(g1))
        assert g1.vertex_count == g2.vertex_count and g1.edges == g2.edges

    def test_write_graphml_bytes(self):
        assert write_graphml(gen_wagner()) == WAGNER_GRAPHML
        assert parse_outcome(WAGNER_GRAPHML) == (
            "graph", 8, gen_wagner().edges, tuple(f"n{i}" for i in range(8))
        )

    def test_edges_before_nodes(self):
        g = parse_graphml(graphml(
            '<edge source="b" target="a"/><edge source="a" target="c"/>'
            '<node id="a"/><node id="b"/><node id="c"/>'
        ))
        assert (g.n, g.edges, g.labels) == (3, ((0, 1), (0, 2)), ("a", "b", "c"))

    def test_labels_in_declaration_order(self):
        g = parse_graphml(graphml(
            '<node id="z"/><edge source="z" target="m"/><node id="m"/>'
            '<node id="a"><data key="d0">x</data></node><edge source="a" target="z"/>'
        ))
        assert g.labels == ("z", "m", "a")
        assert g.edges == ((0, 1), (0, 2))

    def test_rome_style_instance(self):
        g = parse_graphml(ROME_STYLE_GRAPHML)
        # Independent cross-check: count node/edge lines in the raw text.
        n_lines = ROME_STYLE_GRAPHML.count("<node ")
        m_lines = ROME_STYLE_GRAPHML.count("<edge ")
        assert g.n == n_lines == 10
        assert g.m == m_lines == 9
        assert 10 <= g.n <= 100

    def test_not_well_formed(self):
        with pytest.raises(ParseError, match="not well-formed"):
            parse_graphml("<graphml><graph>")

    def test_zero_nodes(self):
        with pytest.raises(ParseError):
            parse_graphml("<graphml><graph/></graphml>")

    def test_rejects_nested_graph(self):
        text = (
            '<graphml><graph id="G"><node id="a">'
            '<graph id="inner"/></node></graph></graphml>'
        )
        with pytest.raises(ParseError, match="nested"):
            parse_graphml(text)

    def test_rejects_hyperedge(self):
        text = (
            '<graphml><graph id="G"><node id="a"/>'
            "<hyperedge/></graph></graphml>"
        )
        with pytest.raises(ParseError, match="hyperedge"):
            parse_graphml(text)

    def test_undeclared_endpoint(self):
        text = (
            '<graphml><graph id="G"><node id="a"/>'
            '<edge source="a" target="zz"/></graph></graphml>'
        )
        with pytest.raises(ParseError, match="undeclared"):
            parse_graphml(text)

    def test_rejects_port_in_node(self):
        with pytest.raises(ParseError, match="<port>"):
            parse_graphml(graphml('<node id="a"><port name="p"/></node><node id="b"/>'))

    def test_node_without_id(self):
        with pytest.raises(ParseError, match="node without id"):
            parse_graphml(graphml('<node id="a"/><node/>'))

    def test_duplicate_node_id(self):
        with pytest.raises(ParseError, match="duplicate node id 'a'"):
            parse_graphml(graphml('<node id="a"/><node id="b"/><node id="a"/>'))

    def test_edge_without_target(self):
        with pytest.raises(ParseError, match="edge without source/target"):
            parse_graphml(graphml('<node id="a"/><node id="b"/><edge source="a"/>'))

    def test_rejects_sibling_graph(self):
        text = graphml('<node id="a"/>').replace(
            "</graphml>", '<graph id="H"><node id="b"/></graph></graphml>'
        )
        with pytest.raises(ParseError, match="nested graphs"):
            parse_graphml(text)

    def test_root_without_graph(self):
        with pytest.raises(ParseError, match="no <graph>"):
            parse_graphml('<graphml><key id="d0"/><node id="a"/></graphml>')

    @pytest.mark.parametrize("cut", [0.5, 0.99])
    def test_cut_off_mid_element(self, cut):
        # Cut inside a tag, on one side of a 2^14-character parser piece or
        # the other: snburst's ParseError (a GraphError), not the XML one.
        text = write_graphml(gen_queen(8, 8))
        end = text.index(" ", int(len(text) * cut))
        with pytest.raises(ParseError, match="not well-formed") as info:
            parse_graphml(text[:end])
        assert isinstance(info.value, GraphError)

    def test_problems_match_tree_parser(self):
        # The first problem in the frozen tree parser's order, or the same
        # graph, on random documents, some cut off or with trailing junk.
        rng = random.Random(23)
        outcomes = set()
        for _ in range(600):
            text = random_graphml(rng)
            got = parse_outcome(text)
            assert got == oracles.tree_parse_graphml(text), text
            outcomes.add(got[0] if got[0] == "graph" else got[1].split(" ")[0])
        assert outcomes >= {
            "graph", "not", "no", "unsupported", "node", "duplicate", "edge", "GraphML",
        }

    @pytest.mark.parametrize("g", [
        gen_wagner(), gen_heawood(), gen_queen(12, 12), gen_scale_free(3000, 2, seed=5),
    ], ids=["wagner", "heawood", "queen-12x12", "scale-free-3000"])
    def test_written_graphs_match_tree_parser(self, g):
        # Documents of one to several 2^14-character pieces, as written and
        # with each element on its own indented line.
        text = write_graphml(g)
        for doc in (text, text.replace("><", ">\n  <")):
            assert parse_outcome(doc) == oracles.tree_parse_graphml(doc)
        assert parse_outcome(text)[1:3] == (g.n, g.edges)

    def test_memory_bounded(self):
        # Building the element tree of this 2.3 MiB document traced 40.8
        # MiB; reading it a piece at a time traces 19.8 MiB, 8.3 of them
        # the Graph itself.  Bound: that plus about 4 MiB.
        text = write_graphml(gen_scale_free(20000, 2, seed=1))
        tracemalloc.start()
        try:
            g = parse_graphml(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (20000, 39997)
        assert peak < 24 * 2**20


class TestGenerators:
    def test_queen_8x8(self):
        g = gen_queen(8, 8)
        assert (g.n, g.m) == (64, 728)

    def test_queen_15x5(self):
        g = gen_queen(15, 5)
        assert (g.n, g.m) == (75, 935)

    def test_queen_1x2(self):
        g = gen_queen(1, 2)
        assert (g.n, g.m) == (2, 1)

    @pytest.mark.parametrize("rows", range(1, 7))
    @pytest.mark.parametrize("cols", range(1, 7))
    def test_queen_closed_form_count(self, rows, cols):
        assert gen_queen(rows, cols).m == oracles.queen_edge_count(rows, cols)

    def test_queen_bad_params(self):
        with pytest.raises(GraphError):
            gen_queen(0, 5)

    def test_wagner(self):
        g = gen_wagner()
        assert (g.n, g.m) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))

    def test_heawood(self):
        g = gen_heawood()
        assert (g.n, g.m) == (14, 21)
        assert all(g.degree(v) == 3 for v in range(14))
        assert oracles.girth(g) == 6
        assert oracles.is_bipartite(g)

    def test_scale_free_tree(self):
        g = gen_scale_free(5, 1, seed=7)
        assert (g.n, g.m) == (5, 4)
        assert oracles.is_connected(g)

    def test_scale_free_deterministic(self):
        a = gen_scale_free(40, 2, seed=3)
        b = gen_scale_free(40, 2, seed=3)
        assert a.edges == b.edges
        c = gen_scale_free(40, 2, seed=4)
        assert a.edges != c.edges

    def test_scale_free_edge_count(self):
        # m = C(k,2) + k(n-k)
        g = gen_scale_free(30, 3, seed=0)
        assert g.m == 3 + 3 * 27

    def test_scale_free_target_m(self):
        g = gen_scale_free(130, 1, seed=1, target_m=190)
        assert (g.n, g.m) == (130, 190)
        assert oracles.is_connected(g)

    def test_scale_free_bad_params(self):
        with pytest.raises(GraphError):
            gen_scale_free(3, 3, seed=0)
        with pytest.raises(GraphError):
            gen_scale_free(10, 1, seed=0, target_m=5)
        with pytest.raises(GraphError):
            gen_scale_free(10, 1, seed=0, target_m=46)


class TestBetweenness:
    def test_path_of_three(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert betweenness(g).values == (0.0, 1.0, 0.0)

    def test_cycle_of_four(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        oracle = oracles.brute_betweenness(g)
        result = betweenness(g).values
        assert result == tuple(pytest.approx(x) for x in oracle)
        assert result == (0.5, 0.5, 0.5, 0.5)

    def test_complete_graph(self):
        g = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
        cv = betweenness(g)
        assert cv.values == (0.0,) * 5
        assert cv.stdev == 0.0

    def test_star_center(self):
        g = Graph(10, tuple((0, i) for i in range(1, 10)))
        cv = betweenness(g)
        assert cv.values[0] == pytest.approx(36.0)  # C(9,2) pairs via center
        assert cv.stdev == pytest.approx(10.8)

    def test_stdev_is_population(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert betweenness(g).stdev == pytest.approx(math.sqrt(2) / 3)

    def test_matches_brute_force_random_corpus(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            g = random_graph(n, max(m, 0), rng)
            oracle = oracles.brute_betweenness(g)
            got = betweenness(g).values
            for a, b in zip(got, oracle):
                assert a == pytest.approx(b, abs=1e-9)

    def test_disconnected(self):
        g = Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        got = betweenness(g).values
        assert got == tuple(pytest.approx(x) for x in oracles.brute_betweenness(g))
