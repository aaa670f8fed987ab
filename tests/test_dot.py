"""DOT rendering of hypergraphs."""

import pytest

from repro.config import generate_graph
from repro.dsl import graph_to_dot


@pytest.fixture
def graph(registry, openmrs_partial):
    return generate_graph(registry, openmrs_partial)


class TestGraphToDot:
    def test_all_nodes_present(self, graph):
        dot = graph_to_dot(graph)
        for node_id in ("server", "tomcat", "openmrs", "jdk", "jre",
                        "mysql"):
            assert f'"{node_id}"' in dot

    def test_partial_nodes_doubled(self, graph):
        dot = graph_to_dot(graph)
        server_line = next(
            l for l in dot.splitlines()
            if l.strip().startswith('"server" [')
        )
        assert "peripheries=2" in server_line
        jdk_line = next(
            l for l in dot.splitlines() if l.strip().startswith('"jdk" [')
        )
        assert "peripheries" not in jdk_line

    def test_hyperedges_get_junctions(self, graph):
        dot = graph_to_dot(graph)
        # Two multi-target env edges -> two junction points.
        assert dot.count("shape=point") == 2
        assert '"tomcat" -> "xor_' in dot or '"xor_' in dot

    def test_edge_kinds_styled(self, graph):
        dot = graph_to_dot(graph)
        assert 'label="inside"' in dot
        assert 'label="env"' in dot
        assert 'label="peer"' in dot

    def test_valid_dot_shape(self, graph):
        dot = graph_to_dot(graph)
        assert dot.startswith("digraph ")
        assert dot.rstrip().endswith("}")
        assert dot.count("{") == dot.count("}")


class TestCliDot:
    def test_graph_dot_flag(self, tmp_path):
        import json

        from repro.cli import main
        import io

        path = tmp_path / "p.json"
        path.write_text(json.dumps([
            {"id": "server", "key": "Mac-OSX 10.6",
             "config_port": {"hostname": "h"}},
            {"id": "tomcat", "key": "Tomcat 6.0.18",
             "inside": {"id": "server"}},
        ]))
        out = io.StringIO()
        code = main(["graph", "--dot", str(path)], out=out)
        assert code == 0
        assert out.getvalue().startswith("digraph ")
