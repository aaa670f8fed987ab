"""Graphviz DOT rendering of hypergraphs.

Figure 5 of the paper is a drawing of the resource-instance hypergraph;
:func:`graph_to_dot` regenerates it for any partial specification.  The
output is plain DOT text -- pipe it to ``dot -Tpng`` outside this
environment.
"""

from __future__ import annotations

from repro.core.resource_type import DependencyKind
from repro.config.hypergraph import ResourceGraph

_EDGE_STYLE = {
    DependencyKind.INSIDE: 'style=solid label="inside"',
    DependencyKind.ENVIRONMENT: 'style=dashed label="env"',
    DependencyKind.PEER: 'style=dotted label="peer"',
}


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def graph_to_dot(graph: ResourceGraph) -> str:
    """The Figure 5 hypergraph as DOT.

    Partial-spec nodes are drawn with a doubled border (the paper marks
    them with a check).  Multi-target hyperedges get a small junction
    point node so the exactly-one choice is visible.
    """
    lines = ['digraph "engage" {', "  rankdir=BT;",
             "  node [shape=box fontname=Helvetica];"]
    newline = "\\n"
    for node in graph.nodes():
        label = f"{node.instance_id}{newline}{node.key}"
        attrs = [f"label={_quote(label)}"]
        if node.from_partial:
            attrs.append("peripheries=2")
        lines.append(f"  {_quote(node.instance_id)} [{' '.join(attrs)}];")
    junctions = 0
    for edge in graph.edges():
        style = _EDGE_STYLE[edge.kind]
        if len(edge.targets) == 1:
            lines.append(
                f"  {_quote(edge.source_id)} -> "
                f"{_quote(edge.targets[0])} [{style}];"
            )
        else:
            junctions += 1
            junction = f"xor_{junctions}"
            lines.append(
                f"  {_quote(junction)} [shape=point width=0.08 "
                f'xlabel="⊕"];'
            )
            lines.append(
                f"  {_quote(edge.source_id)} -> {_quote(junction)} "
                f"[{style} arrowhead=none];"
            )
            for target in edge.targets:
                lines.append(
                    f"  {_quote(junction)} -> {_quote(target)} "
                    f"[style=dashed];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
