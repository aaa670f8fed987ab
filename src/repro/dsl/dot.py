"""Graphviz DOT rendering of hypergraphs and installation specs.

Figure 5 of the paper is a drawing of the resource-instance hypergraph;
:func:`graph_to_dot` regenerates it for any partial specification, and
:func:`spec_to_dot` renders the resolved dependency DAG of a full
installation specification.  The output is plain DOT text -- pipe it to
``dot -Tpng`` outside this environment.
"""

from __future__ import annotations

from repro.core.instances import InstallSpec
from repro.core.resource_type import DependencyKind
from repro.config.hypergraph import ResourceGraph

_EDGE_STYLE = {
    DependencyKind.INSIDE: 'style=solid label="inside"',
    DependencyKind.ENVIRONMENT: 'style=dashed label="env"',
    DependencyKind.PEER: 'style=dotted label="peer"',
}

_LINK_STYLE = {
    "inside": "style=solid",
    "environment": "style=dashed",
    "peer": "style=dotted",
}


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def graph_to_dot(graph: ResourceGraph, title: str = "engage") -> str:
    """The Figure 5 hypergraph as DOT.

    Partial-spec nodes are drawn with a doubled border (the paper marks
    them with a check).  Multi-target hyperedges get a small junction
    point node so the exactly-one choice is visible.
    """
    lines = [f"digraph {_quote(title)} {{", "  rankdir=BT;",
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


def spec_to_dot(spec: InstallSpec, title: str = "deployment") -> str:
    """A full installation specification's dependency DAG as DOT, with
    machines as clusters."""
    lines = [f"digraph {_quote(title)} {{", "  rankdir=BT;",
             "  node [shape=box fontname=Helvetica];"]
    machines: dict[str, list[str]] = {}
    for instance in spec:
        machines.setdefault(spec.machine_of(instance.id), []).append(
            instance.id
        )
    for index, (machine_id, members) in enumerate(sorted(machines.items())):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f"    label={_quote(machine_id)};")
        newline = "\\n"
        for instance_id in members:
            instance = spec[instance_id]
            label = f"{instance_id}{newline}{instance.key}"
            lines.append(
                f"    {_quote(instance_id)} [label={_quote(label)}];"
            )
        lines.append("  }")
    for instance in spec:
        for link in instance.links():
            lines.append(
                f"  {_quote(instance.id)} -> {_quote(link.target.id)} "
                f"[{_LINK_STYLE[link.kind]}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
