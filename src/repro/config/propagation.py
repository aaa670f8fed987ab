"""Port-value propagation (S4).

"Given this solution, we can also tie together the input and output ports
by traversing the resource instances in topological order of
dependencies, starting with the output ports of [the machines], and using
the definitions of output ports of preceding resource instances to get
values of input ports according to the port mappings specified in the
dependencies."

Static ports (S3.4) are handled in a pre-pass: static output values are
computable at instantiation time (constants or functions of static config
constants), which is what lets reverse mappings flow configuration
*against* the dependency direction without breaking the topological walk.

What propagation needs to know about a resource type does not depend on
the instance, so it is gathered once per key into a :class:`TypePlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from repro.core.errors import ConfigurationError, PortTypeError
from repro.core.instances import (
    DependencyLink,
    InstallSpec,
    InstanceRef,
    ResourceInstance,
    kahn_order,
)
from repro.core.keys import ResourceKey
from repro.core.ports import Binding, Port, neutral_value
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import (
    ConfigPort,
    OutputPort,
    ResourceType,
)
from repro.core.values import PortEnv
from repro.core.wellformed import reverse_fillable_inputs
from repro.config.hypergraph import ResourceGraph


@dataclass(frozen=True)
class TypePlan:
    """The facts about one resource type that propagation reads for
    every instance of it."""

    #: The flattened type.
    resource_type: ResourceType
    #: Static config ports, whose defaults feed the static outputs.
    static_configs: tuple[ConfigPort, ...]
    #: Static output ports, evaluated in the pre-pass.
    static_outputs: tuple[OutputPort, ...]
    #: Input ports a dependent may reverse-fill, in declaration order;
    #: any left unfilled take a neutral value.
    reverse_fillable: tuple[Port, ...]
    #: Names of the config ports, to validate explicit configuration.
    config_names: frozenset[str]


def type_plan(registry: ResourceTypeRegistry, key: ResourceKey) -> TypePlan:
    """The :class:`TypePlan` of ``key``, memoised per registry version.

    Built lazily, one key at a time: a registry that changes between
    calls pays for the keys the next call touches, not for the library.
    """
    plans = registry.derived("propagation-plans", lambda _registry: {})
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _build_plan(registry, key)
    return plan


def _build_plan(registry: ResourceTypeRegistry, key: ResourceKey) -> TypePlan:
    resource_type = registry.effective(key)
    fillable = reverse_fillable_inputs(registry, key)
    return TypePlan(
        resource_type=resource_type,
        static_configs=tuple(
            p for p in resource_type.config_ports
            if p.port.binding == Binding.STATIC
        ),
        static_outputs=tuple(
            p for p in resource_type.output_ports
            if p.port.binding == Binding.STATIC
        ),
        reverse_fillable=tuple(
            p for p in resource_type.input_ports if p.name in fillable
        ),
        config_names=frozenset(p.name for p in resource_type.config_ports),
    )


def propagate(
    registry: ResourceTypeRegistry,
    graph: ResourceGraph,
    deployed: set[str],
    choices: dict[tuple[str, int], str],
) -> InstallSpec:
    """Materialise the full installation specification.

    ``deployed``/``choices`` come from
    :func:`repro.config.constraints.selected_nodes`.
    """
    nodes = graph.nodes()
    return propagate_links(
        registry,
        [node.instance_id for node in nodes],
        [node.key for node in nodes],
        [node.explicit_config for node in nodes],
        deployed,
        link_plan(graph, deployed, choices),
    )


class LinkStep(NamedTuple):
    """One resolved dependency of a node, its target by node position:
    the link, less the ids, that propagation resolves it to."""

    kind: str  # "inside" | "environment" | "peer"
    target: int
    port_mapping: tuple[tuple[str, str], ...]
    reverse_mapping: tuple[tuple[str, str], ...]


def link_plan(
    graph: ResourceGraph,
    deployed: Iterable[str],
    choices: dict[tuple[str, int], str],
) -> dict[int, tuple[LinkStep, ...]]:
    """Each deployed node's chosen edges, by node position: which port
    feeds which.  Positions make the plan the same for every component
    of one shape."""
    position = {node.instance_id: i for i, node in enumerate(graph.nodes())}
    plan: dict[int, tuple[LinkStep, ...]] = {}
    for node_id in deployed:
        steps = []
        for index, edge in enumerate(graph.edges_from(node_id)):
            target_id = choices[(node_id, index)]
            alternative = edge.alternatives[edge.targets.index(target_id)]
            steps.append(LinkStep(
                edge.kind.value, position[target_id],
                alternative.port_mapping.entries,
                alternative.reverse_mapping.entries,
            ))
        plan[position[node_id]] = tuple(steps)
    return plan


def propagate_links(
    registry: ResourceTypeRegistry,
    ids: Sequence[str],
    keys: Sequence[ResourceKey],
    configs: Sequence[dict[str, Any]],
    deployed: set[str],
    link_steps: dict[int, tuple[LinkStep, ...]],
) -> InstallSpec:
    """The full specification of one component whose node at position
    ``i`` is ``ids[i]``, of ``keys[i]``, with explicit configuration
    ``configs[i]``; ``link_steps`` is its :func:`link_plan`.

    The values are this component's own (hostnames and explicit
    configuration differ between components of one shape), and so is
    every order taken over id strings: the walk below is Kahn's order
    over ``sorted(deployed)``.
    """
    where = {ids[p]: p for p in link_steps}
    links: dict[str, _Links] = {}
    for p, steps in link_steps.items():
        inside = None
        environment: list[DependencyLink] = []
        peers: list[DependencyLink] = []
        for kind, target, port_mapping, reverse_mapping in steps:
            link = DependencyLink(
                kind=kind,
                target=InstanceRef(ids[target], keys[target]),
                port_mapping=port_mapping,
                reverse_mapping=reverse_mapping,
            )
            if kind == "inside":
                inside = link
            elif kind == "environment":
                environment.append(link)
            else:
                peers.append(link)
        outgoing = tuple(environment + peers)
        if inside is not None:
            outgoing = (inside,) + outgoing
        links[ids[p]] = _Links(
            inside, tuple(environment), tuple(peers), outgoing
        )
    order = kahn_order(
        {
            node_id: [link.target.id for link in links[node_id].all_links]
            for node_id in sorted(deployed)
        }
    )

    # Pre-pass: static output values, computable at instantiation time.
    plans: dict[str, TypePlan] = {}
    static_outputs: dict[str, dict[str, Any]] = {}
    for node_id in order:
        p = where[node_id]
        plans[node_id] = plan = type_plan(registry, keys[p])
        static_outputs[node_id] = _evaluate_static_outputs(plan, configs[p])

    # Reverse mappings: dependents push static outputs into providers.
    reverse_inputs: dict[str, dict[str, Any]] = {n: {} for n in deployed}
    for node_id in deployed:
        for link in links[node_id].all_links:
            for output_name, input_name in link.reverse_mapping:
                reverse_inputs[link.target.id][input_name] = (
                    static_outputs[node_id][output_name]
                )

    # Topological pass: inputs <- provider outputs; configs; outputs.
    instances: dict[str, ResourceInstance] = {}
    for node_id in order:
        p = where[node_id]
        plan = plans[node_id]
        resource_type = plan.resource_type
        inside, environment, peers, all_links = links[node_id]
        inputs = dict(reverse_inputs[node_id])
        # Reverse-mappable inputs that no dependent filled take a neutral
        # value of their type ("no dependent pushed configuration").
        for port in plan.reverse_fillable:
            if port.name not in inputs:
                inputs[port.name] = neutral_value(port.type)
        for link in all_links:
            provider = instances[link.target.id]
            for output_name, input_name in link.port_mapping:
                if output_name not in provider.outputs:
                    raise ConfigurationError(
                        f"{node_id}: provider {provider.id} has no output "
                        f"{output_name!r}"
                    )
                inputs[input_name] = provider.outputs[output_name]
        config = _evaluate_configs(plan, inputs, configs[p])
        outputs = _evaluate_outputs(resource_type, inputs, config)
        _typecheck_values(resource_type, node_id, inputs, config, outputs)
        instances[node_id] = ResourceInstance(
            id=node_id,
            key=keys[p],
            config=config,
            inputs=inputs,
            outputs=outputs,
            inside=inside,
            environment=environment,
            peers=peers,
        )

    return InstallSpec(instances[node_id] for node_id in order)


class _Links(NamedTuple):
    """One node's resolved dependency links."""

    inside: Optional[DependencyLink]
    environment: tuple[DependencyLink, ...]
    peers: tuple[DependencyLink, ...]
    #: inside, then environment, then peers: ``ResourceInstance.links()``.
    all_links: tuple[DependencyLink, ...]


def _evaluate_static_outputs(
    plan: TypePlan, explicit_config: dict[str, Any]
) -> dict[str, Any]:
    if not plan.static_configs and not plan.static_outputs:
        return {}
    static_config: dict[str, Any] = {}
    for config_port in plan.static_configs:
        value = explicit_config.get(
            config_port.name, config_port.default.evaluate(PortEnv())
        )
        static_config[config_port.name] = value
    env = PortEnv(inputs={}, configs=static_config)
    return {
        output_port.name: output_port.value.evaluate(env)
        for output_port in plan.static_outputs
    }


def _evaluate_configs(
    plan: TypePlan,
    inputs: dict[str, Any],
    explicit_config: dict[str, Any],
) -> dict[str, Any]:
    resource_type = plan.resource_type
    for name in explicit_config:
        if name not in plan.config_names:
            resource_type.config_port(name)  # raises on unknown names
    env = PortEnv(inputs=inputs)
    config: dict[str, Any] = {}
    for config_port in resource_type.config_ports:
        if config_port.name in explicit_config:
            config[config_port.name] = explicit_config[config_port.name]
        else:
            config[config_port.name] = config_port.default.evaluate(env)
    return config


def _evaluate_outputs(
    resource_type: ResourceType,
    inputs: dict[str, Any],
    config: dict[str, Any],
) -> dict[str, Any]:
    env = PortEnv(inputs=inputs, configs=config)
    return {
        output_port.name: output_port.value.evaluate(env)
        for output_port in resource_type.output_ports
    }


def _typecheck_values(
    resource_type: ResourceType,
    node_id: str,
    inputs: dict[str, Any],
    config: dict[str, Any],
    outputs: dict[str, Any],
) -> None:
    for port in resource_type.input_ports:
        if port.name not in inputs:
            raise ConfigurationError(
                f"{node_id}: input port {port.name!r} was never filled"
            )
        _check(node_id, port, inputs[port.name])
    for config_port in resource_type.config_ports:
        _check(node_id, config_port.port, config[config_port.name])
    for output_port in resource_type.output_ports:
        _check(node_id, output_port.port, outputs[output_port.name])


def _check(node_id: str, port, value: Any) -> None:
    if value is None:
        raise ConfigurationError(
            f"{node_id}: port {port.name!r} has no value (no default and "
            "no explicit assignment)"
        )
    if not port.type.accepts(value):
        raise PortTypeError(
            f"{node_id}: value {value!r} does not inhabit type "
            f"{port.type} of port {port.name!r}"
        )
