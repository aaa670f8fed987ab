"""Static checking of full installation specifications (S3.3).

"Engage's type system can check the installation specification to make
sure all required dependencies are present in the correct physical
context and that each instance is correctly configured."  The checks:

* every instance's type is registered and concrete;
* inside links satisfy the type's inside dependency (subtype match);
* every environment dependency is satisfied by a link to a compatible
  instance **on the same machine** (the physical-context check);
* every peer dependency is satisfied by a link to a compatible instance
  anywhere;
* every input port holds exactly the value of the linked provider's
  output port under the port mapping in force;
* all port values inhabit their declared types;
* the link structure is acyclic.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import TypecheckError
from repro.core.instances import InstallSpec, ResourceInstance
from repro.core.keys import ResourceKey
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import Dependency
from repro.core.wellformed import reverse_fillable_inputs
from repro.config.hypergraph import lower_alternatives


def check_spec(
    registry: ResourceTypeRegistry, spec: InstallSpec
) -> None:
    """Raise :class:`TypecheckError` listing every problem found."""
    problems = spec_problems(registry, spec)
    if problems:
        raise TypecheckError(
            "installation specification fails static checking:\n  "
            + "\n  ".join(problems)
        )


def spec_problems(
    registry: ResourceTypeRegistry, spec: InstallSpec
) -> list[str]:
    """Return a list of static-checking problems (empty when clean)."""
    problems: list[str] = []

    # Acyclicity first: downstream checks need a meaningful structure.
    try:
        spec.topological_order()
    except Exception as exc:  # CycleError or SpecError
        problems.append(str(exc))
        return problems

    for instance in spec:
        problems.extend(_check_instance(registry, spec, instance))
    return problems


def _check_instance(
    registry: ResourceTypeRegistry,
    spec: InstallSpec,
    instance: ResourceInstance,
) -> list[str]:
    problems: list[str] = []
    if not registry.has(instance.key):
        return [f"{instance.id}: unknown resource type {instance.key}"]
    resource_type = registry.effective(instance.key)
    if resource_type.abstract:
        return [f"{instance.id}: abstract type {instance.key} instantiated"]

    # Inside dependency.
    if resource_type.inside is not None:
        if instance.inside is None:
            problems.append(
                f"{instance.id}: missing inside link required by "
                f"{instance.key}"
            )
        else:
            problems.extend(
                _check_link_satisfies(
                    registry, spec, instance, instance.inside.target.id,
                    resource_type.inside, "inside",
                )
            )
    elif instance.inside is not None:
        problems.append(
            f"{instance.id}: machine type {instance.key} must not have an "
            "inside link"
        )

    # Environment dependencies: compatible target on the same machine.
    machine = spec.machine_of(instance.id)
    env_targets = [link.target.id for link in instance.environment]
    for dep in resource_type.environment:
        satisfied = False
        for target_id in env_targets:
            target = spec[target_id]
            if _link_matches(registry, target.key, dep):
                if spec.machine_of(target_id) != machine:
                    problems.append(
                        f"{instance.id}: environment dependency "
                        f"{dep} satisfied by {target_id} on a different "
                        f"machine ({spec.machine_of(target_id)} != {machine})"
                    )
                satisfied = True
                break
        if not satisfied:
            problems.append(
                f"{instance.id}: unsatisfied environment dependency {dep}"
            )

    # Peer dependencies: compatible target anywhere.
    peer_targets = [link.target.id for link in instance.peers]
    for dep in resource_type.peers:
        if not any(
            _link_matches(registry, spec[t].key, dep) for t in peer_targets
        ):
            problems.append(
                f"{instance.id}: unsatisfied peer dependency {dep}"
            )

    # Port-value flow: inputs equal provider outputs under the mappings.
    expected_inputs: dict[str, Any] = {}
    for link in instance.links():
        provider = spec[link.target.id]
        for output_name, input_name in link.port_mapping:
            if output_name not in provider.outputs:
                problems.append(
                    f"{instance.id}: link to {provider.id} maps missing "
                    f"output {output_name!r}"
                )
                continue
            expected_inputs[input_name] = provider.outputs[output_name]
    for name, expected in sorted(expected_inputs.items()):
        actual = instance.inputs.get(name)
        if actual != expected:
            problems.append(
                f"{instance.id}: input {name!r} holds {actual!r} but the "
                f"linked provider exports {expected!r}"
            )

    # Every declared input port is present and well-typed.
    for port in resource_type.input_ports:
        if port.name not in instance.inputs:
            if port.name in reverse_fillable_inputs(registry, instance.key):
                continue
            problems.append(
                f"{instance.id}: input port {port.name!r} has no value"
            )
            continue
        if not port.type.accepts(instance.inputs[port.name]):
            problems.append(
                f"{instance.id}: input {port.name!r} value "
                f"{instance.inputs[port.name]!r} does not inhabit "
                f"{port.type}"
            )
    for config_port in resource_type.config_ports:
        value = instance.config.get(config_port.name)
        if value is None or not config_port.port.type.accepts(value):
            problems.append(
                f"{instance.id}: config {config_port.name!r} value "
                f"{value!r} does not inhabit {config_port.port.type}"
            )
    for output_port in resource_type.output_ports:
        value = instance.outputs.get(output_port.name)
        if value is None or not output_port.port.type.accepts(value):
            problems.append(
                f"{instance.id}: output {output_port.name!r} value "
                f"{value!r} does not inhabit {output_port.port.type}"
            )
    return problems


def _check_link_satisfies(
    registry: ResourceTypeRegistry,
    spec: InstallSpec,
    instance: ResourceInstance,
    target_id: str,
    dep: Dependency,
    kind: str,
) -> list[str]:
    if target_id not in spec:
        return [f"{instance.id}: {kind} link to missing instance {target_id}"]
    target = spec[target_id]
    if not _link_matches(registry, target.key, dep):
        return [
            f"{instance.id}: {kind} link target {target.key} does not "
            f"satisfy {dep}"
        ]
    return []


def _link_matches(
    registry: ResourceTypeRegistry, key, dep: Dependency
) -> bool:
    return key in _accepted_keys(registry, dep)


def _accepted_keys(
    registry: ResourceTypeRegistry, dep: Dependency
) -> frozenset[ResourceKey]:
    """Every key a link may target to satisfy ``dep``: the subtypes of
    its lowered alternatives.

    Memoised per registry version by the dependency's identity, like
    :func:`lower_alternatives`, and for the same reason."""
    memo = registry.derived("accepted-keys", lambda _registry: {})
    hit = memo.get(id(dep))
    if hit is not None and hit[0] is dep:
        return hit[1]
    accepted = frozenset().union(
        *(registry.subtypes(alt.key) for alt in lower_alternatives(registry, dep))
    )
    memo[id(dep)] = (dep, accepted)
    return accepted
