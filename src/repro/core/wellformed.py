"""Well-formedness of a set of resource types (S3.1).

A finite set of resource types is well-formed iff:

1. every key appearing in a dependency is mapped to a registered type
   (no pending dependencies);
2. a resource with no inside dependency (a machine) has no input ports;
3. each input port is mapped exactly once across the port mappings of the
   inside, environment, and peer dependencies, and each output port is
   assigned a value;
4. the ordering ``<=i  U  <=e  U  <=p`` on resource types is acyclic.

We additionally check the S3.4 static-binding refinements and that every
port reference inside a value expression resolves to a declared port of a
compatible space.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import UnknownKeyError, WellFormednessError
from repro.core.keys import ResourceKey
from repro.core.ports import (
    Binding,
    ListType,
    PortType,
    RecordType,
    ScalarKind,
    ScalarType,
)
from repro.core.registry import ResourceTypeRegistry
from repro.core.resource_type import Dependency, ResourceType
from repro.core.values import (
    Expr,
    Format,
    Lit,
    ListExpr,
    RecordExpr,
    Ref,
    Space,
)


def check_registry(registry: ResourceTypeRegistry) -> list[str]:
    """Return a list of well-formedness problems (empty when well-formed)."""
    problems: list[str] = []
    for key in registry.keys():
        resource_type = registry.effective(key)
        problems.extend(_check_type(registry, resource_type))
    problems.extend(_check_acyclic(registry))
    return problems


def collect_reverse_targets(
    registry: ResourceTypeRegistry,
) -> set[tuple[ResourceKey, str]]:
    """All (provider key, input port) pairs some dependent reverse-maps.

    Such inputs are filled *against* the dependency direction by a static
    output of a dependent (S3.4), so condition 3's "mapped exactly once"
    does not count them against the provider's own dependencies.

    Memoized per registry version; :func:`reverse_fillable_inputs`
    answers the per-key question from it.
    """
    return registry.derived("reverse_targets", _collect_reverse_targets)


def _collect_reverse_targets(
    registry: ResourceTypeRegistry,
) -> set[tuple[ResourceKey, str]]:
    targets: set[tuple[ResourceKey, str]] = set()
    for key in registry.keys():
        resource_type = registry.effective(key)
        for dep in resource_type.dependencies():
            for alt in dep.alternatives:
                for _, input_name in alt.reverse_mapping.entries:
                    targets.add((alt.key, input_name))
    return targets


def reverse_fillable_inputs(
    registry: ResourceTypeRegistry, key: ResourceKey
) -> frozenset[str]:
    """The inputs of ``key`` some dependent may reverse-fill: those a
    reverse mapping targets on ``key`` or on one of its supertypes.

    Derived per key, lazily, and memoised per registry version, so a
    check of one instance is a set lookup rather than a scan of every
    reverse target in the library."""
    memo = registry.derived("reverse-fillable-inputs", lambda _registry: {})
    hit = memo.get(key)
    if hit is None:
        hit = frozenset(
            name
            for target_key, name in collect_reverse_targets(registry)
            if registry.is_subtype(key, target_key)
        )
        memo[key] = hit
    return hit


def assert_well_formed(registry: ResourceTypeRegistry) -> None:
    """Raise :class:`WellFormednessError` listing every problem found.

    The verdict is memoized on the registry itself: once a registry
    version has verified clean, subsequent calls return immediately
    until the registry is mutated (callers that construct many engines
    or sessions against one registry pay the full check once).
    """
    if registry.verified_well_formed:
        return
    problems = check_registry(registry)
    if problems:
        raise WellFormednessError(
            "resource-type set is not well-formed:\n  "
            + "\n  ".join(problems)
        )
    registry.mark_well_formed()


def _check_type(
    registry: ResourceTypeRegistry, resource_type: ResourceType
) -> list[str]:
    problems: list[str] = []
    key = resource_type.key

    # Condition 1: dependency keys are registered.
    for dep in resource_type.dependencies():
        for alt in dep.alternatives:
            if not registry.has(alt.key):
                problems.append(f"{key}: {dep.kind.value} dependency on "
                                f"unregistered type {alt.key}")

    # Condition 2: machines have no input ports.
    if resource_type.is_machine() and resource_type.input_ports:
        problems.append(
            f"{key}: has no inside dependency (a machine) but declares "
            f"input ports {sorted(p.name for p in resource_type.input_ports)}"
        )

    # Condition 3: each input port mapped exactly once.
    mapped: dict[str, int] = {p.name: 0 for p in resource_type.input_ports}
    for dep in resource_type.dependencies():
        for name in dep.mapped_inputs():
            if name not in mapped:
                problems.append(
                    f"{key}: {dep.kind.value} dependency maps unknown "
                    f"input port {name!r}"
                )
            else:
                mapped[name] += 1
    if not resource_type.abstract:
        for name, count in sorted(mapped.items()):
            if count == 0:
                if name in reverse_fillable_inputs(registry, key):
                    continue  # filled by a dependent's static output
                problems.append(f"{key}: input port {name!r} is never mapped")
            elif count > 1:
                problems.append(
                    f"{key}: input port {name!r} is mapped {count} times"
                )
    else:
        for name, count in sorted(mapped.items()):
            if count > 1:
                problems.append(
                    f"{key}: input port {name!r} is mapped {count} times"
                )

    # Port-mapping targets must exist with compatible types.
    for dep in resource_type.dependencies():
        problems.extend(_check_mapping_targets(registry, resource_type, dep))

    # Expression-level type checking of defaults and output values.
    problems.extend(_check_expr_types(resource_type))

    # Expression references must resolve to declared ports.
    input_names = {p.name for p in resource_type.input_ports}
    config_names = {p.name for p in resource_type.config_ports}
    for config_port in resource_type.config_ports:
        for space, port in config_port.default.references():
            if space != Space.INPUT or port not in input_names:
                problems.append(
                    f"{key}: config port {config_port.name!r} default "
                    f"references unknown {space.value} port {port!r}"
                )
    static_configs = {
        p.name for p in resource_type.config_ports
        if p.port.binding == Binding.STATIC
    }
    for output_port in resource_type.output_ports:
        for space, port in output_port.value.references():
            known = input_names if space == Space.INPUT else config_names
            if port not in known:
                problems.append(
                    f"{key}: output port {output_port.name!r} references "
                    f"unknown {space.value} port {port!r}"
                )
        if output_port.port.binding == Binding.STATIC:
            # Static outputs: constant or function of static config ports.
            for space, port in output_port.value.references():
                if space != Space.CONFIG or port not in static_configs:
                    problems.append(
                        f"{key}: static output port {output_port.name!r} may "
                        f"only read static config ports, reads "
                        f"{space.value}.{port}"
                    )
    return problems


def check_expr_against_type(
    expr: Expr,
    expected: PortType,
    resource_type: ResourceType,
    where: str,
) -> list[str]:
    """Statically type-check a port-value expression (S3.1 refinement).

    Goes beyond the paper's formal model: constants must inhabit the
    declared type, record expressions must match the record's fields,
    and ``Ref`` field paths are resolved through the *declared* types of
    the referenced ports -- so a typo like ``input.db.prot`` is a
    well-formedness error, not a deployment-time crash.
    """
    key = resource_type.key
    problems: list[str] = []

    if isinstance(expr, Lit):
        if expr.value is None:
            return []  # "unset": must be overridden before deployment
        if not expected.accepts(expr.value):
            problems.append(
                f"{key}: {where}: constant {expr.value!r} does not "
                f"inhabit declared type {expected}"
            )
        return problems

    if isinstance(expr, Ref):
        resolved = _resolve_ref_type(expr, resource_type)
        if isinstance(resolved, str):  # an error message
            problems.append(f"{key}: {where}: {resolved}")
            return problems
        if resolved is not None and not resolved.is_subtype_of(expected):
            problems.append(
                f"{key}: {where}: {expr} has type {resolved}, which does "
                f"not fit declared type {expected}"
            )
        return problems

    if isinstance(expr, RecordExpr):
        if not isinstance(expected, RecordType):
            problems.append(
                f"{key}: {where}: record expression where {expected} "
                "is declared"
            )
            return problems
        declared = expected.field_map()
        given = dict(expr.fields)
        missing = sorted(set(declared) - set(given))
        extra = sorted(set(given) - set(declared))
        if missing:
            problems.append(
                f"{key}: {where}: record expression misses fields "
                f"{missing}"
            )
        if extra:
            problems.append(
                f"{key}: {where}: record expression has undeclared "
                f"fields {extra}"
            )
        for name in sorted(set(declared) & set(given)):
            problems.extend(
                check_expr_against_type(
                    given[name], declared[name], resource_type,
                    f"{where}.{name}",
                )
            )
        return problems

    if isinstance(expr, ListExpr):
        if not isinstance(expected, ListType):
            problems.append(
                f"{key}: {where}: list expression where {expected} is "
                "declared"
            )
            return problems
        for index, element in enumerate(expr.elements):
            problems.extend(
                check_expr_against_type(
                    element, expected.element, resource_type,
                    f"{where}[{index}]",
                )
            )
        return problems

    if isinstance(expr, Format):
        if not expected.accepts(""):
            problems.append(
                f"{key}: {where}: format(...) produces a string, which "
                f"does not inhabit declared type {expected}"
            )
        return problems

    return problems  # unknown expression node: nothing to check


def _resolve_ref_type(ref: Ref, resource_type: ResourceType):
    """The declared type a ``Ref`` resolves to, an error string, or
    ``None`` when the referenced port is undeclared (reported by the
    reference checks elsewhere)."""
    if ref.space == Space.INPUT:
        if not resource_type.has_input_port(ref.port):
            return None
        port_type: PortType = resource_type.input_port(ref.port).type
    else:
        try:
            port_type = resource_type.config_port(ref.port).port.type
        except Exception:
            return None
    for step in ref.path:
        if not isinstance(port_type, RecordType):
            return (
                f"{ref} drills into field {step!r} of non-record type "
                f"{port_type}"
            )
        fields = port_type.field_map()
        if step not in fields:
            return (
                f"{ref} references unknown field {step!r} (record has "
                f"{sorted(fields)})"
            )
        port_type = fields[step]
    return port_type


def _check_expr_types(resource_type: ResourceType) -> list[str]:
    problems: list[str] = []
    # Condition 3's second half: "each output port is assigned a value".
    # Abstract types may defer to subtypes; concrete ones may not.
    if not resource_type.abstract:
        for output_port in resource_type.output_ports:
            value = output_port.value
            if isinstance(value, Lit) and value.value is None:
                problems.append(
                    f"{resource_type.key}: output port "
                    f"{output_port.name!r} is never assigned a value"
                )
    for config_port in resource_type.config_ports:
        problems.extend(
            check_expr_against_type(
                config_port.default,
                config_port.port.type,
                resource_type,
                f"config port {config_port.name!r} default",
            )
        )
    for output_port in resource_type.output_ports:
        problems.extend(
            check_expr_against_type(
                output_port.value,
                output_port.port.type,
                resource_type,
                f"output port {output_port.name!r}",
            )
        )
    return problems


def _check_mapping_targets(
    registry: ResourceTypeRegistry,
    resource_type: ResourceType,
    dep: Dependency,
) -> list[str]:
    problems: list[str] = []
    key = resource_type.key
    for alt in dep.alternatives:
        if not registry.has(alt.key):
            continue  # already reported by condition 1
        provider = registry.effective(alt.key)
        provider_outputs = {p.name: p for p in provider.output_ports}
        for output_name, input_name in alt.port_mapping.entries:
            if output_name not in provider_outputs:
                problems.append(
                    f"{key}: mapping reads output {output_name!r} which "
                    f"{alt.key} does not declare"
                )
                continue
            if not resource_type.has_input_port(input_name):
                continue  # reported by condition 3
            output_type = provider_outputs[output_name].port.type
            input_type = resource_type.input_port(input_name).type
            if not output_type.is_subtype_of(input_type):
                problems.append(
                    f"{key}: output {alt.key}.{output_name} of type "
                    f"{output_type} does not fit input {input_name!r} of "
                    f"type {input_type}"
                )
        # Reverse mappings (static ports): my static outputs feed the
        # provider's inputs.
        my_outputs = {p.name: p for p in resource_type.output_ports}
        for output_name, input_name in alt.reverse_mapping.entries:
            mine = my_outputs.get(output_name)
            if mine is None:
                problems.append(
                    f"{key}: reverse mapping reads unknown output "
                    f"{output_name!r}"
                )
                continue
            if mine.port.binding != Binding.STATIC:
                problems.append(
                    f"{key}: reverse mapping requires static output port, "
                    f"but {output_name!r} is dynamic"
                )
            if not provider.has_input_port(input_name):
                problems.append(
                    f"{key}: reverse mapping targets unknown input "
                    f"{input_name!r} of {alt.key}"
                )
    return problems


def _check_acyclic(registry: ResourceTypeRegistry) -> list[str]:
    """Condition 4: the union of the three orderings is acyclic."""
    edges: dict[ResourceKey, set[ResourceKey]] = {}
    for key in registry.keys():
        resource_type = registry.effective(key)
        targets: set[ResourceKey] = set()
        for dep in resource_type.dependencies():
            targets.update(
                alt.key for alt in dep.alternatives if registry.has(alt.key)
            )
        edges[key] = targets

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {key: WHITE for key in edges}
    problems: list[str] = []

    def visit(node: ResourceKey, stack: list[ResourceKey]) -> None:
        color[node] = GRAY
        stack.append(node)
        for target in sorted(edges.get(node, ())):
            if color.get(target, BLACK) == GRAY:
                start = stack.index(target)
                cycle = " -> ".join(str(k) for k in stack[start:] + [target])
                problems.append(f"dependency cycle among resource types: {cycle}")
            elif color.get(target) == WHITE:
                visit(target, stack)
        stack.pop()
        color[node] = BLACK

    for key in sorted(edges):
        if color[key] == WHITE:
            visit(key, [])
    return problems
