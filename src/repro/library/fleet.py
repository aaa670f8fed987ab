"""Parameterized fleet topologies (the §6 scale experiments).

The paper evaluates configuration on single stacks; a deployment
manager in production faces *fleets* -- N replicas of a few canonical
stacks spread over M machines.  This module generates such partial
specifications from the standard library, at any size, without hand
writing thousands of JSON lines:

* each **machine** is a pinned OS instance (``host000``, ``host001``,
  ...) with a unique hostname/IP;
* each **replica** is one stack recipe (an OpenMRS clinic, a
  JasperReports analytics server, or a Django web application) pinned
  *inside* one machine, round-robin over both the stack list and the
  machine list;
* every replica pins its own stateful backends (MySQL, RabbitMQ) on
  its machine, so peer dependencies resolve machine-locally and the
  generated hypergraph splits into exactly one connected component per
  machine -- the workload :mod:`repro.config.partition` is built for;
* every listening service gets a replica-unique port from a disjoint
  per-service range, so replicas of the same stack can share a machine
  without colliding at deploy time.

The module doubles as a generator script::

    python -m repro.library.fleet --replicas 6 --machines 3 -o fleet.json

which is how ``examples/stacks/fleet.json`` is produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.instances import PartialInstallSpec, PartialInstance
from repro.core.keys import ResourceKey


#: Stack recipes: name -> builder(replica_index, host_id) -> instances.
_STACKS: dict[str, Callable[[int, str], list[PartialInstance]]] = {}


def _stack(name: str):
    def register(builder):
        _STACKS[name] = builder
        return builder
    return register


def _instance(
    id: str, key: str, inside: str, config: dict | None = None
) -> PartialInstance:
    return PartialInstance(
        id=id,
        key=ResourceKey.parse(key),
        inside_id=inside,
        config=dict(config or {}),
    )


@_stack("openmrs")
def _openmrs_replica(index: int, host: str) -> list[PartialInstance]:
    """An OpenMRS clinic: Tomcat + webapp + a dedicated MySQL.

    The Java environment dependency is left open, so the solver picks
    the runtime (exercising a generated exactly-one choice per replica).
    """
    tomcat = f"tomcat{index:03d}"
    return [
        _instance(tomcat, "Tomcat 6.0.18", host,
                  {"manager_port": 10000 + index}),
        _instance(f"openmrs{index:03d}", "OpenMRS 1.8", tomcat,
                  {"context_path": f"openmrs{index:03d}"}),
        _instance(f"db{index:03d}", "MySQL 5.1", host,
                  {"database_name": f"openmrs{index:03d}",
                   "port": 13306 + index}),
    ]


@_stack("jasper")
def _jasper_replica(index: int, host: str) -> list[PartialInstance]:
    """A JasperReports analytics server: Tomcat + reports + MySQL.

    Adds a second generated node family (the JDBC connector) on top of
    the Java runtime choice.
    """
    tomcat = f"tomcat{index:03d}"
    return [
        _instance(tomcat, "Tomcat 6.0.18", host,
                  {"manager_port": 10000 + index}),
        _instance(f"jasper{index:03d}", "JasperReports-Server 4.2", tomcat),
        _instance(f"db{index:03d}", "MySQL 5.1", host,
                  {"database_name": f"jasper{index:03d}",
                   "port": 13306 + index}),
    ]


@_stack("django")
def _django_replica(index: int, host: str) -> list[PartialInstance]:
    """A Django web application: Gunicorn + Celery + broker + cache.

    The Python runtime is generated (and shared by Gunicorn and Celery
    on the machine); the RabbitMQ broker is pinned so Celery's peer
    dependency resolves to this replica's machine.
    """
    return [
        _instance(f"web{index:03d}", "Gunicorn 0.13", host,
                  {"port": 8000 + index}),
        _instance(f"worker{index:03d}", "Celery 2.4", host),
        _instance(f"broker{index:03d}", "RabbitMQ 2.7", host,
                  {"vhost": f"/app{index:03d}",
                   "port": 25672 + index}),
        _instance(f"cache{index:03d}", "Redis 2.4", host,
                  {"port": 16379 + index}),
        _instance(f"monitor{index:03d}", "Monit 5.3", host,
                  {"port": 28120 + index}),
    ]


@dataclass(frozen=True)
class FleetTopology:
    """Shape of a generated fleet.

    ``replicas`` stacks are placed round-robin over ``machines`` hosts
    and over ``stacks`` recipes, so any sufficiently large fleet mixes
    every stack on every machine.
    """

    replicas: int = 6
    machines: int = 3
    stacks: tuple[str, ...] = ("openmrs", "jasper", "django")
    machine_key: str = "Ubuntu-Linux 10.4"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        if self.machines < 1:
            raise ValueError("a fleet needs at least one machine")
        unknown = [name for name in self.stacks if name not in _STACKS]
        if unknown or not self.stacks:
            raise ValueError(
                f"unknown stacks {unknown}; available: {sorted(_STACKS)}"
            )


def fleet_spec_entries(topology: FleetTopology) -> list[PartialInstance]:
    """The pinned instances of ``topology``, machines first."""
    entries: list[PartialInstance] = []
    hosts: list[str] = []
    for machine in range(topology.machines):
        host = f"host{machine:03d}"
        hosts.append(host)
        entries.append(
            PartialInstance(
                id=host,
                key=ResourceKey.parse(topology.machine_key),
                inside_id=None,
                config={
                    "hostname": f"fleet-{machine:03d}",
                    "ip_address": f"10.0.{machine // 250}.{machine % 250 + 1}",
                },
            )
        )
    for index in range(topology.replicas):
        host = hosts[index % topology.machines]
        stack = topology.stacks[index % len(topology.stacks)]
        entries.extend(_STACKS[stack](index, host))
    return entries


def fleet_partial(topology: FleetTopology) -> PartialInstallSpec:
    """The fleet as a partial installation specification."""
    spec = PartialInstallSpec()
    for entry in fleet_spec_entries(topology):
        spec.add(entry)
    return spec


def fleet_spec_json(topology: FleetTopology) -> str:
    """The fleet serialised in the Figure 2 JSON shape."""
    from repro.dsl.json_spec import partial_to_json

    return partial_to_json(fleet_partial(topology))


def write_fleet_spec(path: str, topology: FleetTopology) -> None:
    """Write the fleet spec JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fleet_spec_json(topology))


def configure_fleet(
    topology: FleetTopology,
    *,
    registry=None,
    partition: bool = True,
):
    """Generate and configure ``topology``; return ``(result, seconds)``.

    The scale-experiment entry point: builds the partial specification,
    runs it through a :class:`~repro.config.ConfigurationEngine`
    (partitioned by default), and reports the configure wall time.
    """
    import time

    from repro.config import ConfigurationEngine
    from repro.library import standard_registry

    if registry is None:
        registry = standard_registry()
    partial = fleet_partial(topology)
    engine = ConfigurationEngine(registry, partition=partition)
    started = time.perf_counter()
    result = engine.configure(partial)
    elapsed = time.perf_counter() - started
    return result, elapsed


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.library.fleet",
        description="Generate a fleet-scale partial installation spec.",
    )
    parser.add_argument("--replicas", type=int, default=6)
    parser.add_argument("--machines", type=int, default=3)
    parser.add_argument(
        "--stacks", nargs="+", default=list(FleetTopology.stacks),
        choices=sorted(_STACKS),
    )
    parser.add_argument("-o", "--output", default=None,
                        help="write here instead of stdout")
    parser.add_argument(
        "--configure", action="store_true",
        help="configure the generated fleet and print throughput "
        "instead of emitting the spec JSON",
    )
    parser.add_argument(
        "--no-partition", dest="partition", action="store_false",
        default=True,
        help="with --configure: force the monolithic pipeline",
    )
    args = parser.parse_args(argv)
    topology = FleetTopology(
        replicas=args.replicas, machines=args.machines,
        stacks=tuple(args.stacks),
    )
    if args.configure:
        result, elapsed = configure_fleet(
            topology, partition=args.partition
        )
        nodes = len(result.spec)
        label = (
            f"{result.partition.count} components"
            if result.partition is not None else "monolithic"
        )
        print(
            f"configured {nodes} nodes ({label}) in "
            f"{elapsed:.2f}s -- {nodes / elapsed:.0f} nodes/sec"
        )
        return 0
    if args.output:
        write_fleet_spec(args.output, topology)
    else:
        print(fleet_spec_json(topology), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
