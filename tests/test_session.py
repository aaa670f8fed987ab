"""Incremental configuration sessions and what they take for a spec seen."""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.config import ConfigurationEngine, ConfigurationSession
from repro.config.engine import (
    Answer,
    ComponentEntry,
    Slot,
    configure_component,
)
from repro.config.hypergraph import ResourceGraph, generate_graph
from repro.config.partition import whole_graph_component
from repro.config import session as session_module
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import EngageError, UnsatisfiableError
from repro.dsl import full_to_json, load_resources
from repro.library import standard_registry
from repro.library.fleet import (
    FleetTopology,
    fleet_partial,
    fleet_spec_entries,
)

from tests.test_propagation import dpll_deployed


def figure2(hostname="demotest"):
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": hostname}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("openmrs", as_key("OpenMRS 1.8"),
                        inside_id="tomcat"),
    ])


def conflict():
    return PartialInstallSpec([
        PartialInstance("server", as_key("Mac-OSX 10.6"),
                        config={"hostname": "h"}),
        PartialInstance("tomcat", as_key("Tomcat 6.0.18"),
                        inside_id="server"),
        PartialInstance("jdk_pin", as_key("JDK 1.6"), inside_id="server"),
        PartialInstance("jre_pin", as_key("JRE 1.6"), inside_id="server"),
    ])


def two_hosts(order):
    """Two Ubuntu machines with one Gunicorn each, listed in ``order``:
    GraphGen names the first machine's generated runtime
    ``python_runtime`` and the second's ``python_runtime_2``."""
    entries = {
        "host0": PartialInstance("host0", as_key("Ubuntu-Linux 10.4"),
                                 config={"hostname": "h0"}),
        "host1": PartialInstance("host1", as_key("Ubuntu-Linux 10.4"),
                                 config={"hostname": "h1"}),
        "web0": PartialInstance("web0", as_key("Gunicorn 0.13"),
                                inside_id="host0"),
        "web1": PartialInstance("web1", as_key("Gunicorn 0.13"),
                                inside_id="host1"),
    }
    return PartialInstallSpec(entries[name] for name in order)


def configured(configure, partial):
    """A configure call's result, or the text of the error it raised."""
    try:
        return configure(partial)
    except EngageError as error:
        return f"{type(error).__name__}: {error}"


def figure2_keyed(tomcat):
    return PartialInstallSpec([
        dataclasses.replace(instance, key=as_key(tomcat))
        if instance.id == "tomcat" else instance
        for instance in figure2()
    ])


def hosted(value):
    return PartialInstallSpec([
        PartialInstance("s", as_key("Mac-OSX 10.6"),
                        config={"hostname": value}),
    ])


def ported(value):
    """A Redis whose ``port`` is ``value``: only ``0`` and ``1`` (not
    ``True``, ``1.0``, ``"1"``, ``False`` or ``None``) inhabit it."""
    return PartialInstallSpec([
        PartialInstance("m", as_key("Ubuntu-Linux 10.4"),
                        config={"hostname": "h"}),
        PartialInstance("r", as_key("Redis 2.4"), inside_id="m",
                        config={"port": value}),
    ])


def redis_beside_gunicorn(redis_id):
    return PartialInstallSpec([
        PartialInstance("host0", as_key("Ubuntu-Linux 10.4"),
                        config={"hostname": "h0"}),
        PartialInstance("web0", as_key("Gunicorn 0.13"), inside_id="host0"),
        PartialInstance(redis_id, as_key("Redis 2.4"), inside_id="host0"),
    ])


#: Pairs of specs, and whether a session must take the second for the
#: first.  GraphGen is order-sensitive, so instance order counts; a
#: config port's key order does not; values keep their type; a version
#: counts by its parts, so ``6.00`` is ``6.0`` but ``6.0.18.0``, which
#: prints differently, is not ``6.0.18``.
PAIRS = {
    "instance order": (
        figure2, lambda: PartialInstallSpec(reversed(list(figure2()))),
        False,
    ),
    "reordered two hosts": (
        lambda: two_hosts(["host0", "host1", "web0", "web1"]),
        lambda: two_hosts(["host1", "host0", "web1", "web0"]),
        False,
    ),
    "config key order": (
        lambda: PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h", "os_user_name": "u"}),
        ]),
        lambda: PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"os_user_name": "u", "hostname": "h"}),
        ]),
        True,
    ),
    "config value": (lambda: figure2("a"), lambda: figure2("b"), False),
    "pinned key": (
        figure2,
        lambda: PartialInstallSpec([
            PartialInstance("server", as_key("Mac-OSX 10.5"),
                            config={"hostname": "demotest"}),
            *list(figure2())[1:],
        ]),
        False,
    ),
    "instance id": (
        lambda: PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("s1", as_key("Redis 2.4"), inside_id="m"),
        ]),
        lambda: PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("s2", as_key("Redis 2.4"), inside_id="m"),
        ]),
        False,
    ),
    "inside link": (
        lambda: PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("r", as_key("Redis 2.4"), inside_id="m"),
        ]),
        lambda: PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("r", as_key("Redis 2.4")),
        ]),
        False,
    ),
    "dangling inside": (
        lambda: hosted("h"),
        lambda: PartialInstallSpec([dataclasses.replace(
            *hosted("h"), inside_id="nosuch"
        )]),
        False,
    ),
    **{
        f"value {left!r} / {right!r}": (
            lambda left=left: ported(left),
            lambda right=right: ported(right),
            False,
        )
        for left, right in [
            (1, True), (1, 1.0), (1, "1"), (0, False), (0, None),
        ]
    },
    # Same keys, containers and id order, but the second spec pins the
    # id its generated runtime would take, so it is python_runtime_2.
    "generated slug taken": (
        lambda: redis_beside_gunicorn("p"),
        lambda: redis_beside_gunicorn("python_runtime"),
        False,
    ),
    "version 6.0.18 / 6.00.18": (
        lambda: figure2_keyed("Tomcat 6.0.18"),
        lambda: figure2_keyed("Tomcat 6.00.18"),
        True,
    ),
    "version 6.0.18 / 6.0.18.0": (
        lambda: figure2_keyed("Tomcat 6.0.18"),
        lambda: figure2_keyed("Tomcat 6.0.18.0"),
        False,
    ),
}


class TestSpecKey:
    """What a session takes for a spec it has seen: b, configured after
    a in one session, is the engine's answer for b, and hits the
    session (and is handed a's very instances) iff the pair is equal."""

    @pytest.mark.parametrize("partition", [False, True])
    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_second_spec_of_a_pair(self, pair, partition):
        first, second, equal = PAIRS[pair]
        registry = standard_registry()
        engine = ConfigurationEngine(registry, partition=partition)
        session = ConfigurationSession(registry, partition=partition)
        a = configured(session.configure, first())
        b = configured(session.configure, second())
        expected = configured(engine.configure, second())
        if isinstance(expected, str):
            assert b == expected
            assert not equal
            assert session.stats.graph_hits == 0
            return
        assert full_to_json(b.spec) == full_to_json(expected.spec)
        assert b.cache.graph_hit == equal
        assert b.cache.spec_reused == equal
        kept = set() if isinstance(a, str) else set(map(id, a.spec))
        shared = sum(id(instance) in kept for instance in b.spec)
        assert shared == (len(b.spec) if equal else 0)

    def test_a_version_prints_by_its_parts(self):
        registry = standard_registry()
        for version in ("6.00.18", "6.0.18.0"):
            spec = ConfigurationEngine(registry).configure(
                figure2_keyed(f"Tomcat {version}")
            ).spec
            assert str(spec["tomcat"].key) == (
                "Tomcat 6.0.18" if version == "6.00.18"
                else "Tomcat 6.0.18.0"
            )

    def test_reordered_hosts_name_their_runtimes_apart(self):
        # GraphGen is order-sensitive: whichever machine comes first
        # gets the runtime called python_runtime.
        engine = ConfigurationEngine(standard_registry(), partition=True)
        runtime_host = {
            name: engine.configure(two_hosts(order)).spec["python_runtime"]
            .inside.target.id
            for name, order in (
                ("a", ["host0", "host1", "web0", "web1"]),
                ("b", ["host1", "host0", "web1", "web0"]),
            )
        }
        assert runtime_host == {"a": "host0", "b": "host1"}


class TestSession:
    def test_results_match_engine_bit_for_bit(self):
        registry = standard_registry()
        engine = ConfigurationEngine(registry)
        session = ConfigurationSession(registry)
        for partial_fn in (figure2, lambda: figure2("other-host")):
            expected = engine.configure(partial_fn())
            for _ in range(2):  # cold, then warm
                got = session.configure(partial_fn())
                assert full_to_json(got.spec) == full_to_json(expected.spec)
                assert got.deployed_ids == expected.deployed_ids

    def test_warm_call_hits_every_cache(self):
        session = ConfigurationSession(standard_registry())
        cold = session.configure(figure2())
        assert cold.cache is not None
        assert not cold.cache.graph_hit
        assert not cold.cache.solver_reused
        warm = session.configure(figure2())
        assert warm.cache.graph_hit
        assert warm.cache.cnf_hit
        assert warm.cache.solver_reused
        assert warm.cache.spec_reused
        # One persistent solver, and a warm entry answers without it.
        assert warm.solver_stats.solve_calls == 1
        stats = session.stats
        assert stats.configure_calls == 2
        assert (stats.graph_hits, stats.graph_misses) == (1, 1)
        assert (stats.cnf_hits, stats.cnf_misses) == (1, 1)
        assert (stats.solver_builds, stats.solver_reuses) == (1, 1)
        assert (stats.typecheck_runs, stats.typecheck_skips) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_warm_timings_skip_cached_phases(self):
        session = ConfigurationSession(standard_registry())
        session.configure(figure2())
        warm = session.configure(figure2())
        assert warm.timings.graph_ms == 0.0
        assert warm.timings.encode_ms == 0.0
        assert warm.timings.total_ms > 0.0

    def test_warm_specs_are_independent_containers(self):
        session = ConfigurationSession(standard_registry())
        first = session.configure(figure2())
        second = session.configure(figure2())
        assert first.spec is not second.spec
        first.spec.add(
            dataclasses.replace(second.spec["server"], id="spare")
        )
        assert len(session.configure(figure2()).spec) == len(second.spec)

    def test_registry_mutation_flushes_caches(self):
        registry = standard_registry()
        session = ConfigurationSession(registry)
        session.configure(figure2())
        assert len(session) == 1
        load_resources(
            'resource "Fresh-Widget" 1.0 driver "null" {\n'
            '  inside "Server" { host -> host }\n'
            '  input host: { hostname: hostname, ip_address: string,\n'
            '                os_user_name: string }\n'
            "}\n",
            registry,
        )
        result = session.configure(figure2())
        assert not result.cache.graph_hit
        assert session.stats.invalidations == 1
        assert session.stats.graph_misses == 2

    def test_lru_eviction_bounds_the_cache(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_ENTRIES", 1)
        session = ConfigurationSession(standard_registry())
        session.configure(figure2("a"))
        session.configure(figure2("b"))
        assert len(session) == 1
        assert session.stats.evictions == 1
        # "a" was evicted: configuring it again is a miss.
        session.configure(figure2("a"))
        assert session.stats.graph_misses == 3

    def test_recently_used_entry_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(session_module, "MAX_ENTRIES", 2)
        session = ConfigurationSession(standard_registry())
        session.configure(figure2("a"))
        session.configure(figure2("b"))
        session.configure(figure2("a"))  # refresh "a"
        session.configure(figure2("c"))  # evicts "b", not "a"
        result = session.configure(figure2("a"))
        assert result.cache.graph_hit

    def test_unsat_raises_and_does_not_poison_the_session(self):
        session = ConfigurationSession(standard_registry())
        with pytest.raises(UnsatisfiableError):
            session.configure(conflict())
        result = session.configure(figure2())
        assert "openmrs" in result.spec
        with pytest.raises(UnsatisfiableError):
            session.configure(conflict())  # warm unsat still unsat

    def test_dpll_mode_matches_engine(self):
        registry = standard_registry()
        expected = dpll_deployed(
            ConfigurationEngine(registry).configure(figure2())
        )
        session = ConfigurationSession(registry)
        for _ in range(2):
            got = session.configure(figure2())
            assert dpll_deployed(got) == expected
            assert set(figure2().ids()) <= got.deployed_ids & expected


class TestOneEncoding:
    """A session states pinned instances exactly as the engine does, as
    unit clauses, so the two report the same formula sizes."""

    @pytest.mark.parametrize("partition", [False, True])
    def test_session_reports_the_engines_constraint_sizes(self, partition):
        registry = standard_registry()
        partial = fleet_partial(FleetTopology(replicas=6, machines=3))
        expected = ConfigurationEngine(
            registry, partition=partition
        ).configure(partial).constraint_stats
        session = ConfigurationSession(registry, partition=partition)
        cold = session.configure(partial)
        warm = session.configure(partial)
        assert warm.cache.graph_hit
        assert cold.constraint_stats == expected
        assert warm.constraint_stats == expected
        assert expected.clauses == 81

    def test_pinned_flag_splits_content(self):
        """A node's pinned flag changes the answer, so components that
        differ only in it must never share an entry (whose unit facts
        would answer the one with the other's pins).  A session keys a
        shape on its group's partial instances, so pinning a node is a
        new group shape."""
        registry = standard_registry()
        pinned = PartialInstallSpec([
            *figure2(),
            PartialInstance("jdk", as_key("JDK 1.6"), inside_id="server"),
        ])
        session = ConfigurationSession(registry)
        session.configure(figure2())
        got = session.configure(pinned)
        assert got.cache.groups_generated == 1
        assert full_to_json(got.spec) == full_to_json(
            ConfigurationEngine(registry).configure(pinned).spec
        )
        graph = generate_graph(registry, figure2())

        def copy(pinned):
            twin = ResourceGraph()
            for node in graph.nodes():
                twin.add_node(dataclasses.replace(
                    node,
                    from_partial=node.from_partial
                    or node.instance_id in pinned,
                ))
            for edge in graph.edges():
                twin.add_edge(edge)
            return whole_graph_component(twin)

        same, flipped = copy(()), copy({"jdk"})

        def deployed(component):
            nodes = component.graph.nodes()
            slot = Slot(0, ComponentEntry(component), component.node_ids,
                        Answer())
            return configure_component(registry, slot, lambda _index: (
                [node.key for node in nodes],
                [node.explicit_config for node in nodes],
            )).deployed

        chosen = [deployed(component) for component in (same, flipped)]
        assert "jre" in chosen[0] and "jdk" not in chosen[0]
        assert "jdk" in chosen[1] and "jre" not in chosen[1]


# --------------------------------------------------------------------
# Component reuse by content: a session that has seen spec N answers
# spec N+1 from the components whose content survived the edit.
# --------------------------------------------------------------------

def outcome(configure, partial):
    """What a configure call produced, comparable byte for byte."""
    try:
        return "ok", full_to_json(configure(partial).spec)
    except UnsatisfiableError as error:
        return "unsat", str(error)


class FleetEditor:
    """A small mixed fleet under seeded random edits.

    The fleet is a flat list of pinned entries; a *replica* is the group
    of entries sharing a three-digit suffix, cut from a one-machine
    template fleet and re-homed on whichever machine an edit picks.
    """

    def __init__(self, seed, machines=3, replicas=6, pool=40):
        self.rng = random.Random(seed)
        self.templates = {}
        for entry in fleet_spec_entries(
            FleetTopology(replicas=pool, machines=1)
        )[1:]:
            self.templates.setdefault(entry.id[-3:], []).append(entry)
        self.entries = fleet_spec_entries(
            FleetTopology(replicas=replicas, machines=machines)
        )
        self.next_machine = machines
        self.pinned_on = None

    # -- Views ----------------------------------------------------------

    def partial(self):
        return PartialInstallSpec(self.entries)

    def machines(self):
        return [e.id for e in self.entries if e.inside_id is None]

    def replicas(self):
        return sorted({
            e.id[-3:] for e in self.entries
            if e.inside_id is not None and e.id[-3:] in self.templates
        })

    def machine_of(self, entry):
        by_id = {e.id: e for e in self.entries}
        while entry.inside_id is not None:
            entry = by_id[entry.inside_id]
        return entry.id

    # -- Edits: each returns False when it does not apply ---------------

    def add_replica(self):
        free = sorted(set(self.templates) - set(self.replicas()))
        if not free:
            return False
        host = self.rng.choice(self.machines())
        self.entries.extend(
            dataclasses.replace(
                entry, config=dict(entry.config),
                inside_id=host if entry.inside_id == "host000"
                else entry.inside_id,
            )
            for entry in self.templates[self.rng.choice(free)]
        )
        return True

    def remove_replica(self):
        replicas = self.replicas()
        if len(replicas) <= 4:
            return False
        gone = self.rng.choice(replicas)
        self.entries = [
            e for e in self.entries
            if e.inside_id is None or e.id[-3:] != gone
        ]
        return True

    def change_port(self):
        ported = [e for e in self.entries if "port" in e.config]
        if not ported:
            return False
        entry = self.rng.choice(ported)
        entry.config["port"] += 1000
        return True

    def move_replica(self):
        machines = self.machines()
        if len(machines) < 2 or not self.replicas():
            return False
        moved = self.rng.choice(self.replicas())
        group = [
            e for e in self.entries
            if e.inside_id is not None and e.id[-3:] == moved
        ]
        old = self.machine_of(group[0])
        new = self.rng.choice([m for m in machines if m != old])
        self.entries = [
            dataclasses.replace(e, inside_id=new)
            if e in group and e.inside_id == old else e
            for e in self.entries
        ]
        return True

    def add_machine(self):
        if len(self.machines()) >= 6:
            return False
        index = self.next_machine
        self.next_machine += 1
        template = next(e for e in self.entries if e.inside_id is None)
        self.entries.insert(
            self.rng.randrange(len(self.entries) + 1),
            dataclasses.replace(
                template, id=f"host{index:03d}",
                config={"hostname": f"fleet-{index:03d}",
                        "ip_address": f"10.0.9.{index + 1}"},
            ),
        )
        return True

    def remove_machine(self):
        machines = self.machines()
        if len(machines) <= 2:
            return False
        gone = self.rng.choice(machines)
        kept = [e for e in self.entries if self.machine_of(e) != gone]
        if len(kept) < len(self.entries) // 2:
            return False  # keep the walk on a fleet, not on its ruins
        self.entries = kept
        return True

    def reorder(self):
        self.rng.shuffle(self.entries)
        return True

    def toggle_conflict(self):
        """Pin both a JDK and a JRE next to a Tomcat (it needs exactly
        one), or take the pins out again."""
        if self.pinned_on is not None:
            self.entries = [
                e for e in self.entries if e.id not in ("jdk_pin", "jre_pin")
            ]
            self.pinned_on = None
            return True
        tomcats = [e for e in self.entries if e.id.startswith("tomcat")]
        if not tomcats:
            return False
        self.pinned_on = self.machine_of(self.rng.choice(tomcats))
        self.entries += [
            PartialInstance("jdk_pin", as_key("JDK 1.6"),
                            inside_id=self.pinned_on),
            PartialInstance("jre_pin", as_key("JRE 1.6"),
                            inside_id=self.pinned_on),
        ]
        return True

    EDITS = (
        add_replica, remove_replica, change_port, move_replica,
        add_machine, remove_machine, reorder, toggle_conflict,
    )

    def step(self):
        """Apply one applicable edit; returns its name."""
        while True:
            # An open conflict is closed by the very next step, so most
            # of the walk runs on satisfiable specs.
            edit = (
                FleetEditor.toggle_conflict if self.pinned_on is not None
                else self.rng.choice(self.EDITS)
            )
            if edit(self):
                return edit.__name__


class TestEditSequenceDifferential:
    """ROADMAP 5c: the component-memoised session against the cold
    partitioned engine over a seeded sequence of spec edits."""

    STEPS = 60

    @pytest.mark.parametrize("partition", [True, False])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_session_matches_cold_engine_after_every_edit(
        self, seed, partition
    ):
        registry = standard_registry()
        engine = ConfigurationEngine(
            registry, partition=True
        )
        session = ConfigurationSession(
            registry, partition=partition
        )
        editor = FleetEditor(seed)
        seen, verdicts = set(), set()
        assert outcome(session.configure, editor.partial()) == outcome(
            engine.configure, editor.partial()
        )
        for step in range(self.STEPS):
            seen.add(editor.step())
            expected = outcome(engine.configure, editor.partial())
            got = outcome(session.configure, editor.partial())
            assert got == expected, f"seed {seed}, step {step}"
            verdicts.add(got[0])
        # The walk is only evidence if it went everywhere.
        assert seen == {edit.__name__ for edit in FleetEditor.EDITS}
        assert verdicts == {"ok", "unsat"}
        if partition:
            stats = session.stats
            assert 0 < stats.components_reused < stats.components_total


def django_fleet(replicas, machines=8):
    return fleet_partial(
        FleetTopology(
            replicas=replicas, machines=machines, stacks=("django",)
        )
    )


def hub_spec(port):
    """A django fleet whose only broker is host000's, with web003 on
    ``port``."""
    return PartialInstallSpec(
        dataclasses.replace(entry, config={"port": port})
        if entry.id == "web003" else entry
        for entry in fleet_spec_entries(
            FleetTopology(replicas=8, machines=4, stacks=("django",))
        )
        if not entry.id.startswith("broker") or entry.inside_id == "host000"
    )


class TestComponentReuse:
    """The counters a +k step must show, whatever the clock says: one
    component per machine, only the machines that gained a replica are
    propagated again, and only a shape no machine had before is
    generated, encoded and solved."""

    @pytest.mark.parametrize("added", [1, 3, 8])
    def test_step_builds_one_solver_per_changed_machine(self, added):
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        first = session.configure(django_fleet(64)).cache
        # Eight machines of eight replicas: one shape.
        assert (first.shapes, first.solvers_built, first.encodes) == (1, 1, 1)
        cache = session.configure(django_fleet(64 + added)).cache
        assert not cache.graph_hit
        # The machines that gained a replica share the one new shape, so
        # they build one solver between them.
        assert cache.solvers_built == cache.encodes == cache.solves == 1
        assert cache.solvers_reused == 8 - added
        assert cache.shapes == (1 if added == 8 else 2)
        assert cache.components_total == 8
        assert cache.components_reused == 8 - added

    @pytest.mark.parametrize("step", [1, 3, 8, -1, -3, -8])
    def test_step_generates_only_the_groups_it_changed(self, step):
        # Replicas go round-robin over the machines, so a step of k
        # changes the replica list of exactly k of the eight.
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        first = session.configure(django_fleet(64)).cache
        assert (first.groups_generated, first.groups_reused) == (1, 7)
        assert first.graph_runs == 1
        cache = session.configure(django_fleet(64 + step)).cache
        k = abs(step)
        # The k changed machines share one new shape, generated once.
        assert (cache.groups_generated, cache.groups_reused) == (1, 7)
        assert cache.graph_runs == 1
        assert cache.components_reused == 8 - k
        stats = session.stats
        assert (stats.groups_generated, stats.groups_reused) == (2, 14)
        assert stats.graph_runs == 2

    def test_hub_spec_takes_the_global_path(self):
        # Every Celery peers to the one broker on host000, so no other
        # machine's group can be answered on its own machine: the spec
        # is one degenerate group, whose held shape answers the second
        # call.
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        for port, reused in ((8000, 0), (9000, 1)):
            result = session.configure(hub_spec(port))
            assert result.cache.groups_reused == reused
            assert result.partition.count == 1
        assert session.stats.groups_reused == 1

    def test_hub_reconfigure_runs_no_graphgen(self):
        # The first call generates host000's group, host001's (which
        # escapes) and the degenerate group; a changed port reuses all
        # three: the escape's verdict declines at once.
        registry = standard_registry()
        session = ConfigurationSession(registry, partition=True)
        first = session.configure(hub_spec(8000)).cache
        assert (first.graph_runs, first.encodes) == (3, 1)
        result = session.configure(hub_spec(9000))
        assert not result.cache.graph_hit
        assert (result.cache.graph_runs, result.cache.encodes) == (0, 0)
        expected = ConfigurationEngine(registry, partition=True).configure(
            hub_spec(9000)
        )
        assert full_to_json(result.spec) == full_to_json(expected.spec)
        # The graph is this spec's, though its shape was another's.
        assert [str(node) for node in result.graph.nodes()] == [
            str(node) for node in expected.graph.nodes()
        ]
        assert result.graph.node("web003").explicit_config == {"port": 9000}

    def test_walk_reuses_what_any_cached_spec_holds(self):
        registry = standard_registry()
        session = ConfigurationSession(
            registry, partition=True
        )
        walk = [
            session.configure(django_fleet(replicas)).cache
            for replicas in (64, 65, 67, 72, 69)
        ]
        # 72 -> 69 returns three machines to nine replicas, which the
        # 67- and 72-replica specs still hold: nothing is rebuilt.
        # Eight and nine replicas per machine are the only shapes.
        assert [cache.solvers_built for cache in walk] == [1, 1, 0, 0, 0]
        assert [cache.components_reused for cache in walk] == [0, 7, 6, 3, 8]
        last = walk[-1]
        assert not last.graph_hit  # a spec never seen ...
        assert last.spec_reused  # ... made of kept components
        stats = session.stats
        assert (stats.components_reused, stats.components_total) == (24, 40)
        assert (stats.solver_builds, stats.solver_reuses) == (2, 31)
        assert (stats.group_shapes, stats.encodings) == (2, 2)
        expected = ConfigurationEngine(
            registry, partition=True
        ).configure(django_fleet(69))
        assert full_to_json(
            session.configure(django_fleet(69)).spec
        ) == full_to_json(expected.spec)

    @pytest.mark.parametrize("max_entries", [1, 1024])
    def test_walk_does_not_depend_on_collector_timing(
        self, max_entries, monkeypatch
    ):
        # configure runs with the collector paused, so an evicted entry
        # must die by reference counting: one kept alive by a cycle
        # until some later collection would be reused or not depending
        # on when that collection ran.
        monkeypatch.setattr(session_module, "MAX_ENTRIES", max_entries)

        def walk():
            session = ConfigurationSession(
                standard_registry(), partition=True
            )
            counts = []
            for replicas in (64, 65, 67, 72, 69):
                if gc.isenabled():
                    gc.collect()
                cache = session.configure(django_fleet(replicas)).cache
                counts.append((cache.solvers_built, cache.components_reused))
            return counts

        gc.disable()
        try:
            paused = walk()
        finally:
            gc.enable()
        assert paused == walk()
        if max_entries > 1:
            assert paused == [(1, 0), (1, 7), (0, 6), (0, 3), (0, 8)]

    def test_graph_hit_resolves_no_components(self):
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        session.configure(django_fleet(8))
        cache = session.configure(django_fleet(8)).cache
        assert cache.graph_hit
        assert (cache.components_reused, cache.components_total) == (0, 0)
        assert session.stats.components_total == 8

    def test_component_stats_are_the_calling_specs_own(self):
        # A bare machine listed first generates nothing, so every other
        # component keeps its content but moves up one index; a shared
        # entry must report the index it has in the spec configured.
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        fleet = fleet_spec_entries(
            FleetTopology(replicas=8, machines=4, stacks=("django",))
        )
        spare = dataclasses.replace(
            fleet[0], id="spare", config={"hostname": "spare"}
        )
        first = session.configure(PartialInstallSpec(fleet))
        shifted = session.configure(PartialInstallSpec([spare] + fleet))
        assert shifted.cache.components_reused == 4
        # ... and hands both specs the very same instances.
        assert shifted.spec["cache001"] is first.spec["cache001"]
        again = session.configure(PartialInstallSpec(fleet))
        assert again.cache.graph_hit
        for result, count in ((shifted, 5), (again, 4)):
            assert [
                component.index for component in result.partition.components
            ] == list(range(count))

    def test_kept_entries_die_with_the_spec_that_owned_them(
        self, monkeypatch
    ):
        monkeypatch.setattr(session_module, "MAX_ENTRIES", 1)
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        session.configure(django_fleet(64))
        (owner,) = session._memo.entries.values()
        grown, untouched = (
            weakref.ref(owner.answers[0]), weakref.ref(owner.answers[1])
        )
        shape = weakref.ref(owner.groups[0])
        del owner
        # 65 replicas evicts the 64-replica spec but lists seven of its
        # components: those live on, host000's old content does not.
        session.configure(django_fleet(65))
        gc.collect()
        assert len(session) == 1
        assert grown() is None
        assert untouched() is not None
        assert shape() is not None
        session.configure(figure2())  # shares nothing
        gc.collect()
        assert untouched() is None
        assert shape() is None
        assert session.configure(django_fleet(65)).cache.solvers_built == 2

    def test_registry_mutation_drops_kept_components(self):
        registry = standard_registry()
        session = ConfigurationSession(registry, partition=True)
        session.configure(django_fleet(64))
        (owner,) = session._memo.entries.values()
        kept = weakref.ref(owner.answers[0])
        del owner
        load_resources(
            'resource "Fresh-Widget" 1.0 driver "null" {\n'
            '  inside "Server" { host -> host }\n'
            '  input host: { hostname: hostname, ip_address: string,\n'
            '                os_user_name: string }\n'
            "}\n",
            registry,
        )
        cache = session.configure(django_fleet(65)).cache
        gc.collect()
        assert kept() is None
        assert (cache.solvers_built, cache.components_reused) == (2, 0)

    def test_flush_drops_kept_components(self):
        session = ConfigurationSession(
            standard_registry(), partition=True
        )
        session.configure(django_fleet(64))
        session.flush()
        assert session.configure(django_fleet(65)).cache.solvers_built == 2
