"""Incremental configuration sessions and partial-spec fingerprints."""

import pytest

from repro.config import (
    ConfigurationEngine,
    ConfigurationSession,
    canonical_form,
    fingerprint_partial,
)
from repro.core import PartialInstallSpec, PartialInstance, as_key
from repro.core.errors import UnsatisfiableError
from repro.dsl import full_to_json, load_resources
from repro.library import standard_registry

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


class TestFingerprint:
    def test_instance_order_is_irrelevant(self):
        a = figure2()
        b = PartialInstallSpec(reversed(list(figure2())))
        assert list(a.ids()) != list(b.ids())
        assert fingerprint_partial(a) == fingerprint_partial(b)

    def test_config_key_order_is_irrelevant(self):
        a = PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h", "os_user_name": "u"}),
        ])
        b = PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"os_user_name": "u", "hostname": "h"}),
        ])
        assert fingerprint_partial(a) == fingerprint_partial(b)

    def test_config_value_changes_hash(self):
        assert (fingerprint_partial(figure2("a"))
                != fingerprint_partial(figure2("b")))

    def test_pinned_key_changes_hash(self):
        a = figure2()
        b = PartialInstallSpec([
            PartialInstance("server", as_key("Mac-OSX 10.5"),
                            config={"hostname": "demotest"}),
            *list(figure2())[1:],
        ])
        assert fingerprint_partial(a) != fingerprint_partial(b)

    def test_instance_id_changes_hash(self):
        a = PartialInstallSpec([PartialInstance("s1", as_key("Redis 2.4"))])
        b = PartialInstallSpec([PartialInstance("s2", as_key("Redis 2.4"))])
        assert fingerprint_partial(a) != fingerprint_partial(b)

    def test_inside_link_changes_hash(self):
        a = PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("r", as_key("Redis 2.4"), inside_id="m"),
        ])
        b = PartialInstallSpec([
            PartialInstance("m", as_key("Mac-OSX 10.6"),
                            config={"hostname": "h"}),
            PartialInstance("r", as_key("Redis 2.4")),
        ])
        assert fingerprint_partial(a) != fingerprint_partial(b)

    @pytest.mark.parametrize("left,right", [
        (1, True), (1, 1.0), (1, "1"), (0, False), (0, None),
    ])
    def test_value_types_stay_distinct(self, left, right):
        a = PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"hostname": left}),
        ])
        b = PartialInstallSpec([
            PartialInstance("s", as_key("Mac-OSX 10.6"),
                            config={"hostname": right}),
        ])
        assert fingerprint_partial(a) != fingerprint_partial(b)

    def test_canonical_form_sorted_by_id(self):
        form = canonical_form(PartialInstallSpec(reversed(list(figure2()))))
        assert [entry[0] for entry in form] == ["openmrs", "server", "tomcat"]


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
        assert warm.cache.typecheck_skipped
        assert warm.cache.fingerprint == cold.cache.fingerprint
        assert warm.solver_stats.solve_calls == 2  # one persistent solver
        stats = session.stats
        assert stats.configure_calls == 2
        assert (stats.graph_hits, stats.graph_misses) == (1, 1)
        assert (stats.cnf_hits, stats.cnf_misses) == (1, 1)
        assert (stats.solver_builds, stats.solver_reuses) == (1, 1)
        assert (stats.typecheck_runs, stats.typecheck_skips) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_unchecked_calls_count_no_typecheck_run(self):
        session = ConfigurationSession(
            standard_registry(), check_types=False
        )
        session.configure(figure2())  # propagates, checks nothing
        session.configure(figure2())  # reuses the propagated instances
        stats = session.stats
        assert (stats.typecheck_runs, stats.typecheck_skips) == (0, 1)

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
        first.spec.replace_instance(second.spec["server"])
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

    def test_lru_eviction_bounds_the_cache(self):
        session = ConfigurationSession(standard_registry(), max_entries=1)
        session.configure(figure2("a"))
        session.configure(figure2("b"))
        assert len(session) == 1
        assert session.stats.evictions == 1
        # "a" was evicted: configuring it again is a miss.
        session.configure(figure2("a"))
        assert session.stats.graph_misses == 3

    def test_recently_used_entry_survives_eviction(self):
        session = ConfigurationSession(standard_registry(), max_entries=2)
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

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            ConfigurationSession(standard_registry(), max_entries=0)


class TestPartitionCacheKeys:
    """Partitioned and monolithic runs of the *same* partial spec cache
    under distinct keys: the encodings differ (per-component CNFs vs one
    global formula), so sharing an entry would replay the wrong one."""

    def test_mode_flip_creates_two_entries(self):
        session = ConfigurationSession(standard_registry())
        mono = session.configure(figure2())
        part = session.configure(figure2(), partition=True)
        assert len(session) == 2
        assert not part.cache.graph_hit
        assert not part.cache.cnf_hit
        assert full_to_json(part.spec) == full_to_json(mono.spec)
        assert mono.partition is None and mono.formula is not None
        assert part.partition is not None and part.formula is None

    def test_each_mode_warms_its_own_entry(self):
        session = ConfigurationSession(standard_registry())
        for _ in range(2):
            session.configure(figure2())
            session.configure(figure2(), partition=True)
        assert len(session) == 2
        warm_mono = session.configure(figure2())
        warm_part = session.configure(figure2(), partition=True)
        assert warm_mono.cache.cnf_hit and warm_mono.cache.solver_reused
        assert warm_part.cache.cnf_hit and warm_part.cache.solver_reused
        assert full_to_json(warm_mono.spec) == full_to_json(warm_part.spec)

    def test_mode_flip_does_not_evict_the_other_mode(self):
        session = ConfigurationSession(standard_registry(), max_entries=2)
        session.configure(figure2())
        session.configure(figure2(), partition=True)
        assert session.configure(figure2()).cache.cnf_hit
        assert session.configure(
            figure2(), partition=True
        ).cache.cnf_hit
