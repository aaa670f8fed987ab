"""The Figure 2 JSON installation-spec format."""

import json

import pytest

from repro.core import as_key
from repro.core.errors import SpecError
from repro.config import ConfigurationEngine
from repro.dsl import (
    full_from_json,
    full_to_json,
    line_count,
    partial_from_json,
    partial_to_json,
)

FIGURE_2 = """
[
  { "id": "server", "key": "Mac-OSX 10.6",
    "config_port": { "hostname": "localhost", "os_user_name": "root" } },
  { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "server" } },
  { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } }
]
"""


class TestPartial:
    def test_parse_figure2(self):
        spec = partial_from_json(FIGURE_2)
        assert spec.ids() == ["server", "tomcat", "openmrs"]
        assert spec["server"].config["hostname"] == "localhost"
        assert spec["tomcat"].inside_id == "server"
        assert spec["openmrs"].key == as_key("OpenMRS 1.8")

    def test_roundtrip(self):
        spec = partial_from_json(FIGURE_2)
        again = partial_from_json(partial_to_json(spec))
        assert again.ids() == spec.ids()
        for iid in spec.ids():
            assert again[iid] == spec[iid]

    def test_malformed_json(self):
        with pytest.raises(SpecError):
            partial_from_json("{not json")

    def test_non_array(self):
        with pytest.raises(SpecError):
            partial_from_json('{"id": "x"}')

    def test_missing_key_field(self):
        with pytest.raises(SpecError):
            partial_from_json('[{"id": "x"}]')

    def test_malformed_inside(self):
        with pytest.raises(SpecError):
            partial_from_json('[{"id": "x", "key": "A 1", "inside": "y"}]')

    def test_figure2_parses_and_configures(self, registry):
        spec = partial_from_json(FIGURE_2)
        result = ConfigurationEngine(registry).configure(spec)
        assert "mysql" in result.deployed_ids


class TestFull:
    @pytest.fixture
    def full_spec(self, registry, openmrs_partial):
        return ConfigurationEngine(registry).configure(openmrs_partial).spec

    def test_roundtrip(self, full_spec):
        text = full_to_json(full_spec)
        again = full_from_json(text)
        assert again.ids() == full_spec.ids()
        for iid in full_spec.ids():
            assert again[iid] == full_spec[iid]

    def test_contains_port_values(self, full_spec):
        text = full_to_json(full_spec)
        assert '"manager_port": 8080' in text
        assert "http://demotest:8080/openmrs" in text

    def test_dangling_link_refused_at_load(self, full_spec):
        payload = json.loads(full_to_json(full_spec))
        holder = payload[-1]
        holder["peers"][0]["id"] = "ghost"
        with pytest.raises(SpecError) as excinfo:
            full_from_json(json.dumps(payload))
        assert str(excinfo.value) == (
            f"instance {holder['id']} links to missing instance ghost"
        )

    def test_roundtrip_still_typechecks(self, registry, full_spec):
        from repro.config import spec_problems

        again = full_from_json(full_to_json(full_spec))
        assert spec_problems(registry, again) == []


class TestLineCounts:
    def test_blank_lines_ignored(self):
        assert line_count("a\n\n  \nb\n") == 2

    def test_partial_much_smaller_than_full(self, registry, openmrs_partial):
        """The compaction the paper reports: the full spec is roughly an
        order of magnitude larger than the partial one."""
        result = ConfigurationEngine(registry).configure(openmrs_partial)
        partial_lines = line_count(partial_to_json(openmrs_partial))
        full_lines = line_count(full_to_json(result.spec))
        assert full_lines > 4 * partial_lines
