"""The engage-sim CLI."""

import io
import json
import pathlib
import re

import pytest

from repro.cli import main

FIGURE_2 = json.dumps(
    [
        {"id": "server", "key": "Mac-OSX 10.6",
         "config_port": {"hostname": "demotest"}},
        {"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "server"}},
        {"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}},
    ]
)

CONFLICT = json.dumps(
    [
        {"id": "server", "key": "Mac-OSX 10.6",
         "config_port": {"hostname": "h"}},
        {"id": "tomcat", "key": "Tomcat 6.0.18", "inside": {"id": "server"}},
        {"id": "jdk_pin", "key": "JDK 1.6", "inside": {"id": "server"}},
        {"id": "jre_pin", "key": "JRE 1.6", "inside": {"id": "server"}},
    ]
)

CUSTOM_DSL = """
resource "MiniCache" 1.0 driver "service" {
  inside "Server" { host -> host }
  input host: { hostname: hostname, ip_address: string,
                os_user_name: string }
  config port: tcp_port = 7070
  output kv: { host: hostname, port: tcp_port } =
    { host = input.host.hostname, port = config.port }
}
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(FIGURE_2)
    return str(path)


class TestCheck:
    def test_stdlib_is_well_formed(self):
        code, output = run(["check"])
        assert code == 0
        assert "well-formed" in output

    def test_custom_types_loaded(self, tmp_path):
        dsl = tmp_path / "cache.engage"
        dsl.write_text(CUSTOM_DSL)
        code, output = run(["check", "--types", str(dsl)])
        assert code == 0

    def test_broken_types_reported(self, tmp_path):
        dsl = tmp_path / "bad.engage"
        dsl.write_text(
            'resource "Broken" 1.0 { inside "Nowhere" 9.9 }'
        )
        code, output = run(["check", "--types", str(dsl)])
        assert code == 1
        assert "unregistered" in output

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        dsl = tmp_path / "syntax.engage"
        dsl.write_text("resource without quotes {")
        code, output = run(["check", "--types", str(dsl)])
        assert code == 2
        assert "error:" in output


class TestConfigure:
    def test_writes_full_spec(self, spec_file, tmp_path):
        out_file = tmp_path / "full.json"
        code, output = run(
            ["configure", spec_file, "-o", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        ids = {entry["id"] for entry in data}
        assert {"server", "tomcat", "openmrs", "mysql"} <= ids

    def test_stdout_output(self, spec_file):
        code, output = run(["configure", spec_file])
        assert code == 0
        assert '"openmrs"' in output

    def test_missing_file(self):
        code, output = run(["configure", "/nonexistent.json"])
        assert code == 2
        assert "error:" in output

    def test_session_repeats_report_cache_hits(self, spec_file):
        code, output = run(
            ["configure", "--session", "--repeat", "3", spec_file]
        )
        assert code == 0
        lines = output.strip().splitlines()
        assert len(lines) == 4  # 3 per-call lines + summary
        assert "(cold)" in lines[0]
        for warm_line in lines[1:3]:
            assert "graph-hit" in warm_line
            assert "solver-reused" in warm_line
            assert "spec-reused" in warm_line
        assert "session: 3 calls, 2 graph hits / 1 misses" in lines[3]
        assert "2 solver reuses" in lines[3]

    def test_session_multiple_specs(self, spec_file, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(FIGURE_2)
        code, output = run(
            ["configure", "--session", spec_file, str(other)]
        )
        assert code == 0
        # The same spec under a different file name: the session holds
        # it, so the second call is warm.
        assert "graph-hit" in output.strip().splitlines()[1]

    def test_session_output_with_single_spec(self, spec_file, tmp_path):
        out_file = tmp_path / "full.json"
        code, output = run(
            ["configure", "--session", "--repeat", "2",
             spec_file, "-o", str(out_file)]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert {"server", "tomcat", "openmrs"} <= {e["id"] for e in data}

    def test_output_refused_for_multiple_specs(self, spec_file, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(FIGURE_2)
        code, output = run(
            ["configure", "--session", spec_file, str(other), "-o", "x.json"]
        )
        assert code == 2
        assert "error:" in output

    def test_multiple_specs_require_session(self, spec_file):
        code, output = run(["configure", spec_file, spec_file])
        assert code == 2
        assert "--session" in output


class TestStatsJson:
    @pytest.fixture
    def fleet_file(self, tmp_path):
        from repro.library.fleet import FleetTopology, fleet_spec_json

        path = tmp_path / "fleet.json"
        path.write_text(
            fleet_spec_json(FleetTopology(replicas=6, machines=3)),
            encoding="utf-8",
        )
        return str(path)

    def test_stats_json_engine(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, _ = run([
            "configure", fleet_file, "--partition",
            "--stats-json", str(stats), "-o", str(tmp_path / "full.json"),
        ])
        assert code == 0
        (stats_run,) = json.loads(stats.read_text())["runs"]
        assert stats_run["instances"] > 0
        assert set(stats_run["timings"]) == {
            "graph_ms", "partition_ms", "encode_ms", "solve_ms",
            "propagate_ms",
        }
        assert stats_run["cache"] is None
        partition = stats_run["partition"]
        assert set(partition) == {
            "count", "largest", "partition_ms", "components",
        }
        assert partition["count"] == len(partition["components"]) == 3
        for index, component in enumerate(partition["components"]):
            assert component["index"] == index
            assert set(component) == {
                "index", "nodes", "edges", "pinned", "encode_ms",
                "solve_ms", "propagate_ms", "decisions", "conflicts",
            }

    def test_stats_json_session_repeat(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, text = run([
            "configure", fleet_file, "--session", "--repeat", "2",
            "--partition", "--stats-json", str(stats),
        ])
        assert code == 0
        assert "3 components" in text
        runs = json.loads(stats.read_text())["runs"]
        assert len(runs) == 2
        assert not runs[0]["cache"]["graph_hit"]
        assert runs[0]["cache"]["solvers_built"] == 3
        assert runs[1]["cache"]["graph_hit"]
        assert runs[1]["cache"]["solver_reused"]
        assert runs[1]["cache"]["solvers_reused"] == 3

    def test_session_reports_components_reused(self, tmp_path):
        from repro.library.fleet import FleetTopology, fleet_spec_json

        paths = []
        for replicas in (6, 7):
            path = tmp_path / f"fleet{replicas}.json"
            path.write_text(fleet_spec_json(FleetTopology(
                replicas=replicas, machines=3, stacks=("django",)
            )))
            paths.append(str(path))
        stats = tmp_path / "stats.json"
        code, text = run([
            "configure", *paths, "--session", "--repeat", "2",
            "--partition", "--stats-json", str(stats),
        ])
        assert code == 0
        lines = text.strip().splitlines()
        assert "(cold, 3 components (0 reused))" in lines[0]
        # One replica more touches one machine; the other two are kept.
        assert "solver-reused, 3 components (2 reused))" in lines[1]
        for warm_line in lines[2:4]:
            assert "graph-hit" in warm_line
            assert warm_line.endswith("3 components)")
        assert "2 of 6 components reused on graph misses" in lines[4]
        runs = json.loads(stats.read_text())["runs"]
        assert [
            (r["cache"]["components_reused"], r["cache"]["components_total"])
            for r in runs
        ] == [(0, 3), (2, 3), (0, 0), (0, 0)]

    def test_stats_json_without_partition(self, fleet_file, tmp_path):
        stats = tmp_path / "stats.json"
        code, _ = run([
            "configure", fleet_file,
            "--stats-json", str(stats), "-o", str(tmp_path / "full.json"),
        ])
        assert code == 0
        (stats_run,) = json.loads(stats.read_text())["runs"]
        assert stats_run["partition"] is None
        assert stats_run["constraint_stats"]["clauses"] > 0


class TestGraph:
    def test_figure5(self, spec_file):
        code, output = run(["graph", spec_file])
        assert code == 0
        assert "6 instance nodes" in output
        assert "jdk" in output and "jre" in output
        assert "environment" in output


class TestExplain:
    def test_satisfiable(self, spec_file):
        code, output = run(["explain", spec_file])
        assert code == 0
        assert "satisfiable" in output

    def test_conflict(self, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT)
        code, output = run(["explain", str(path)])
        assert code == 1
        assert "cannot be deployed together" in output


class TestRender:
    def test_stdlib_round_trips_through_render(self, tmp_path):
        code, output = run(["render"])
        assert code == 0
        assert 'abstract resource "Server"' in output
        # The rendered text is valid DSL: load it into a fresh registry.
        from repro.core import ResourceTypeRegistry
        from repro.dsl import load_resources

        registry = ResourceTypeRegistry()
        types = load_resources(output, registry)
        assert len(types) > 25

    def test_render_custom_only(self, tmp_path):
        dsl = tmp_path / "cache.engage"
        dsl.write_text(CUSTOM_DSL)
        code, output = run(["render", "--types", str(dsl)])
        assert code == 0
        assert "MiniCache" in output


class TestDimacs:
    def test_emits_valid_dimacs(self, spec_file):
        code, output = run(["dimacs", spec_file])
        assert code == 0
        assert "p cnf" in output
        from repro.sat import CdclSolver, parse_dimacs

        cnf_text = "\n".join(
            line for line in output.splitlines()
            if not line.startswith("c ") or line.startswith("c var")
        )
        formula = parse_dimacs(cnf_text)
        assert CdclSolver(formula).solve()

    def test_summary_comment(self, spec_file):
        code, output = run(["dimacs", spec_file])
        assert "hyperedges" in output


class TestDeploy:
    def test_full_deploy(self, spec_file):
        code, output = run(["deploy", spec_file])
        assert code == 0
        assert "active" in output
        assert "simulated time" in output

    def test_deploy_with_custom_type(self, tmp_path):
        dsl = tmp_path / "cache.engage"
        dsl.write_text(CUSTOM_DSL)
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                [
                    {"id": "box", "key": "Ubuntu-Linux 10.04",
                     "config_port": {"hostname": "box1"}},
                    {"id": "cache", "key": "MiniCache 1.0",
                     "inside": {"id": "box"}},
                ]
            )
        )
        code, output = run(
            ["deploy", "--types", str(dsl), str(spec)]
        )
        assert code == 0
        assert "cache" in output

    def test_unsat_deploy_reports_error(self, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT)
        code, output = run(["deploy", str(path)])
        assert code == 2
        assert "cannot be deployed together" in output

    @pytest.mark.parametrize(
        "flags, refusal",
        [(["--jobs", "-1"], "--jobs must be >= 0, got -1"),
         (["--jobs", "2", "--jobs-per-host", "-2"],
          "--jobs-per-host must be >= 0, got -2")],
        ids=["jobs", "jobs-per-host"],
    )
    def test_negative_worker_bound_is_refused(self, spec_file, flags, refusal):
        """Not a silent "unbounded": an error naming the flag and the
        value, exit 2, before the spec is configured."""
        code, output = run(["deploy", spec_file, *flags])
        assert code == 2
        assert output == f"error: {refusal}\n"

    def test_default_is_one_worker_and_prints_no_parallel_line(
        self, spec_file
    ):
        code, output = run(["deploy", spec_file])
        assert code == 0
        assert "parallel deploy" not in output
        code, output = run(["deploy", spec_file, "--jobs", "0"])
        assert "parallel deploy (jobs=unbounded)" in output


TWO_NODE = json.dumps(
    [
        {"id": "appnode", "key": "Ubuntu-Linux 10.04",
         "config_port": {"hostname": "app1"}},
        {"id": "dbnode", "key": "Ubuntu-Linux 10.04",
         "config_port": {"hostname": "db1"}},
        {"id": "tomcat", "key": "Tomcat 6.0.18",
         "inside": {"id": "appnode"}},
        {"id": "openmrs", "key": "OpenMRS 1.8", "inside": {"id": "tomcat"}},
        {"id": "db", "key": "MySQL 5.1", "inside": {"id": "dbnode"}},
    ]
)


@pytest.fixture
def two_node_file(tmp_path):
    path = tmp_path / "two_node.json"
    path.write_text(TWO_NODE)
    return str(path)


class TestBusDeploy:
    def test_bus_deploy(self, two_node_file):
        code, output = run(["deploy", two_node_file, "--bus"])
        assert code == 0
        assert "bus:" in output
        assert "masters: master" in output
        assert output.count("active") == 6

    def test_bus_deploy_prints_the_loop_counters(self, two_node_file):
        code, output = run(["deploy", two_node_file, "--bus"])
        assert code == 0
        assert re.search(
            r"0 rejoin\(s\), \d+ instants, \d+ node steps, masters:", output
        )

    def test_bus_failover(self, two_node_file):
        code, output = run(
            ["deploy", two_node_file, "--bus", "--failover-at", "30"]
        )
        assert code == 0
        assert "masters: master, master-2" in output
        assert "failover: master-2 adopted at 30.0s" in output

    def test_bus_partition(self, two_node_file):
        code, output = run(
            ["deploy", two_node_file, "--bus",
             "--partition-at", "2", "--partition-for", "120"]
        )
        assert code == 0
        assert "partition: at 2.0s for 120.0s" in output
        assert "lost to partitions" in output

    def test_bus_crash_slave(self, two_node_file):
        code, output = run(
            ["deploy", two_node_file, "--bus",
             "--crash-slave", "dbnode", "--crash-after", "2",
             "--rejoin-after", "40"]
        )
        assert code == 0
        assert "1 crash(es)" in output
        assert output.count("active") == 6

    def test_bus_chaos_links(self, two_node_file):
        code, output = run(
            ["deploy", two_node_file, "--bus", "--bus-seed", "7",
             "--bus-drop", "0.1", "--bus-dup", "0.1",
             "--bus-jitter", "1.0"]
        )
        assert code == 0
        assert output.count("active") == 6

    def test_bus_slave_failure_reports_the_frontier(self, two_node_file):
        """A nacked work item prints like any other failed deploy: what
        completed (siblings included), what failed, what was skipped."""
        code, output = run(
            ["deploy", two_node_file, "--bus",
             "--chaos-rate", "1.0", "--chaos-seed", "3"]
        )
        assert code == 1
        assert "deployment FAILED: slave 'dbnode' failed in wave 0" in output
        assert "  failed:    ['dbnode']" in output
        # The partitions are the fleet's: the never-started appnode's
        # instances are skipped too, not missing from the account.
        assert (
            "  skipped:   ['appnode', 'db', 'jre', 'openmrs', 'tomcat']"
            in output
        )

    def test_bus_save_round_trips_through_status(
        self, two_node_file, tmp_path
    ):
        bundle = tmp_path / "bundle.json"
        code, output = run(
            ["deploy", two_node_file, "--bus", "--save", str(bundle)]
        )
        assert code == 0
        assert "bundle saved" in output
        code, output = run(["status", str(bundle)])
        assert code == 0
        assert "6 instances on 2 machine(s)" in output

    def test_bus_deadline_is_an_error_and_the_trace_is_still_written(
        self, two_node_file, tmp_path
    ):
        """A control plane that gives up is not a deployment failure
        (nothing to resume from): the shared error path, exit 2 -- with
        the trace of the run that did not converge."""
        trace = tmp_path / "trace.json"
        code, output = run(
            ["deploy", two_node_file, "--bus", "--partition-at", "2",
             "--partition-for", "1e9", "--trace", str(trace)]
        )
        assert code == 2
        assert "error: bus deployment did not converge" in output
        assert trace.exists() and "trace written to" in output

    @pytest.mark.parametrize("bus", [[], ["--bus"]], ids=["direct", "bus"])
    def test_failed_deploy_saves_a_bundle_that_resumes(
        self, tmp_path, bus
    ):
        """One failure path for every mode: a failed ``deploy --bus
        --save`` used to write no bundle at all."""
        two_node = str(
            pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "stacks" / "two_node.json"
        )
        bundle = str(tmp_path / "bundle.json")
        code, output = run(
            ["deploy", two_node, *bus, "--chaos-rate", "0.5",
             "--chaos-seed", "3", "--save", bundle]
        )
        assert code == 1
        assert f"resumable bundle saved to {bundle}" in output
        code, output = run(["deploy", "--resume", bundle])
        assert code == 0, output
        assert output.count("active") == 6
        code, output = run(["status", "--json", bundle])
        assert code == 0
        assert json.loads(output)["converged"] is True

    def test_bus_bundle_takes_day_two_commands(
        self, two_node_file, tmp_path
    ):
        """What ``deploy --bus --save`` writes is an ordinary bundle."""
        bundle = str(tmp_path / "bundle.json")
        assert run(["deploy", two_node_file, "--bus", "--save", bundle])[0] == 0
        code, output = run(["reconcile", bundle])
        assert code == 0, output
        code, output = run(["deploy", two_node_file, "--delta", bundle])
        assert code == 0 and "nothing to do" in output
        assert run(["status", "--json", bundle])[0] == 0

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--bus-drop", "0.5", "--crash-slave", "appnode"], "--bus-drop"),
            (["--bus-dup", "0.1"], "--bus-dup"),
            (["--bus-jitter", "1"], "--bus-jitter"),
            (["--bus-seed", "7"], "--bus-seed"),
            (["--partition-at", "2"], "--partition-at"),
            (["--partition-for", "9"], "--partition-for"),
            (["--failover-at", "30"], "--failover-at"),
            (["--crash-slave", "appnode"], "--crash-slave"),
            (["--crash-after", "2"], "--crash-after"),
            (["--rejoin-after", "40"], "--rejoin-after"),
        ],
    )
    def test_bus_only_flag_without_bus_is_refused(
        self, two_node_file, flags, named
    ):
        """These used to be ignored: the command ran a clean direct
        deploy and exited 0."""
        code, output = run(["deploy", two_node_file, *flags])
        assert code == 2
        assert output == f"error: {named} needs --bus\n"

    @pytest.mark.parametrize("mode", ["--resume", "--delta"])
    def test_bus_with_a_day_two_mode_is_refused(
        self, two_node_file, tmp_path, mode
    ):
        bundle = str(tmp_path / "bundle.json")
        assert run(["deploy", two_node_file, "--save", bundle])[0] == 0
        code, output = run(["deploy", two_node_file, "--bus", mode, bundle])
        assert code == 2
        assert output.startswith("error: --bus") and mode in output
