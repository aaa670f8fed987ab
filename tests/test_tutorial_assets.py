"""The shipped tutorial stack (examples/stacks) stays working.

docs/TUTORIAL.md walks through exactly these files; this test keeps the
documentation honest.
"""

import io
import pathlib

import pytest

from repro.cli import main

STACKS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "stacks"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def shop_files():
    dsl = STACKS / "shop.engage"
    spec = STACKS / "shop.json"
    assert dsl.is_file() and spec.is_file()
    return str(dsl), str(spec)


def test_tutorial_check(shop_files):
    dsl, _ = shop_files
    code, output = run(["check", "--types", dsl])
    assert code == 0
    assert "well-formed" in output


def test_tutorial_graph(shop_files):
    dsl, spec = shop_files
    code, output = run(["graph", "--types", dsl, spec])
    assert code == 0
    assert "3 instance nodes" in output
    assert "fastqueue" in output


def test_tutorial_deploy(shop_files, tmp_path):
    dsl, spec = shop_files
    code, output = run(["deploy", "--types", dsl, spec])
    assert code == 0
    assert "orders" in output and "active" in output


def test_tutorial_parallel_deploy_speedup():
    """The --jobs walkthrough: same end state, measured makespan lands
    below the sequential total (the numbers the tutorial quotes)."""
    spec = STACKS / "openmrs.json"
    assert spec.is_file()
    code, serial_output = run(["deploy", str(spec)])
    assert code == 0
    assert "openmrs" in serial_output and "active" in serial_output
    assert "parallel deploy" not in serial_output
    assert "simulated time: 8.6 minutes" in serial_output
    code, parallel_output = run(["deploy", str(spec), "--jobs", "4"])
    assert code == 0
    assert "parallel deploy (jobs=4)" in parallel_output
    assert "makespan 361.5s vs sequential 515.2s" in parallel_output
    assert "speedup 1.43x" in parallel_output


def test_tutorial_configure_wires_queue(shop_files, tmp_path):
    import json

    dsl, spec = shop_files
    out_file = tmp_path / "full.json"
    code, _ = run(["configure", "--types", dsl, spec, "-o", str(out_file)])
    assert code == 0
    entries = {e["id"]: e for e in json.loads(out_file.read_text())}
    orders = entries["orders"]
    assert orders["input_ports"]["queue"]["host"] == "shop-1"
    assert orders["input_ports"]["queue"]["port"] == 5672
    assert orders["output_ports"]["url"] == "http://shop-1:9000/orders"
