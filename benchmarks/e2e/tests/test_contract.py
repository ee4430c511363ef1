"""BENCHMARK.json, the code, and what a run emits agree with each other."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import E2E, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_matches_the_code(contract):
    import layers
    import workloads

    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )


def _benchmark_sources():
    for name in sorted(os.listdir(E2E)):
        if name.endswith(".py"):
            with open(os.path.join(E2E, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_only_surviving_lineage_keywords_and_no_bench_imports():
    allowed = {"runs", "strategy", "focus"}
    for name, tree in _benchmark_sources():
        assert not re.match(r"^(bench|test)_", name), name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "lineage":
                    used = {kw.arg for kw in node.keywords}
                    assert used <= allowed, f"{name}:{node.lineno} passes {used}"
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("repro.bench"), name
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro.bench"), name


def test_smoke_run_emits_every_declared_name_and_nothing_else(contract, tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    doc = json.loads(out.read_text())
    for key in ("commit", "seed", "nproc", "python", "sqlite", "phase_shares"):
        assert key in doc["stamp"]
    declared_e2e = {m["name"] for m in contract["end_to_end"]}
    declared_layer = {m["name"] for m in contract["per_layer"]}
    seen_workloads = set()
    emitted_layer = set()
    for run in doc["runs"]:
        seen_workloads.add(run["workload"])
        assert run["correct"] and run["failed"] == 0, run["detail"]["failures"]
        if run["trace"]:
            assert set(run["metrics"]) <= declared_layer, run["workload"]
            emitted_layer |= set(run["metrics"])
        else:
            assert set(run["metrics"]) == declared_e2e, run["workload"]
            assert all(v > 0 for v in run["metrics"].values()), run["workload"]
    assert seen_workloads == {w["name"] for w in contract["workloads"]}
    assert emitted_layer == declared_layer
