"""Smoke test of the benchmark suite (run with ``pytest benchmarks/layers``).

Runs the whole suite once at ``--smoke`` sizes, traced and untraced, and
checks the contract of its output: every workload and metric named in
``BENCHMARK.json`` appears with its unit, nothing failed, names are clean.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*arguments, check=True):
    done = subprocess.run(
        [sys.executable, RUN, *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert done.returncode == 0, done.stdout + done.stderr
    return done


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("layers") / "smoke.json")
    done = run("--smoke", "--trace", "--out", path)
    with open(path, encoding="utf-8") as handle:
        return done.stdout, json.load(handle), path


def test_every_workload_and_metric_appears_with_its_unit(contract, suite):
    stdout, result, _ = suite
    lines = [line.split() for line in stdout.splitlines()]
    for workload in (entry["name"] for entry in contract["workloads"]):
        for section, metrics in (
            ("workloads", contract["end_to_end"]),
            ("traced", contract["per_layer"]),
        ):
            measured = result[section][workload]["metrics"]
            assert set(measured) == {m["name"] for m in metrics}
            for metric in metrics:
                printed = [
                    line for line in lines
                    if line[:2] == [workload, metric["name"]]
                ]
                assert printed and printed[0][-1] == metric["unit"], metric["name"]


def test_nothing_failed(contract, suite):
    stdout, result, _ = suite
    for section in ("workloads", "traced"):
        for workload, row in result[section].items():
            assert row["failed"] == 0, (workload, row["failures"])
            assert row["attempted"] >= 1
    assert "FAIL" not in stdout


def test_names_are_clean(contract):
    entries = contract["workloads"] + contract["end_to_end"] + contract["per_layer"]
    names = [entry["name"] for entry in entries]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_result_is_stamped(suite):
    _, result, _ = suite
    for key in ("git_rev", "dirty", "cpu_model", "nproc", "affinity",
                "python", "seed", "benchmark_hash"):
        assert key in result["stamp"]


def test_driver_line_has_exactly_the_contract_keys(contract):
    done = run("--workload", "seq_ring", "--seed", "7", "--seconds", "0",
               "--trace", "0", "--smoke")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in contract["end_to_end"]}
    for metric in contract["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0


def test_compare_of_a_result_with_itself_is_ok(suite):
    _, _, path = suite
    done = run("--compare", path, path)
    assert "regressed" not in done.stdout
