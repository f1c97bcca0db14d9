"""Self-test of the benchmark at smoke sizes; it asserts no timings.

Checks that an untraced run prints every end-to-end metric of
``BENCHMARK.json`` once with its unit, that a traced run prints every
per-layer metric and dumps a parseable trace whose engine scans all ran
inside a protocols call, that a wrong answer makes the run exit nonzero,
that the benchmark refuses to run without the program's source, and
that no server process outlives any of these runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Marks this test's server processes, so survivors can be found.
SEED = 900_000 + os.getpid()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--smoke", "--seconds", "2",
            "--seed", str(SEED), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def surviving_servers() -> list[str]:
    found = []
    for proc in Path("/proc").iterdir():
        try:
            argv = (proc / "cmdline").read_bytes().decode().split("\0")
        except OSError:
            continue
        if (any(arg.endswith("server.py") for arg in argv)
                and str(SEED) in argv):
            found.append(proc.name)
    return found


def printed_metrics(stdout: str) -> list[tuple[str, str]]:
    rows = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            continue
        _workload, name, value, unit = line.split()
        float(value)
        rows.append((name, unit))
    return rows


def declared(kind: str) -> list[tuple[str, str]]:
    return sorted((metric["name"], metric["unit"]) for metric in SPEC[kind])


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "enroll-mix-10k")
    assert proc.returncode == 0, proc.stderr
    assert sorted(printed_metrics(proc.stdout)) == declared("end_to_end")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert surviving_servers() == []


def test_traced_run_dumps_linked_spans(tmp_path):
    out = tmp_path / "result.json"
    proc = bench("--workload", "enroll-mix-10k", "--trace", "--out",
                 str(out))
    assert proc.returncode == 0, proc.stderr
    assert sorted(printed_metrics(proc.stdout)) == declared("per_layer")
    spans = json.loads(out.read_text())["enroll-mix-10k"]["trace"]["spans"]
    by_id = {span["id"]: span for span in spans}
    scans = [span for span in spans
             if span["name"] == "IdentificationEngine.find_by_sketch_batch"]
    assert scans
    for scan in scans:
        assert by_id[scan["parent"]]["name"].startswith(
            "AuthenticationServer.")
    assert surviving_servers() == []


def test_wrong_answer_exits_nonzero():
    proc = bench("--workload", "identify-1k", "--sabotage")
    assert proc.returncode != 0
    assert "identification of 'not-" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert surviving_servers() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "identify-1k", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
