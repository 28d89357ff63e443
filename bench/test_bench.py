"""The benchmark's own tests, on smoke-mode sizes:

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS == tuple(workloads.BUILDERS)


def test_same_seed_same_stdout_digest():
    digests = [next(line for line in smoke("model-pipeline", 0, seed=7).stdout.splitlines() if line.startswith("stdout_sha256")) for _ in range(2)]
    assert digests[0] == digests[1]


def test_loops_cld_counts_the_ring_recursion_error():
    result = json.loads(smoke("loops-cld", 1).stdout.strip().splitlines()[-1])["metrics"]
    assert result["fail_share"]["value"] > 0
    assert result["homology.simple_loops.errors"]["value"] > 0
    assert result["motifs.find_motifs.calls"]["value"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tampered_output_is_counted_as_failed(workload, tmp_path, monkeypatch):
    import monograph
    import monograph.cli

    stream = workloads.build(workload, random.Random(f"{workload}:1"), tmp_path, True)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(monograph.cli, monograph)
    first, executions, _ = run.run_rounds(runner, stream, 0.0)
    baseline = sum(1 for _, _, verdict, _ in run.tally(stream, first, executions) if verdict)

    i = next(i for i, (status, _, out) in enumerate(first) if status == "ok" and out)
    status, value, out = first[i]
    tampered = out.replace("1", "2", 1) if "1" in out else out[:-2] + "\n"
    assert tampered != out
    first[i] = (status, value, tampered)
    outcomes = run.tally(stream, first, executions)
    assert sum(1 for _, _, verdict, _ in outcomes if verdict) == baseline + 1
    assert outcomes[i][2] is not None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("loops-cld", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
