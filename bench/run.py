"""monograph benchmark: one closed-loop client running seeded CLI workloads.

    python3 bench/run.py --workload loops-cld --seed 1 --seconds 36 --trace 0

Run from the repository root.  The seed generates every input file before
timing starts; the program only sees those files.  One operation is one
in-process `monograph.cli.main(argv)` call with stdout captured (or one
library certificate call where the CLI has no subcommand).  The stream of
one round is repeated, with cold starts sampled between rounds, until
`--seconds` have passed, so every run times whole rounds.  Each output is
then verified by `oracle.py`.

`--trace 0` prints the end-to-end metrics; `--trace 1` times rounds for
half of `--seconds`, then runs one traced round whose spans give the
per-layer metrics, a growth report for the three exponential searches,
and the tracing overhead.  `--smoke` runs tiny sizes in a few seconds.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import COMPUTED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("loops-cld", "motif-scan", "model-pipeline")
SETUP_REPEATS = 7
HASH_SEED = "0"
COLD_START_REPEATS = 30


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


# ------------------------------------------------------------- operations


class Runner:
    """Runs operations in this process; `tracer` (if set) opens op spans."""

    def __init__(self, cli, package):
        self.cli = cli
        self.package = package
        self.tracer = None

    def run(self, index: int, op):
        """Returns (status, value, stdout, seconds).  `status` is "ok" or
        "raised"; `value` is the exit code, the certificate's result, or
        the exception's type name."""
        out = io.StringIO()
        span = self.tracer.begin_op(index, op.kind) if self.tracer else None
        status, value = "ok", None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                if op.argv is not None:
                    value = self.cli.main(op.argv)  # looked up per call: may be wrapped
                else:
                    name, args = op.call
                    value = getattr(self.package, name)(*args)
            except SystemExit as exc:
                value = exc.code
            except Exception as exc:  # the operation failed; the loop keeps running
                status, value = "raised", type(exc).__name__
            seconds = perf_counter() - t0
        if span is not None:
            self.tracer.end_op(span, status != "ok")
        return status, value, out.getvalue(), seconds


def run_rounds(runner: Runner, stream, seconds: float, between_rounds=None):
    """The closed loop: whole rounds until `seconds` have passed since it
    started, give or take half a round.

    `between_rounds(stream, first, executions, elapsed)` runs after each
    round, outside the timed rounds but inside the `seconds`.
    Returns (first round's results, executions, wall time of each round)
    where each execution is (op index, seconds, result) and the result is
    None when it repeats the first round's byte for byte.
    """
    first, executions, round_walls = [], [], []
    t_start = perf_counter()
    while True:
        t_round = perf_counter()
        for i, op in enumerate(stream):
            status, value, out, dt = runner.run(i, op)
            result = (status, value, out)
            if not round_walls:
                first.append(result)
            executions.append((i, dt, None if result == first[i] else result))
        round_walls.append(perf_counter() - t_round)
        if between_rounds is not None:
            between_rounds(stream, first, executions, perf_counter() - t_start)
        if perf_counter() - t_start + statistics.fmean(round_walls) / 2 >= seconds:
            return first, executions, round_walls


def check(op, result) -> str | None:
    """None when the operation succeeded and its output verifies."""
    status, value, out = result
    if status != "ok":
        return f"raised {value}"
    try:
        return op.check(value, out)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return f"output did not parse: {type(exc).__name__}: {exc}"


def tally(stream, first, executions) -> list[tuple[int, float, str | None, str]]:
    """(op index, seconds, failure reason or None, status) per execution.
    Repeats of the first round inherit its verdict; the rest are checked."""
    verdicts = [check(op, r) for op, r in zip(stream, first)]
    return [
        (i, dt, verdicts[i] if r is None else check(stream[i], r), (r or first[i])[0])
        for i, dt, r in executions
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def op_latencies(outcomes, count: int) -> list[float]:
    """Each operation's mean latency over the run's rounds, ascending; an
    operation that failed in any round ranks slower than any success.
    Means rather than medians: the host's speed drifts by tens of percent
    over seconds, and a mean averages over that drift where a median
    snaps to whichever speed held for most of the run."""
    times: list[list[float]] = [[] for _ in range(count)]
    for i, dt, verdict, _ in outcomes:
        times[i].append(math.inf if verdict else dt)
    return sorted(statistics.fmean(t) for t in times)


def interquartile_mean(values: list[float]) -> float:
    ranked = sorted(values)
    cut = len(ranked) // 4
    return statistics.fmean(ranked[cut : len(ranked) - cut])


def digest(first) -> str:
    h = hashlib.sha256()
    for i, (status, value, out) in enumerate(first):
        h.update(f"{i}\t{status}\t{value!r}\n{out}\n".encode())
    return h.hexdigest()


class ColdStart:
    """Wall times of a fresh interpreter running the workload's cheapest
    CLI operation (fastest in the first round), sampled between rounds in
    step with the loop's progress so they span the same seconds as the
    timed loop.  No timeout: waiting with one polls in steps of up to
    50 ms, which would quantize the time."""

    def __init__(self, workdir: Path, seconds: float, total: int):
        self.workdir, self.seconds, self.total = workdir, seconds, total
        self.argv = self.expected = None
        self.times: list[float] = []
        self.mismatches = 0

    def sample(self, count: int) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for _ in range(count):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "monograph.cli", *self.argv],
                cwd=self.workdir,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            )
            self.times.append(perf_counter() - t0)
            # the fresh process must print what the in-process call printed
            self.mismatches += (proc.returncode, proc.stdout) != (0, self.expected)

    def between_rounds(self, stream, first, executions, elapsed: float) -> None:
        if self.argv is None:
            ok = {i for i, op in enumerate(stream) if op.argv and first[i][:2] == ("ok", 0)}
            cheapest = min((dt, i) for i, dt, _ in executions if i in ok)[1]
            self.argv, self.expected = stream[cheapest].argv, first[cheapest][2]
        due = min(self.total, math.ceil(self.total * elapsed / self.seconds))
        self.sample(due - len(self.times))

    def mean_ms(self) -> float:
        """Interquartile mean: averages over the host's drift like the
        other metrics, without one stalled start moving it."""
        self.sample(self.total - len(self.times))
        return 1000 * interquartile_mean(self.times)


# ------------------------------------------------------------------ setup


IMPORT_PROBE = "import time; t = time.perf_counter(); import monograph, monograph.cli; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Time to import the package, taken in a fresh interpreter so that
    every set-up repeat pays it in full."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return float(proc.stdout)


def setup(workload: str, seed: int, workdir: Path, smoke: bool, runner: Runner, build):
    """Import the package, generate the inputs and warm up once per kind of
    operation; repeated so `setup_s` is a median.  Returns (stream, seconds
    per repeat)."""
    times = []
    stream = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        stream = build(workload, random.Random(f"{workload}:{seed}"), workdir, smoke)
        with contextlib.chdir(workdir):
            cheapest = {}
            for op in stream:
                if op.kind not in cheapest or op.size < cheapest[op.kind].size:
                    cheapest[op.kind] = op
            for op in cheapest.values():
                runner.run(-1, op)
        times.append(imported + perf_counter() - t0)
    return stream, times


# ---------------------------------------------------------------- tracing


def traced_round(runner: Runner, stream, workdir: Path, untraced_round_s: float, workload: str):
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        with contextlib.chdir(workdir):
            first, _, (wall,) = run_rounds(runner, stream, 0.0)
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.write(WORK / "traces" / f"{workload}.spans", [op.kind for op in stream])
    return tracer, first, wall, 100.0 * (wall - untraced_round_s) / untraced_round_s


def layer_metrics(tracer, stream, first, overhead_pct: float, fail_share: float) -> dict:
    """Every per-layer metric BENCHMARK.json names, from the traced round.

    `<function>.calls`, `.self_ms` and `.errors` come from the spans of a
    wrapped function; the stats in `spans.COMPUTED` from its arguments and
    results; the rest are defined here.
    """
    own = tracer.self_times()
    calls, self_s, errors = tracer.by_name(own)
    paths = tracer.stats["motifs.paths_between.paths"]
    dag_ops = {i for i, op in enumerate(stream) if op.family == "dag"}
    derived = {
        "homology.simple_loops.dag.self_ms": 1000 * tracer.self_in_ops(own, "homology.simple_loops", dag_ops),
        "motifs.match_yield": tracer.stats["motifs.find_motifs.matches"] / paths if paths else 0.0,
        "cli.stdout_bytes": sum(len(out.encode()) for _, _, out in first),
        "trace.overhead_pct": overhead_pct,
        "fail_share": fail_share,
    }
    per_span = {"calls": calls, "errors": errors, "self_ms": {k: 1000 * v for k, v in self_s.items()}}
    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = m["name"]
        function, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in COMPUTED:
            value = tracer.stats[name]
        elif stat in per_span and function in tracer.names:
            value = per_span[stat].get(function, 0)
        else:
            raise KeyError(f"BENCHMARK.json names {name!r}, which the trace does not measure")
        metrics[name] = (value, m["unit"])
    return metrics


def growth_report(tracer, stream) -> dict:
    """Inclusive search time against input size, from the traced round."""
    loops_t = tracer.inclusive_by_op("homology.simple_loops")
    motif_t = tracer.inclusive_by_op("motifs.find_motifs")
    rel_t = tracer.inclusive_by_op("homology.find_relations")
    report = {"dag_simple_loops": [], "branch_pm_L3": [], "find_relations": []}
    for i, op in enumerate(stream):
        if op.family == "dag" and op.kind == "loops":
            report["dag_simple_loops"].append({"V": op.size, "loops": 1, "ms": round(1000 * loops_t[i], 3)})
        if op.kind == "motif" and op.info["motif"] == "branch-pm" and op.info["max_len"] == 3:
            report["branch_pm_L3"].append({"host_V": op.size, "host_E": 2 * op.size, "ms": round(1000 * motif_t[i], 3)})
        if op.kind == "homology" and op.family == "cld":
            report["find_relations"].append({"loops": op.info["loops"], "bound": op.info["bound"], "ms": round(1000 * rel_t[i], 3)})
    for rows in report.values():
        rows.sort(key=lambda row: tuple(row.values()))
    return {k: v for k, v in report.items() if v}


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monograph" / "cli.py").is_file():
        print(f"error: no monograph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import monograph
    import monograph.cli
    import workloads

    runner = Runner(monograph.cli, monograph)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        stream, setup_times = setup(args.workload, args.seed, workdir, args.smoke, runner, workloads.build)
        # the benchmark's own inputs and expected outputs are long-lived;
        # frozen, they stay out of the collections the program triggers
        gc.collect()
        gc.freeze()
        # a traced run times half as long, leaving time for the traced round
        seconds = args.seconds / 2 if args.trace else args.seconds
        with contextlib.chdir(workdir):
            cold = None if args.trace else ColdStart(workdir, seconds, 3 if args.smoke else COLD_START_REPEATS)
            first, executions, round_walls = run_rounds(runner, stream, seconds, cold and cold.between_rounds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            outcomes = tally(stream, first, executions)
        attempted = len(outcomes)
        failed = sum(1 for _, _, verdict, _ in outcomes if verdict)
        # a raise is a failed operation; an output that does not verify is also incorrect
        wrong = {i for i, _, verdict, status in outcomes if verdict and status == "ok"}
        for i, reason in sorted({i: verdict for i, _, verdict, _ in outcomes if verdict}.items()):
            op = stream[i]
            print(f"failed: op {i} {op.argv or op.call[0]}: {reason}", file=sys.stderr)
        print(f"stdout_sha256 {args.workload} seed {args.seed}: {digest(first)}")
        wall = sum(round_walls)
        print(f"rounds {len(round_walls)}, ops per round {len(stream)}, attempted {attempted}, failed {failed}, wall {wall:.3f}s")
        correct = not wrong

        if args.trace:
            tracer, traced_first, traced_wall, overhead = traced_round(runner, stream, workdir, statistics.fmean(round_walls), args.workload)
            if traced_first != first:
                correct = False
                print("failed: the traced round's outputs differ from the untraced run", file=sys.stderr)
            for family, rows in growth_report(tracer, stream).items():
                print(f"growth {family} {json.dumps(rows)}")
            metrics = layer_metrics(tracer, stream, traced_first, overhead, failed / attempted)
        else:
            # should a percentile land on a failed operation, the loop's
            # whole wall time stands in
            ranked = op_latencies(outcomes, len(stream))
            p50, p90 = (min(percentile(ranked, q), wall) for q in (0.5, 0.9))
            cold_ms = cold.mean_ms()
            if cold.mismatches:
                correct = False
                print(f"failed: {cold.mismatches} cold starts of {cold.argv} printed other output", file=sys.stderr)
            metrics = {
                "op_p50_ms": (1000 * p50, "ms"),
                "op_p90_ms": (1000 * p90, "ms"),
                "ops_per_s": ((attempted - failed) / wall, "1/s"),
                "ok_share": ((attempted - failed) / attempted, "ratio"),
                "cold_start_ms": (cold_ms, "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # str hashing orders the library's sets and dicts, and so how much
        # work some searches do: on one input, op_p90_ms on loops-cld moved
        # by up to 16% between hash seeds.  A fixed one leaves --seed as
        # the only thing a run's work depends on.  exec keeps this process.
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
