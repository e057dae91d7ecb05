"""Benchmark of ybcavity: four workloads, each round in a fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Runs rounds of the workload (`workloads.py`), each in a new process
(`worker.py`), until --seconds have passed, then checks every round's
outputs (`checks.py`) and prints one JSON line: `correct`, `attempted`,
`failed` and the metrics.  With --trace 0 those are the end-to-end
metrics; with --trace 1 each round runs twice, traced and untraced, and
the metrics are the per-layer ones computed from the traced rounds'
spans (`spans.py`), plus the tracing overhead.  Outputs and spans of the
last run of each (workload, seed, trace) stay in perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5          # set-up-only processes besides the rounds
RUN_LIMIT_S = 170.0       # every process must have ended by then


def _env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("YBCAVITY_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Starts the rounds of one run; every process must end by the
    deadline."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload, self.seed, self.out = workload, seed, out
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def round(self, name: str, index: int, *flags: str) -> dict:
        round_dir = self.out / name
        plan = workloads.prepare(self.workload, self.seed, index, round_dir)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(round_dir), *flags],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
            timeout=self.deadline - time.perf_counter())
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {name} exited {proc.returncode}")
        result = json.loads((round_dir / "round.json").read_text())
        if Path(result["package"]).resolve().parent.parent != SRC:
            raise RuntimeError(f"imported ybcavity from {result['package']}, "
                               f"not from {SRC}")
        result.update(dir=round_dir, plan=plan)
        return result


def measure(runner: Runner, seconds: float, trace: bool):
    """Rounds until `seconds` have passed.  With `trace`, each round is also
    run traced, before or after the untraced copy in alternate rounds."""
    rounds, traced = [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        name = f"round{index:03d}"
        if trace and index % 2 == 0:
            traced.append(runner.round(name + "-traced", index, "--trace"))
        rounds.append(runner.round(name, index))
        if trace and index % 2 == 1:
            traced.append(runner.round(name + "-traced", index, "--trace"))
        index += 1
    return rounds, traced


def check(workload: str, rounds, traced) -> list:
    """Failures of the rounds' own checks and of the output checks; a traced
    round wrote the same outputs as its untraced copy."""
    import checks

    failures = [f for r in rounds + traced for f in r["failures"]]
    if workload != "master":
        run_check = {"sweep": checks.check_sweep,
                     "transit": checks.check_transit,
                     "scatter": checks.check_scatter}[workload]
        failures += run_check([(r["dir"], r["plan"]) for r in rounds])
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ybcavity" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    for k in [k for k in os.environ if k.startswith("YBCAVITY_")]:
        del os.environ[k]
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    runner = Runner(args.workload, args.seed, out)
    setups = [] if args.trace else [
        runner.round(f"setup{k}", k, "--setup-only")["setup_s"]
        for k in range(SETUP_PROBES)]
    rounds, traced = measure(runner, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    failures = check(args.workload, rounds, traced)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in rounds + traced)
    failed = sum(r["failed"] for r in rounds + traced)
    if args.trace:
        import spans
        dumps = [json.loads((r["dir"] / "spans.json").read_text())
                 for r in traced]
        missing = sorted({m for r in traced for m in r["missing"]})
        overheads = [t["work_s"] - r["work_s"]
                     for t, r in zip(traced, rounds)]
        metrics = spans.layer_metrics(dumps, missing, overheads)
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": max(r["maxrss_kib"] for r in rounds)
                             / 1024.0, "unit": "MiB"},
            "ops_per_s": {"value": statistics.median(
                (r["attempted"] - r["failed"]) / r["work_s"]
                for r in rounds), "unit": "1/s"},
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(f"{args.workload}: {len(rounds)} rounds", file=sys.stderr)
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
