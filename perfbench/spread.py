"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--trace] [--out FILE]

Runs ``perfbench/run.py`` once per seed for each workload, one run at a
time, and prints for every end-to-end metric (per-layer metric with
``--trace``) the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  With ``--out`` the table is
also written as JSON, with the machine of the first run.  S defaults to
``run_seconds`` in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_file = ROOT / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(record_file, encoding="utf-8") as fh:
        machine = json.load(fh)["machine"]
    return result, machine


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    table: dict[str, dict] = {}
    machine = None
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            result, run_machine = one_run(workload, seed, args.seconds, int(args.trace))
            machine = machine or run_machine
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        table[workload] = {
            k: dict(summarize([r[k]["value"] for r in runs]), unit=runs[0][k]["unit"])
            for k in runs[0]
        }
        for k, s in table[workload].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:<18} {k:<14} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {spread}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine, "seconds": args.seconds, "trace": args.trace,
                       "seeds": args.seeds, "workloads": table}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
