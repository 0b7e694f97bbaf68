"""Benchmark for signbalance321.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Every workload pass, every import timing and the
per-layer replay run in fresh interpreters (``perfbench/bench.py``), one at a
time, so caches such as the ``_joint_rows`` sweep start cold as they do for a
command-line user.  Passes repeat until the next one would end after S
seconds; there is always at least one.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between tracing off
and on (the difference of their wall times is the tracing overhead), then the
replay measures the per-layer metrics listed in ``perfbench/layers.json``.  Lines before it give the same numbers by name and
unit, the machine, and the negative self-check.  Spans and a full result
record go to ``.bench_build/perfbench/``.

Exits 2 without a result when the checkout holds no ``src/signbalance321``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "signbalance321" / "__init__.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep-elementwise", "sweep-aggregate", "point-large", "verify-parallel")
IMPORTS_PER_PASS = 5
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "perms_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "peak_rss_mib": "MiB",
}


class BenchError(RuntimeError):
    pass


class Child:
    """Runs bench.py modes in fresh interpreters that import the package
    from this checkout only, within one overall time limit."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
            PYTHONHASHSEED="0",
        )
        # Bytecode is cached under .bench_build, so every timed import reads
        # a warm cache whatever the caller's setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, *args: str) -> dict:
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time limit reached before the next child")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench.py"), *args],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"bench.py {' '.join(args)} exceeded the time limit")
        if proc.returncode != 0:
            raise BenchError(
                f"bench.py {' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}"
            )
        return json.loads(out.strip().splitlines()[-1])


def machine_info() -> dict:
    """The machine a result belongs to, read from /proc."""
    cpu = "unknown"
    processors = 0
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
            if line.startswith("processor"):
                processors += 1
    with open("/proc/loadavg", encoding="utf-8") as fh:
        load1 = float(fh.read().split()[0])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "processors": processors,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "loadavg_1m": load1,
    }


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_passes(child: Child, workload: str, seed: int, seconds: int, trace: bool):
    """Passes until the next would end after `seconds`; with trace, passes
    come in pairs, tracing off then on.  Fresh-interpreter import times are
    sampled before every pass, so set-up is measured across the run; the
    first import, which may compile bytecode, is not counted."""
    modes = ("0", "1") if trace else ("0",)
    passes: dict[str, list[dict]] = {m: [] for m in modes}
    setup: list[float] = []
    durations: list[float] = []
    child.run("import")
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        setup += [child.run("import")["import_s"] for _ in range(IMPORTS_PER_PASS)]
        for mode in modes:
            spans = OUT_DIR / f"spans-{workload}-seed{seed}-pass{len(passes[mode])}.json"
            passes[mode].append(child.run("pass", workload, str(seed), mode, str(spans)))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return setup, passes


def per_op_slowest(passes: list[dict]) -> list[float]:
    """Each operation's slowest time over the run's passes.

    Every pass issues the same operations in the same order.  On a shared
    host, single-thread speed switches between a boosted and a sustained
    state for seconds at a time, and the mix varies from run to run; the
    slowest of several passes measures the sustained state, which repeats
    from run to run about twice as closely as the per-operation median.
    """
    return [max(times) for times in zip(*(p["ops"] for p in passes))]


def end_to_end(setup: list[float], passes: list[dict]) -> dict[str, float]:
    slowest = per_op_slowest(passes)
    wall = sum(slowest)
    # A slowest-of-passes tail picks up one-off stalls; the tail is taken
    # over every sample instead.
    pooled = [t for p in passes for t in p["ops"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "perms_per_s": passes[0]["perms"] / wall,
        "op_p50_us": percentile(slowest, 50) * 1e6,
        "op_p99_us": percentile(pooled, 99) * 1e6,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def load_layers() -> dict[str, dict]:
    with open(HERE / "layers.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not PACKAGE.is_file():
        print(f"error: no package source at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    machine = machine_info()
    child = Child(started)
    trace = bool(args.trace)
    try:
        if args.workload == "point-large" or trace:
            child.run("inputs", str(args.seed))
        setup, passes = run_passes(child, args.workload, args.seed, args.seconds, trace)
        replay = None
        if trace:
            spans = OUT_DIR / f"spans-replay-seed{args.seed}.json"
            replay = child.run("replay", str(args.seed), str(spans))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = passes["0"]
    e2e = end_to_end(setup, untraced)
    checks = [p["checks"] for ps in passes.values() for p in ps]
    if replay is not None:
        checks.append(replay["checks"])
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    selfchecks = [p["selfcheck"] for ps in passes.values() for p in ps]
    gate_ok = all(s["digest_error_rate"] > 0 and s["property_error_rate"] > 0 for s in selfchecks)

    if trace:
        layers = load_layers()
        traced = passes["1"]
        metrics = dict(replay["metrics"])
        metrics["trace.overhead_s"] = sum(per_op_slowest(traced)) - e2e["wall_s"]
        metrics["trace.spans"] = statistics.median(p["spans"] for p in traced)
        if set(metrics) != set(layers):
            missing = sorted(set(layers) - set(metrics))
            extra = sorted(set(metrics) - set(layers))
            print(f"error: per-layer metrics missing {missing}, unlisted {extra}", file=sys.stderr)
            return 1
        report = {k: {"value": metrics[k], "unit": layers[k]["unit"]} for k in layers}
    else:
        report = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    per_pass = len(untraced[0]["ops"])
    print(
        f"machine: nproc={machine['nproc']} python={machine['python']} "
        f"cpu={machine['cpu_model']!r} loadavg_1m={machine['loadavg_1m']}"
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced passes of "
        f"{per_pass} operations (op_p50_us over {per_pass} slowest-of-passes times, "
        f"op_p99_us over {per_pass * len(untraced)} samples)"
    )
    for k, v in e2e.items():
        print(f"  {k:<14} {v:.6g} {END_TO_END_UNITS[k]}")
    print(f"  {'error_rate':<14} {failed / attempted:.6g} ratio ({failed} of {attempted} checks failed)")
    worst = min(selfchecks, key=lambda s: min(s["digest_error_rate"], s["property_error_rate"]))
    print(
        "negative self-check: corrupted digest -> error_rate "
        f"{worst['digest_error_rate']:.3g}, corrupted property -> "
        f"{worst['property_error_rate']:.3g} ({'caught' if gate_ok else 'NOT CAUGHT'})"
    )
    for c in checks:
        for what in c["first"]:
            print(f"  failed: {what}")
    if trace:
        print("per-layer:")
        for k, v in report.items():
            print(f"  {k:<62} {v['value']:.6g} {v['unit']}")

    result = {
        "correct": failed == 0 and gate_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, passes=passes, setup=setup)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
