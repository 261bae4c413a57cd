"""zetasum benchmark: time to a verified result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its src/.  Each workload runs in this single
process as a closed loop: one caller, no threads, the next operation
starting when the previous one returns.  Every operation's output is
checked against an independent reference (workloads.py).

--trace 0 measures the end-to-end metrics: operations run in seeded passes
for S seconds (the first pass always completes), and wall_s is the sum over
operations of each one's median time, i.e. the time of one pass.

--trace 1 is the separate traced run: one untraced pass of the workload,
then one traced pass over every workload's operations and the layer
probes, from which every per-layer metric is read.  The tracing overhead is
the workload's traced pass minus its untraced pass.

--workload all runs every workload in its own process and prints every
metric by name with its unit.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Runs write only under .perfbench/ in the
repository root: a result file per run, the spans of a traced run, and the
zero files of zeros_find in a temporary directory removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads as wl
from metrics import END_TO_END, layer_metrics

OUT = wl.ROOT / ".perfbench"
SETUP_RUNS = 7
SETUP_PRELUDE = "import sys\nsys.path.insert(0, sys.argv[1])\nimport zetasum.cli\n"


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import zetasum from this checkout's src/, and nowhere else."""
    if not (wl.SRC / "zetasum" / "__init__.py").is_file():
        die(f"no zetasum package under {wl.SRC}")
    if not wl.ZEROS_FILE.is_file():
        die(f"no zero table at {wl.ZEROS_FILE}")
    for key in [k for k in os.environ if k.startswith("ZETASUM_")]:
        del os.environ[key]  # the CLI reads its defaults from these
    sys.path.insert(0, str(wl.SRC))
    import zetasum

    if Path(zetasum.__file__).resolve().parent != (wl.SRC / "zetasum").resolve():
        die(f"imported zetasum from {zetasum.__file__}, not from {wl.SRC}")


def environment(args) -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


class Tally:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def execute(self, op) -> float:
        """Run op, check its output outside the timed region, return its time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            self.failures.append((op.name, f"{type(exc).__name__}: {exc}"))
            return elapsed
        elapsed = time.perf_counter() - start
        why = op.check(out)
        if why is not None:
            self.failures.append((op.name, why))
        return elapsed


def setup_seconds(workload, sizes) -> float:
    """Median time from starting a fresh interpreter until zetasum.cli is
    imported (and, for the zeros workloads, the table ingested)."""
    cmd = [sys.executable, "-c", SETUP_PRELUDE + workload.setup_code,
           str(wl.SRC), str(sizes.zeros_file)]
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=wl.ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return median(times)


def timed_passes(ops, rng, seconds: float, tally: Tally) -> dict:
    """Seeded passes over ops for about `seconds`; returns each operation's
    times.  The first pass always completes; after it, the loop stops at
    the first operation whose median so far would overrun."""
    times = {op.name: [] for op in ops}
    start = time.perf_counter()
    first = True
    while True:
        for op in wl.pass_order(ops, rng):
            if not first and time.perf_counter() - start + median(times[op.name]) > seconds:
                return times
            times[op.name].append(tally.execute(op))
        first = False


def one_pass(ops, rng, tally: Tally, tracer=None) -> float:
    total = 0.0
    for op in wl.pass_order(ops, rng):
        span = tracer.open("op." + op.name) if tracer else None
        total += tally.execute(op)
        if span:
            tracer.close(span)
    return total


def untraced_run(args, workload, sizes, refs, tmpdir, tally: Tally) -> dict:
    setup = setup_seconds(workload, sizes)
    ops = workload.ops(refs, sizes, random.Random(args.seed), tmpdir)
    times = timed_passes(ops, random.Random(args.seed), args.seconds, tally)
    values = {
        "wall_s": sum(median(t) for t in times.values()),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}


def traced_run(args, workload, sizes, refs, tmpdir, tally: Tally, spans_file: Path) -> dict:
    from spans import Trace, Tracer

    # inputs drawn exactly as in the untraced run of each workload
    all_ops = {name: w.ops(refs, sizes, random.Random(args.seed), tmpdir)
               for name, w in wl.WORKLOADS.items()}
    rng = random.Random(args.seed)
    probes = wl.probe_ops(refs, sizes)
    untraced = one_pass(all_ops[workload.name], rng, tally)

    tracer = Tracer(f"{workload.name}-seed{args.seed}")
    tracer.install()
    try:
        order = [workload.name] + [n for n in all_ops if n != workload.name]
        traced = {n: one_pass(all_ops[n], rng, tally, tracer) for n in order}
        one_pass(probes, rng, tally, tracer)
    finally:
        tracer.uninstall()
    spans_file.write_text(json.dumps(tracer.dump()))

    extra = {"overhead_s": traced[workload.name] - untraced}
    print(f"tracing overhead on {workload.name}: {extra['overhead_s']:+.4f} s "
          f"(traced pass {traced[workload.name]:.4f} s, untraced pass {untraced:.4f} s)")
    trace = Trace(tracer.spans)
    return {name: (value(trace, extra), unit)
            for name, unit, _, value in layer_metrics(sizes, all_ops)}


def run_workload(args, sizes=wl.FULL, refs=None) -> dict:
    """One run of one workload; returns the result object and records it,
    with the run environment, under .perfbench/."""
    import_package()
    workload = wl.WORKLOADS[args.workload]
    env = environment(args)
    print("env: " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    refs = refs or wl.References(sizes.zeros_file)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            metrics = traced_run(args, workload, sizes, refs, Path(tmp), tally,
                                 stem.with_suffix(".spans.json"))
        else:
            metrics = untraced_run(args, workload, sizes, refs, Path(tmp), tally)
    for name, why in tally.failures:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {"env": env, "failures": tally.failures, **result}, indent=1))
    return result


def run_all(args) -> int:
    """Every workload in its own process; prints every metric with its unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                die(f"{name} (trace {trace}) exited with {proc.returncode}")
            for line in lines[:-1]:
                if line.startswith(("env:", "tracing overhead")):
                    print(line)
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            print(f"{name}  trace={trace}  attempted={res['attempted']}  "
                  f"failed={res['failed']}  "
                  f"failed_ratio={res['failed'] / res['attempted']:.4f}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:60s} {m['value']:>16.6g} {m['unit']}")
                merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
