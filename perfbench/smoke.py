"""Smoke test of the benchmark at tiny sizes (N = 100, height 30, 100 zeros).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json declares exactly the metrics and workloads the
code produces, that every workload's untraced run and the traced run report
every metric name with its unit and no failure, that an operation checked
against a deliberately wrong reference is counted as failed, and that the
benchmark refuses to run without the package beside it.  Exits 0 on
success; takes about half a minute.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl
from metrics import END_TO_END, layer_metrics


def tiny_sizes(tmp: Path) -> wl.Sizes:
    table = tmp / "zeros_100.txt"
    with open(wl.ZEROS_FILE, encoding="utf-8") as src:
        ordinates = [ln for ln in src if ln.strip() and not ln.startswith("#")]
    table.write_text("".join(ordinates[:100]), encoding="utf-8")
    return dataclasses.replace(
        # Stieltjes keeps its default 1e4 terms: at 100 terms stieltjes(8)
        # misses its own tail bound (the bound is the first omitted
        # Euler-Maclaurin term, an estimate rather than a bound)
        wl.FULL, zeros_file=table, terms=100, exact_terms=102,
        heights=(30.0,), gn=((2, 100), (3, 20)), count_checks=5, count_height=200.0)


def all_ops(refs, sizes, tmp) -> dict:
    return {name: w.ops(refs, sizes, random.Random(0), tmp)
            for name, w in wl.WORKLOADS.items()}


def check_declaration(tmp: Path):
    """BENCHMARK.json lists what the code measures, with the same units."""
    doc = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    refs = wl.References(wl.FULL.zeros_file)
    layers = layer_metrics(wl.FULL, all_ops(refs, wl.FULL, tmp))
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in wl.WORKLOADS.values()], "workloads differ"
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        list(END_TO_END), "end_to_end metrics differ"
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [spec[:3] for spec in layers], "per_layer metrics differ"


def run_tiny(name: str, trace: int, sizes, refs=None) -> dict:
    args = argparse.Namespace(workload=name, seed=7, seconds=0.0, trace=trace)
    return run.run_workload(args, sizes, refs)


def assert_reports(result: dict, expected: list):
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {name: unit for name, unit, *_ in expected}
    assert got == want, f"metrics differ: {set(got) ^ set(want)}"
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result


def main() -> int:
    run.import_package()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp_name:
        tmp = Path(tmp_name)
        check_declaration(tmp)
        sizes = tiny_sizes(tmp)
        refs = wl.References(sizes.zeros_file)
        for name in wl.WORKLOADS:
            assert_reports(run_tiny(name, 0, sizes, refs), END_TO_END)
        # the traced run covers every workload's operations whichever it is given
        assert_reports(run_tiny("zeros_find", 1, sizes, refs),
                       layer_metrics(sizes, all_ops(refs, sizes, tmp)))

        # both verify operations of series_long are checked against the target
        wrong = wl.References(sizes.zeros_file)
        wrong.values["target"] += 1
        result = run_tiny("series_long", 0, sizes, wrong)
        assert not result["correct"] and result["failed"] == 2, result

        # beside BENCHMARK.json and the benchmark alone, it must refuse to run
        bare = tmp / "bare"
        shutil.copytree(wl.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(wl.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "series_exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
