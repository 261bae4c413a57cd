"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run, each with its unit and direction.

The layer each per-layer metric measures, and the end-to-end metric and
workload it should move, are listed in NOTES.md.
"""

from __future__ import annotations

import math
from statistics import median

from spans import MODULES
from workloads import (HARDY_HEIGHTS, LI_N, SERIES_EXACT_IDS, STIELTJES_MAX, Sizes,
                       height_label)

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# digit route -> the series_exact operation that calls it at N = 1e5
DIGIT_ROUTES = (
    ("combined_pochti", "verify.pochti"),
    ("log2_series", "verify.log2"),
    ("gamma_addison", "verify.addison"),
    ("log4pi_paired", "verify.vacca_dual"),
    ("log2pi_dual", "verify.dual_addison"),
    ("pochtipochti_series", "verify.pochtipochti"),
)
VERIFY_IDS = SERIES_EXACT_IDS + ("itog", "p12", "p0_zeros")

US, MS = 1e6, 1e3


def layer_metrics(sizes: Sizes, workload_ops: dict):
    """[(name, unit, better, value(trace, extra))] for every per-layer metric.

    workload_ops maps each workload to its operations; extra carries the
    figures measured outside the spans (the tracing overhead).
    """
    out = []

    def add(name, unit, better, value):
        out.append((name, unit, better, value))

    for fn in ("digamma", "ln_gamma", "polygamma"):
        add(f"numerics.{fn}.us", "us", "lower",
            lambda t, x, fn=fn: US * t.median_call(f"probe.{fn}", f"numerics.{fn}"))

    for fn, op in DIGIT_ROUTES:
        add(f"digit_series.{fn}.s", "s", "lower",
            lambda t, x, fn=fn, op=op: t.seconds(op, f"digit_series.{fn}"))

    def exact_main(t):
        (span,) = t.within("probe.main_series", "digit_series.main_series")
        return span

    def long_main(t):
        (span,) = t.within("verify.itog", "digit_series.main_series")
        return span

    # main_series(1e6) splits into the exact part, timed by the probe on its
    # own, and the continuation past it
    add("digit_series.main_series.exact.s", "s", "lower", lambda t, x: exact_main(t).seconds)
    add("digit_series.exact_den_bits", "bits", "lower",
        lambda t, x: exact_main(t).note["den_bits"])
    add("digit_series.main_series.cont.s", "s", "lower",
        lambda t, x: long_main(t).seconds - exact_main(t).seconds)
    add("digit_series.cont_terms", "count", "lower",
        lambda t, x: 0 if long_main(t).note["den_bits"]
        else long_main(t).note["terms"] - exact_main(t).note["terms"])

    add("special_series.p12_series.s", "s", "lower",
        lambda t, x: t.seconds("verify.p12", "special_series.p12_series"))
    add("special_series.p12_term.us", "us", "lower",
        lambda t, x: US * t.median_call("probe.p12_term", "special_series.p12_term"))
    for m in range(STIELTJES_MAX + 1):
        add(f"special_series.stieltjes.{m}.s", "s", "lower",
            lambda t, x, m=m: t.seconds(f"stieltjes.{m}", "special_series.stieltjes"))
    add("special_series.p01_integral.s", "s", "lower",
        lambda t, x: t.seconds("verify.p01", "special_series.p01_integral"))
    add("special_series.p01_term.us", "us", "lower",
        lambda t, x: US * t.median_call("probe.p01_term", "special_series.p01_term"))

    add("zeta_zeros.load_zero_table.s", "s", "lower",
        lambda t, x: t.median_call("probe.load_zero_table", "zeta_zeros.load_zero_table"))
    checks = [op.name for op in workload_ops["zeros_table"]
              if op.name.startswith("count_check.")]
    add("zeta_zeros.zero_count_check.us", "us", "lower",
        lambda t, x: US * median(t.seconds(c, "zeta_zeros.zero_count_check")
                                 for c in checks))
    for h in map(height_label, HARDY_HEIGHTS):
        add(f"zeta_zeros.hardy_z.{h}.ms", "ms", "lower",
            lambda t, x, h=h: MS * t.median_call(f"probe.hardy_z.{h}", "zeta_zeros.hardy_z"))
    for h in map(height_label, sizes.heights):
        op = f"zeros.find.{h}"
        evals = lambda t, op=op: t.ops[op].note["z_evals"]
        add(f"zeta_zeros.find_zeros.{h}.s", "s", "lower",
            lambda t, x, op=op: t.seconds(op, "zeta_zeros.find_zeros"))
        add(f"zeta_zeros.find_zeros.{h}.z_evals", "count", "lower",
            lambda t, x, evals=evals: evals(t))
        # every scan ends in one count check; all but the first are rescans
        add(f"zeta_zeros.find_zeros.{h}.rescans", "count", "lower",
            lambda t, x, op=op: len(t.within(op, "zeta_zeros.zero_count_check")) - 1)
        add(f"zeta_zeros.find_zeros.{h}.zeros_per_eval", "ratio", "higher",
            lambda t, x, op=op, evals=evals:
            t.within(op, "zeta_zeros.find_zeros")[0].note["zeros"] / evals(t))

    for i in VERIFY_IDS:
        add(f"criteria.verify_identity.{i}.s", "s", "lower",
            lambda t, x, i=i: t.seconds(f"verify.{i}", "criteria.verify_identity"))
    for i in VERIFY_IDS:
        add(f"criteria.verify_identity.{i}.log10_tolerance", "log10", "lower",
            lambda t, x, i=i: math.log10(
                t.within(f"verify.{i}", "criteria.verify_identity")[0].note["tolerance"]))
    add("criteria.li_lambda.s", "s", "lower",
        lambda t, x: t.seconds(f"li.{LI_N}", "criteria.li_lambda"))
    for n, _ in sizes.gn:
        add(f"criteria.gn_multisum.{n}.s", "s", "lower",
            lambda t, x, n=n: t.seconds(f"gn.{n}", "criteria.gn_multisum"))
    add("criteria.zero_sum_p0.s", "s", "lower",
        lambda t, x: t.seconds("verify.p0_zeros", "criteria.zero_sum_p0"))

    cli_ops = [op for ops in workload_ops.values() for op in ops if op.wraps]
    for op in cli_ops:
        add(f"cli.{op.name}.s", "s", "lower",
            lambda t, x, op=op: t.seconds(op.name, "cli.main"))
    # the CLI operation minus the library call it wraps: argument parsing,
    # table re-ingest and output formatting
    add("cli.self.s", "s", "lower",
        lambda t, x: sum(t.seconds(op.name, "cli.main") - t.seconds(op.name, op.wraps)
                         for op in cli_ops))

    pass_ops = [op.name for ops in workload_ops.values() for op in ops]
    for module in MODULES:
        add(f"{module}.busy.s", "s", "lower",
            lambda t, x, module=module: t.busy(module, pass_ops))
    add("trace.overhead_s", "s", "lower", lambda t, x: x["overhead_s"])
    return out
