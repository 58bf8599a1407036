"""The repository benchmark: one workload, one seed, one fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_report --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``paper_report`` — 2011 cell + 2019 cells a-h, pooled simulation,
  encode, validate, store write, full read, every report section;
* ``big_cell`` — one large faulty 2019 cell: simulate, encode, write;
* ``store_queries`` — a closed loop of 1000 seeded store queries.

A run repeats (set-up, timed region) until its timed regions add up to
``--seconds``, at least once.  Set-up builds the inputs from the seed
and is timed on its own (``setup_s``); extra set-ups run at the end
until there are three samples.  Output checks inside a timed region are
measured and subtracted from it.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (medians over the iterations).  With
``--trace 1`` iterations alternate untraced and traced; the JSON holds
the per-layer metrics of the traced ones (their mean, so the layer self
times and ``unattributed_s`` still add up to ``traced_cpu_s``), and a
per-span breakdown goes to standard error.  Spans are written to
``.perfbench/spans/``.  ``--scale toy`` runs the same workloads at a few
seconds each (the self-test uses it).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = Path(".perfbench")
MIN_SETUPS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.cli  # noqa: F401  (cold-imports the whole package)
    except ImportError as exc:
        _fail(f"cannot import the program from {ROOT / 'src'}: {exc}")


END_TO_END = ("setup_s", "wall_us_per_row", "cpu_us_per_row", "rss_bytes_per_row",
              "store_bytes_per_row")
UNITS = {"setup_s": "s", "wall_us_per_row": "us/row", "cpu_us_per_row": "us/row",
         "rss_bytes_per_row": "B/row", "store_bytes_per_row": "B/row"}


def workloads() -> Dict[str, Tuple[Callable, Callable]]:
    import pipeline
    import queries
    return {
        "paper_report": (pipeline.paper_setup, pipeline.paper_timed),
        "big_cell": (pipeline.big_setup, pipeline.big_timed),
        "store_queries": (queries.queries_setup, queries.queries_timed),
    }


def per_layer_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    import pipeline
    import queries
    from tracer import LAYERS
    names = [
        ("workload.build_s", "s"), ("workload.collections", "count"),
        ("faults.outages", "count"), ("faults.resubmissions", "count"),
        ("faults.resubmit_exhausted", "count"),
        ("sim.run_s", "s"), ("sim.events", "count"),
        ("sim.events_per_cpu_s", "1/s"), ("sim.evictions", "count"),
        ("sim.task_restarts", "count"), ("sim.preemption_victims", "count"),
        ("sim.reschedule_frac", "fraction"),
        ("sim.driver_parent_cpu_s", "s"), ("sim.driver_child_cpu_s", "s"),
        ("trace.encode_s", "s"), ("trace.rows", "count"),
        ("trace.encode_rows_per_s", "1/s"), ("trace.validate_s", "s"),
        ("store.write_s", "s"), ("store.bytes", "B"), ("store.chunks", "count"),
        ("store.read_s", "s"), ("store.read_rows_per_s", "1/s"),
    ]
    names += [(f"store.scan.{kind}_p50_ms", "ms") for kind, _ in queries.MIX]
    names += [
        ("store.chunks_skipped_frac", "fraction"),
        ("store.rows_matched_frac", "fraction"),
        ("store.cache_hit_rate", "fraction"), ("store.cache_evictions", "count"),
        ("query_p50_ms", "ms"), ("query_p99_ms", "ms"), ("queries_per_s", "1/s"),
    ]
    names += [(f"analysis.{s}_s", "s") for s in pipeline.SECTIONS]
    names += [(f"self.{layer}_s", "s") for layer in LAYERS]
    names += [("unattributed_s", "s"), ("traced_wall_s", "s"), ("traced_cpu_s", "s"),
              ("peak_rss_mb", "MB"),
              ("tracing_overhead_s", "s"), ("error_rate", "fraction")]
    return names


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(ctx, setup_root: int, region) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    import numpy as np
    from tracer import peak_rss_mb, self_times, span_totals
    spans = ctx.tracer.spans
    totals = span_totals(spans, [setup_root, region.root])

    def cpu(name: str) -> float:
        return totals[name].cpu_s if name in totals else 0.0

    layer = ctx.layer
    get = lambda name: layer.get(name, 0)  # noqa: E731
    sim_s = cpu("sim.run") + cpu("sim.run_cells")
    driver = totals.get("sim.run_cells")
    lat = {kind: np.asarray(v) * 1e3 for kind, v in ctx.latencies.items()}
    every = np.concatenate(list(lat.values())) if lat else np.zeros(0)
    m = {
        "workload.build_s": cpu("workload.build"),
        "workload.collections": get("workload.collections"),
        "faults.outages": get("faults.outages"),
        "faults.resubmissions": get("faults.resubmissions"),
        "faults.resubmit_exhausted": get("faults.resubmit_exhausted"),
        "sim.run_s": sim_s,
        "sim.events": get("sim.events"),
        "sim.events_per_cpu_s": _ratio(get("sim.events"), sim_s),
        "sim.evictions": get("sim.evictions"),
        "sim.task_restarts": get("sim.task_restarts"),
        "sim.preemption_victims": get("sim.preemption_victims"),
        "sim.reschedule_frac": _ratio(get("sim.reschedules"), get("sim.schedules")),
        "sim.driver_parent_cpu_s": driver.cpu_self_s if driver else 0.0,
        "sim.driver_child_cpu_s": driver.cpu_children_s if driver else 0.0,
        "trace.encode_s": cpu("trace.encode"),
        "trace.rows": get("trace.rows"),
        "trace.encode_rows_per_s": _ratio(get("trace.rows"), cpu("trace.encode")),
        "trace.validate_s": cpu("trace.validate"),
        "store.write_s": cpu("store.write"),
        "store.bytes": get("store.bytes"),
        "store.chunks": get("store.chunks"),
        "store.read_s": cpu("store.read"),
        "store.read_rows_per_s": _ratio(get("store.read_rows"), cpu("store.read")),
        "store.chunks_skipped_frac": _ratio(get("store.chunks_skipped"),
                                            get("store.chunks_total")),
        "store.rows_matched_frac": _ratio(get("store.rows_matched"),
                                          get("store.rows_decoded")),
        "store.cache_hit_rate": _ratio(get("store.cache_hits"),
                                       get("store.cache_lookups")),
        "store.cache_evictions": get("store.cache_evictions"),
        "query_p50_ms": float(np.median(every)) if len(every) else 0.0,
        "query_p99_ms": float(np.percentile(every, 99)) if len(every) else 0.0,
        "queries_per_s": _ratio(len(every), region.wall_s),
    }
    for kind, values in lat.items():
        m[f"store.scan.{kind}_p50_ms"] = float(np.median(values)) if len(values) else 0.0
    for name, span in totals.items():
        if name.startswith("analysis."):
            m[f"{name}_s"] = span.cpu_s
    for layer_name, value in self_times(spans, region.root, region.cpu_s).items():
        key = "unattributed_s" if layer_name == "unattributed" else f"self.{layer_name}_s"
        m[key] = value
    m["traced_wall_s"] = region.wall_s
    m["traced_cpu_s"] = region.cpu_s
    m["peak_rss_mb"] = ctx.peak_mb or peak_rss_mb()
    return m


def breakdown(ctx, roots: List[int], values: Dict[str, float]) -> str:
    """Human-readable report of the traced iterations: every span, then
    the timed region's CPU by layer self time, unattributed and the
    tracing overhead (means over the traced iterations)."""
    from tracer import LAYERS, span_totals
    totals = span_totals(ctx.tracer.spans, roots)
    calls: Dict[str, int] = {}
    for span in ctx.tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    lines = [f"{'span':32s} {'calls':>6s} {'wall_s':>9s} {'cpu_s':>9s} "
             f"{'children_cpu_s':>14s}"]
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1].cpu_s):
        lines.append(f"{name:32s} {calls[name]:6d} {t.wall_s:9.3f} {t.cpu_s:9.3f} "
                     f"{t.cpu_children_s:14.3f}")
    lines.append(f"\n{'timed CPU by layer':32s} {'self_cpu_s':>9s}")
    for key in [f"self.{layer}_s" for layer in LAYERS] + ["unattributed_s"]:
        lines.append(f"{key:32s} {values[key]:9.3f}")
    lines.append(f"{'= traced_cpu_s':32s} {values['traced_cpu_s']:9.3f}")
    lines.append(f"{'tracing_overhead_s':32s} {values['tracing_overhead_s']:9.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(HERE))
    from checks import source_digest
    from common import Ctx
    from repro import obs
    from tracer import Region, Tracer, peak_rss_mb, reset_peak_rss

    table = workloads()
    if args.workload not in table:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    setup, timed = table[args.workload]
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir = OUT / "work" / run_id
    ctx = Ctx(workload=args.workload, seed=args.seed, scale=args.scale,
              tracer=Tracer(run_id), work_dir=work_dir,
              state_file=OUT / "report_digests.json",
              source_key=source_digest([ROOT / "src", HERE]))

    setup_s: List[float] = []
    untraced: List[dict] = []
    traced: List[Dict[str, float]] = []
    roots: List[int] = []
    measured = 0.0
    try:
        while True:
            tracing = bool(args.trace) and len(untraced) > len(traced)
            ctx.tracer.enabled = tracing
            ctx.layer, ctx.latencies, ctx.peak_mb = {}, {}, None
            obs.reset()
            gc.collect()
            with Region(ctx.tracer, "bench.setup") as setup_region:
                state = setup(ctx)
            setup_s.append(setup_region.wall_s)
            gc.collect()
            rss0 = reset_peak_rss()
            with Region(ctx.tracer, "bench.timed") as region:
                timed(ctx, state)
            del state
            measured += region.wall_s
            ctx.iteration += 1
            if tracing:
                traced.append(layer_metrics(ctx, setup_region.root, region))
                roots += [setup_region.root, region.root]
            else:
                rows = ctx.layer["rows"]
                untraced.append({
                    "cpu_s": region.cpu_s,
                    "wall_us_per_row": region.wall_s / rows * 1e6,
                    "cpu_us_per_row": region.cpu_s / rows * 1e6,
                    "rss_bytes_per_row": ((ctx.peak_mb or peak_rss_mb()) - rss0)
                    * 2**20 / rows,
                    "store_bytes_per_row": ctx.layer["store.bytes_per_row"],
                })
            if measured >= args.seconds and (not args.trace or traced):
                break
        ctx.tracer.enabled = False
        while len(setup_s) < MIN_SETUPS:
            with Region(ctx.tracer, "bench.setup") as setup_region:
                setup(ctx)
            setup_s.append(setup_region.wall_s)
    except Exception:
        import traceback
        traceback.print_exc()
        ctx.ops.failed += 1
        ctx.ops.attempted += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = ctx.ops
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": max(ops.attempted, 1),
                          "failed": max(ops.failed, 1), "metrics": {}}))
        return 1
    if args.trace:
        keys = [name for name, _ in per_layer_names()]
        values = {k: statistics.fmean(t.get(k, 0.0) for t in traced) for k in keys}
        values["tracing_overhead_s"] = (
            statistics.median(t["traced_cpu_s"] for t in traced)
            - statistics.median(u["cpu_s"] for u in untraced))
        values["error_rate"] = ops.failed / ops.attempted
        units = dict(per_layer_names())
        ctx.tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        print(breakdown(ctx, roots, values), file=sys.stderr)
    else:
        keys = list(END_TO_END)
        values = {k: statistics.median(u[k] for u in untraced) for k in keys
                  if k != "setup_s"}
        values["setup_s"] = statistics.median(setup_s)
        units = UNITS
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in keys}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
