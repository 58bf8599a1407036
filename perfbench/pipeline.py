"""The pipeline workloads: ``paper_report`` and ``big_cell``.

``paper_report`` is the reproduction's real job: the 2011 cell and the
2019 cells a-h simulated through the pooled ``run_cells`` driver, then
encoded, validated, written to the store, reopened, read in full and
rendered section by section.  ``big_cell`` is one large 2019 cell with
heavy faults and the mixed archetype population, run serially through
simulate -> encode -> store write, with no reads and no report.
"""

from __future__ import annotations

import inspect
import io
import shutil
from dataclasses import dataclass
from typing import Dict, List

from checks import trace_digests
from common import Ctx, count_store, sim_counters

from repro.analysis import report
from repro.sim.driver import run_cells
from repro.trace import encode_cell, load_trace, save_trace, validate_trace
from repro.workload import scenario_2011, scenarios_2019

#: Every report section, in ``full_report`` order.
SECTIONS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "fig12",
            "fig13", "fig14", "sec51", "sec52", "extras")


@dataclass(frozen=True)
class Scale:
    machines: int
    hours: float
    arrival_scale: float = 0.02


PAPER_SCALES = {"full": Scale(100, 24.0), "toy": Scale(12, 3.0, 0.01)}
BIG_SCALES = {"full": Scale(500, 72.0), "toy": Scale(30, 6.0)}

POOL_WORKERS = 2


# -- paper_report --------------------------------------------------------------

def paper_setup(ctx: Ctx) -> list:
    s = PAPER_SCALES[ctx.scale]
    knobs = dict(seed=ctx.seed, machines_per_cell=s.machines,
                 horizon_hours=s.hours, arrival_scale=s.arrival_scale)
    with ctx.tracer.span("workload.build"):
        scenarios = [scenario_2011(**knobs)] + scenarios_2019(**knobs)
    ctx.layer["workload.collections"] = sum(len(sc.workload) for sc in scenarios)
    return scenarios


def paper_timed(ctx: Ctx, scenarios: list) -> None:
    tracer, ops = ctx.tracer, ctx.ops
    root = ctx.work_dir / "paper"
    shutil.rmtree(root, ignore_errors=True)
    with ops.op("simulate", len(scenarios)), tracer.span("sim.run_cells"):
        results = run_cells(scenarios, workers=POOL_WORKERS)
    sim_counters(ctx, [r.counters for r in results])
    digests: Dict[str, dict] = {}
    rows = 0
    cells: List[str] = []
    for result in results:
        with ops.op("encode"), tracer.span("trace.encode"):
            trace = encode_cell(result)
        with tracer.excluded("bench.checksum"):
            digests[trace.cell] = trace_digests(trace)
        rows += sum(n for n, _ in digests[trace.cell].values())
        with ops.op("validate"), tracer.span("trace.validate"):
            violations = validate_trace(trace)
        ops.check(not violations, f"cell {trace.cell}: {len(violations)} "
                  f"trace violations, first: {violations[:1]}")
        with ops.op("write"), tracer.span("store.write"):
            save_trace(trace, root / trace.cell, format="store")
        cells.append(trace.cell)
    del results, trace
    ctx.layer["trace.rows"] = rows
    with tracer.excluded("bench.store_stats"):
        count_store(ctx, [root / c for c in cells], rows)

    with ops.op("open", len(cells)), tracer.span("store.open"):
        datasets = [load_trace(root / c) for c in cells]
    with ops.op("read", len(cells)), tracer.span("store.read"):
        for ds in datasets:
            for name in ds.tables:
                ds.tables[name]
    with tracer.excluded("bench.readback"):
        for ds in datasets:
            ops.check(trace_digests(ds) == digests[ds.cell],
                      f"cell {ds.cell}: store read-back differs from the "
                      "encoded tables")
        stats = [ds.store.cache.stats for ds in datasets]
        ctx.layer["store.read_rows"] = rows
        ctx.cache_stats(sum(s.hits for s in stats), sum(s.misses for s in stats),
                        sum(s.evictions for s in stats))

    traces_2011 = [ds for ds in datasets if ds.era == "2011"]
    traces_2019 = [ds for ds in datasets if ds.era == "2019"]
    out = io.StringIO()
    for section in SECTIONS:
        render = getattr(report, f"render_{section}")
        args = (traces_2011, traces_2019) \
            if "traces_2011" in inspect.signature(render).parameters \
            else (traces_2019,)
        with ops.op(f"render {section}"), tracer.span(f"analysis.{section}"):
            render(out, *args)
    ctx.mark_peak()
    with tracer.excluded("bench.report"):
        ctx.check_report(out.getvalue(), len(SECTIONS))


# -- big_cell --------------------------------------------------------------------

def big_setup(ctx: Ctx):
    s = BIG_SCALES[ctx.scale]
    with ctx.tracer.span("workload.build"):
        scenario, = scenarios_2019(
            seed=ctx.seed, machines_per_cell=s.machines, horizon_hours=s.hours,
            arrival_scale=s.arrival_scale, cells=["a"], faults="heavy",
            archetype_mix="mixed")
    ctx.layer["workload.collections"] = len(scenario.workload)
    return scenario


def big_timed(ctx: Ctx, scenario) -> None:
    tracer, ops = ctx.tracer, ctx.ops
    path = ctx.work_dir / "big" / "a"
    shutil.rmtree(path.parent, ignore_errors=True)
    with ops.op("simulate"), tracer.span("sim.run"):
        result = scenario.run()
    sim_counters(ctx, [result.counters])
    with ops.op("encode"), tracer.span("trace.encode"):
        trace = encode_cell(result)
    del result
    with ops.op("write"), tracer.span("store.write"):
        save_trace(trace, path, format="store")
    ctx.mark_peak()
    rows = sum(len(t) for t in trace.tables.values())
    ctx.layer["trace.rows"] = rows
    with tracer.excluded("bench.checks"):
        count_store(ctx, [path], rows)
        if ctx.iteration > 0:
            return  # the same input again: checked once per run
        digests = trace_digests(trace)
        violations = validate_trace(trace)
        ops.check(not violations, f"{len(violations)} trace violations, "
                  f"first: {violations[:1]}")
        del trace
        ops.check(trace_digests(load_trace(path)) == digests,
                  "store read-back differs from the encoded tables")
