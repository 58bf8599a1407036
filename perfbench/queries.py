"""The ``store_queries`` workload: a closed loop of seeded store queries.

Set-up simulates one 2019 cell, writes it to the store, draws the query
list from the seed and computes every query's answer with NumPy from
the in-memory trace.  The trace is dropped before the timed region.
One client then sends the queries one after another (closed loop), each
against the same opened store and its chunk cache:

* 60 % window aggregates on ``instance_usage``, each window 1/16 of
  the time span of the kept rows;
* 20 % prod-tier window projections on ``instance_events``, each window
  6/16 of the span;
* 15 % ``IsIn`` lookups of five collection ids on ``instance_events``;
* 5 % unpruned tier aggregates over all of ``instance_usage``, with
  two pool workers.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
from checks import table_digest
from common import Ctx, count_store, sim_counters
from pipeline import Scale

from repro.store import Agg, Between, Compare, IsIn, open_store
from repro.trace import encode_cell, save_trace, validate_trace
from repro.trace.schema import TIME_COLUMNS
from repro.workload import scenarios_2019

QUERY_SCALES = {"full": Scale(100, 16.0), "toy": Scale(16, 8.0, 0.01)}
#: Rows kept of each queried table: the earliest ones by time, so that
#: every seed queries the same amount of data (the simulated cells'
#: sizes vary by tens of percent between seeds).
TABLE_ROWS = {"full": {"instance_usage": 36_000, "instance_events": 28_000},
              "toy": {"instance_usage": 4_000, "instance_events": 3_000}}
#: Rows per store chunk.  Small enough that the hot projections (36
#: ``instance_usage`` chunks, and 28 ``instance_events`` chunks under
#: each of two projections) overflow the 64-entry default chunk cache.
CHUNK_ROWS = 1024
N_QUERIES = {"full": 1000, "toy": 100}
#: Query kinds and their share of the mix.
MIX = (("window", 0.60), ("tier_window", 0.20), ("lookup", 0.15),
       ("full", 0.05))
#: Window lengths as shares of the time span of the kept rows (4 to 11 h
#: depending on the seed).  A share rather than a length in hours keeps
#: the rows a window covers, on average, the same from seed to seed.
WINDOW_SHARE = 1 / 16
TIER_WINDOW_SHARE = 6 / 16
LOOKUP_IDS = 5
FULL_WORKERS = 2
TIERS = ("free", "beb", "mid", "prod")
PROJECTION = ("time", "collection_id", "instance_index", "type", "machine_id")
USAGE_AGGS = (Agg("count"), Agg("sum", "avg_cpu"), Agg("max", "max_mem"))
FULL_AGGS = (Agg("count"), Agg("sum", "avg_cpu"), Agg("sum", "avg_mem"))

Query = Tuple[str, object]


@dataclass
class State:
    path: Path
    queries: List[Query]
    answers: List[object]


def time_prefix(trace, rows: Dict[str, int]):
    """``trace`` with each table in ``rows`` cut to its earliest rows."""
    tables = dict(trace.tables)
    for name, n in rows.items():
        table = tables[name]
        order = np.argsort(table.column(TIME_COLUMNS[name]).values, kind="stable")
        tables[name] = table.take(np.sort(order[:n]))
    return replace(trace, tables=tables)


def _windows(rng, n: int, start: float, end: float, share: float) -> list:
    """``n`` windows of ``share`` of [start, end], one start drawn in each
    of ``n`` equal strata, so every seed covers the span evenly."""
    length = share * (end - start)
    lows = start + (np.arange(n) + rng.random(n)) / n * (end - start - length)
    return [(float(lo), float(lo + length)) for lo in lows]


def make_queries(seed: int, n: int, trace) -> List[Query]:
    """The seeded query list, in the mix's exact proportions, in a seeded
    random order."""
    rng = np.random.default_rng([seed, 0x5eed])
    counts = {kind: round(share * n) for kind, share in MIX}
    usage = trace.instance_usage.column("start_time").values
    events = trace.instance_events.column("time").values
    ids = np.unique(trace.instance_events.column("collection_id").values)
    args = {
        "window": _windows(rng, counts["window"], usage.min(), usage.max(),
                           WINDOW_SHARE),
        "tier_window": _windows(rng, counts["tier_window"], events.min(),
                                events.max(), TIER_WINDOW_SHARE),
        "lookup": [tuple(int(c) for c in rng.choice(ids, LOOKUP_IDS, replace=False))
                   for _ in range(counts["lookup"])],
        "full": [TIERS[i % len(TIERS)] for i in range(counts["full"])],
    }
    queries = [(kind, arg) for kind, _ in MIX for arg in args[kind]]
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def run_query(store, query: Query):
    """Execute one query; returns (answer, the executed Scan)."""
    kind, arg = query
    if kind == "window":
        scan = store.scan("instance_usage").where(
            Between("start_time", *arg))
        return scan.aggregate(*USAGE_AGGS), scan
    if kind == "tier_window":
        scan = (store.scan("instance_events")
                .where(Between("time", *arg)
                       & Compare("tier", "==", "prod"))
                .select(*PROJECTION))
        return scan.to_table(), scan
    if kind == "lookup":
        scan = (store.scan("instance_events")
                .where(IsIn("collection_id", arg)).select(*PROJECTION))
        return scan.to_table(), scan
    scan = store.scan("instance_usage").where(Compare("tier", "==", arg))
    return scan.aggregate(*FULL_AGGS, workers=FULL_WORKERS), scan


def reference_answer(trace, query: Query):
    """The same query answered with NumPy from the in-memory trace."""
    kind, arg = query
    if kind in ("window", "full"):
        usage = trace.instance_usage
        if kind == "window":
            start = usage.column("start_time").values
            mask = (start >= arg[0]) & (start <= arg[1])
        else:
            mask = usage.column("tier").values == arg
        cpu = usage.column("avg_cpu").values[mask]
        if kind == "window":
            mem = usage.column("max_mem").values[mask]
            return {"count": int(mask.sum()), "sum(avg_cpu)": float(cpu.sum()),
                    "max(max_mem)": mem.max() if len(mem) else None}
        mem = usage.column("avg_mem").values[mask]
        return {"count": int(mask.sum()), "sum(avg_cpu)": float(cpu.sum()),
                "sum(avg_mem)": float(mem.sum())}
    events = trace.instance_events
    if kind == "tier_window":
        time_ = events.column("time").values
        mask = ((time_ >= arg[0]) & (time_ <= arg[1])
                & (events.column("tier").values == "prod"))
    else:
        mask = np.isin(events.column("collection_id").values, arg)
    return table_digest(events.filter(mask).select(*PROJECTION))


def answer_matches(answer, reference) -> bool:
    if isinstance(reference, tuple):
        return table_digest(answer) == reference
    if answer.keys() != reference.keys():
        return False
    for key, want in reference.items():
        got = answer[key]
        if isinstance(want, float) and key.startswith("sum"):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif got != want:
            return False
    return True


def queries_setup(ctx: Ctx) -> State:
    tracer, ops = ctx.tracer, ctx.ops
    s = QUERY_SCALES[ctx.scale]
    path = ctx.work_dir / "queries" / "a"
    with tracer.span("workload.build"):
        scenario, = scenarios_2019(
            seed=ctx.seed, machines_per_cell=s.machines, horizon_hours=s.hours,
            arrival_scale=s.arrival_scale, cells=["a"])
    ctx.layer["workload.collections"] = len(scenario.workload)
    with ops.op("simulate"), tracer.span("sim.run"):
        result = scenario.run()
    sim_counters(ctx, [result.counters])
    with ops.op("encode"), tracer.span("trace.encode"):
        trace = encode_cell(result)
    del result, scenario
    with tracer.excluded("bench.validate"):
        violations = validate_trace(trace)
        ops.check(not violations, f"{len(violations)} trace violations, "
                  f"first: {violations[:1]}")
    ctx.layer["trace.rows"] = sum(len(t) for t in trace.tables.values())
    with tracer.span("bench.prefix"):
        trace = time_prefix(trace, TABLE_ROWS[ctx.scale])
    with ops.op("write"), tracer.span("store.write"):
        save_trace(trace, path, format="store", chunk_rows=CHUNK_ROWS)
    rows = sum(len(t) for t in trace.tables.values())
    with tracer.excluded("bench.store_stats"):
        count_store(ctx, [path], rows)
    with tracer.span("bench.reference"):
        queries = make_queries(ctx.seed, N_QUERIES[ctx.scale], trace)
        answers = [reference_answer(trace, q) for q in queries]
    del trace
    gc.collect()
    return State(path, queries, answers)


def queries_timed(ctx: Ctx, state: State) -> None:
    tracer, ops = ctx.tracer, ctx.ops
    latencies: Dict[str, List[float]] = {kind: [] for kind, _ in MIX}
    totals = np.zeros(4, dtype=np.int64)
    with ops.op("open"), tracer.span("store.open"):
        store = open_store(state.path)
    for query, reference in zip(state.queries, state.answers):
        kind = query[0]
        with ops.op(kind), tracer.span(f"store.scan.{kind}"):
            t0 = time.perf_counter()
            answer, scan = run_query(store, query)
            latencies[kind].append(time.perf_counter() - t0)
        with tracer.excluded("bench.answer"):
            st = scan.last_stats
            totals += (st.chunks_total, st.chunks_skipped, st.rows_decoded,
                       st.rows_matched)
            ops.check(answer_matches(answer, reference),
                      f"wrong answer to {query}")
    ctx.mark_peak()
    cache = store.cache.stats
    ctx.cache_stats(cache.hits, cache.misses, cache.evictions)
    ctx.latencies = latencies
    ctx.layer.update({
        "store.chunks_total": int(totals[0]),
        "store.chunks_skipped": int(totals[1]),
        "store.rows_decoded": int(totals[2]),
        "store.rows_matched": int(totals[3]),
    })
