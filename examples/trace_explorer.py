#!/usr/bin/env python
"""Ad-hoc trace exploration with the columnar query engine.

The paper's authors ran "near-arbitrary queries against a multi-GiB
dataset" on BigQuery (section 9); this example shows the equivalent
workflow here: persist a trace to disk, load it back, and answer
questions with the relational API (filter / group_by / join), using
column operators for filter masks and derived columns.

    python examples/trace_explorer.py [seed]
"""

import sys
import tempfile
from pathlib import Path

from repro.trace import encode_cell, load_trace, save_trace, to_2011_tables
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import small_test_scenario


def main(seed: int = 4) -> None:
    print("== simulate and persist a trace ==")
    trace = encode_cell(small_test_scenario(seed=seed).run())
    workdir = Path(tempfile.mkdtemp(prefix="borg-trace-"))
    save_trace(trace, workdir)
    print(f"  wrote {sorted(p.name for p in workdir.iterdir())}")
    print(f"  to {workdir}")

    trace = load_trace(workdir)

    print("\n== Q1: who submits the most jobs? ==")
    events = trace.collection_events
    submits = events.filter(
        (events["type"] == "SUBMIT") & (events["collection_type"] == "job"))
    top_users = (submits.group_by("user")
                 .agg(jobs=("collection_id", "nunique"))
                 .sort("jobs", descending=True)
                 .head(5))
    print(top_users.to_string())

    print("\n== Q2: kill rate by tier ==")
    terminals = events.filter(
        events["type"].isin(["FINISH", "KILL", "FAIL", "EVICT"]))
    by_tier = (terminals
               .with_column("killed", terminals["type"] == "KILL")
               .group_by("tier")
               .agg(jobs=("collection_id", "count"),
                    kill_rate=("killed", "mean"))
               .sort("tier"))
    print(by_tier.to_string())

    print("\n== Q3: join usage against machine capacity (hottest machines) ==")
    usage = trace.instance_usage
    usage = usage.with_column(
        "cpu_hours", usage["avg_cpu"] * usage["duration"] / HOUR_SECONDS)
    per_machine = (usage.group_by("machine_id")
                   .agg(cpu_hours=("cpu_hours", "sum")))
    joined = per_machine.join(trace.machine_attributes, on="machine_id")
    hottest = (joined
               .with_column("mean_util",
                            joined["cpu_hours"] / (joined["cpu_capacity"]
                                                   * trace.horizon_hours))
               .sort("mean_util", descending=True)
               .select("machine_id", "platform", "cpu_capacity", "mean_util")
               .head(5))
    print(hottest.to_string())

    print("\n== Q4: export in the 2011 CSV layout ==")
    legacy = to_2011_tables(trace)
    for name, table in legacy.items():
        print(f"  {name}: {len(table)} rows, columns {table.column_names}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
