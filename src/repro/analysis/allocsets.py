"""Alloc-set statistics (paper section 5.1).

The paper: 2% of collections are alloc sets; they carry 20% of CPU and
18% of RAM allocations; 15% of jobs run inside an alloc, 95% of which
are production tier; jobs inside allocs use 73% of their memory limits
versus 41% outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.common import collection_metadata, is_alloc_set
from repro.trace.dataset import TraceDataset
from repro.util.timeutil import HOUR_SECONDS


@dataclass(frozen=True)
class AllocSetReport:
    """Section 5.1's statistics."""

    alloc_set_fraction_of_collections: float
    alloc_cpu_allocation_share: float
    alloc_mem_allocation_share: float
    jobs_in_alloc_fraction: float
    in_alloc_prod_fraction: float
    mem_utilization_in_alloc: float
    mem_utilization_outside: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "alloc sets / collections": self.alloc_set_fraction_of_collections,
            "alloc share of CPU allocations": self.alloc_cpu_allocation_share,
            "alloc share of RAM allocations": self.alloc_mem_allocation_share,
            "jobs running in allocs": self.jobs_in_alloc_fraction,
            "of which production tier": self.in_alloc_prod_fraction,
            "memory utilization inside allocs": self.mem_utilization_in_alloc,
            "memory utilization outside allocs": self.mem_utilization_outside,
        }


def alloc_set_report(traces: Sequence[TraceDataset]) -> AllocSetReport:
    """Compute section 5.1's statistics pooled across cells."""
    n_collections = 0
    n_alloc_sets = 0
    n_jobs = 0
    n_jobs_in_alloc = 0
    n_jobs_in_alloc_prod = 0
    alloc_cpu_hours = 0.0
    total_cpu_hours = 0.0
    alloc_mem_hours = 0.0
    total_mem_hours = 0.0
    mem_used_in = mem_limit_in = 0.0
    mem_used_out = mem_limit_out = 0.0

    for trace in traces:
        meta = collection_metadata(trace)
        alloc_set = meta.column("collection_type") == "alloc_set"
        jobs_in_alloc = ~alloc_set & (meta.column("alloc_collection_id").values >= 0)
        n_collections += len(meta)
        n_alloc_sets += int(alloc_set.sum())
        n_jobs += len(meta) - int(alloc_set.sum())
        n_jobs_in_alloc += int(jobs_in_alloc.sum())
        n_jobs_in_alloc_prod += int(
            (jobs_in_alloc & meta.column("tier").isin(("prod", "monitoring"))).sum())

        iu = trace.instance_usage
        if len(iu) == 0:
            continue
        hours = iu.column("duration").values / HOUR_SECONDS
        limit_cpu = iu.column("limit_cpu").values * hours
        limit_mem = iu.column("limit_mem").values * hours
        used_mem = iu.column("avg_mem").values * hours
        in_alloc = iu.column("in_alloc").values
        is_alloc_row = is_alloc_set(trace, iu.column("collection_id").values)

        # Allocation shares: alloc reservations vs everything that books
        # machine room (alloc rows + direct task rows; in-alloc task rows
        # are inside the reservation, so excluded from the denominator).
        direct = ~in_alloc
        total_cpu_hours += float(limit_cpu[direct].sum())
        total_mem_hours += float(limit_mem[direct].sum())
        alloc_cpu_hours += float(limit_cpu[is_alloc_row].sum())
        alloc_mem_hours += float(limit_mem[is_alloc_row].sum())

        task_rows = ~is_alloc_row
        mem_used_in += float(used_mem[task_rows & in_alloc].sum())
        mem_limit_in += float(limit_mem[task_rows & in_alloc].sum())
        mem_used_out += float(used_mem[task_rows & ~in_alloc].sum())
        mem_limit_out += float(limit_mem[task_rows & ~in_alloc].sum())

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    return AllocSetReport(
        alloc_set_fraction_of_collections=ratio(n_alloc_sets, n_collections),
        alloc_cpu_allocation_share=ratio(alloc_cpu_hours, total_cpu_hours),
        alloc_mem_allocation_share=ratio(alloc_mem_hours, total_mem_hours),
        jobs_in_alloc_fraction=ratio(n_jobs_in_alloc, n_jobs),
        in_alloc_prod_fraction=ratio(n_jobs_in_alloc_prod, n_jobs_in_alloc),
        mem_utilization_in_alloc=ratio(mem_used_in, mem_limit_in),
        mem_utilization_outside=ratio(mem_used_out, mem_limit_out),
    )
