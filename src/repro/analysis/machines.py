"""Machine fleet analysis (paper figure 1 and part of Table 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.trace.dataset import TraceDataset


@dataclass(frozen=True)
class ShapePoint:
    """One bubble of figure 1: a (CPU, memory) shape and its frequency."""

    cpu: float
    mem: float
    count: int


def machine_shapes(traces: Sequence[TraceDataset]) -> List[ShapePoint]:
    """Figure 1: frequency of each distinct machine shape across cells."""
    counts: Dict[Tuple[float, float], int] = {}
    for trace in traces:
        attrs = trace.machine_attributes
        cpus = attrs.column("cpu_capacity").values
        mems = attrs.column("mem_capacity").values
        for cpu, mem in zip(cpus, mems):
            key = (round(float(cpu), 4), round(float(mem), 4))
            counts[key] = counts.get(key, 0) + 1
    points = [ShapePoint(cpu=k[0], mem=k[1], count=v) for k, v in counts.items()]
    points.sort(key=lambda p: -p.count)
    return points


def fleet_summary(traces: Sequence[TraceDataset]) -> Dict[str, float]:
    """Machines / shapes / platforms counts (Table 1 rows)."""
    total = 0
    shapes = set()
    platforms = set()
    for trace in traces:
        attrs = trace.machine_attributes
        total += len(attrs)
        cpus = attrs.column("cpu_capacity").values
        mems = attrs.column("mem_capacity").values
        for cpu, mem in zip(cpus, mems):
            shapes.add((round(float(cpu), 4), round(float(mem), 4)))
        platforms.update(attrs.column("platform").unique())
    return {
        "machines": total,
        "machines_per_cell": total / max(len(traces), 1),
        "machine_shapes": len(shapes),
        "hardware_platforms": len(platforms),
    }
