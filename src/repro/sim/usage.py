"""The per-instance resource usage model.

Real tasks use only a fraction of their requested limit, with diurnal
modulation and short-term noise; the 2019 trace records this as 5-minute
samples (average and maximum usage within each window).  This module
generates those samples for a completed run interval in one vectorized
pass, which is what keeps month-scale simulations tractable.

CPU is work-conserving (usage may burst past the limit); memory is a
hard bound (usage never exceeds the limit) — paper section 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.sim.autopilot import AutopilotParams, limit_trajectory_rows
from repro.sim.priority import Tier
from repro.util.timeutil import HOUR_SECONDS, SAMPLE_PERIOD_SECONDS

#: Integer tier codes used in the packed usage arrays.  A tier's code
#: IS its preemption rank — the simulator's hot path relies on this and
#: writes ``tier.rank`` directly instead of hashing an enum key here.
TIER_CODES = {tier: tier.rank for tier in Tier}
TIER_FROM_CODE = {v: k for k, v in TIER_CODES.items()}
AUTOPILOT_CODES = {"none": 0, "fully": 1, "constrained": 2}
AUTOPILOT_FROM_CODE = {v: k for k, v in AUTOPILOT_CODES.items()}


@dataclass(frozen=True)
class UsageModelParams:
    """Knobs of the synthetic usage process."""

    #: Relative amplitude of the diurnal (24 h) usage cycle.
    diurnal_amplitude: float = 0.15
    #: Lognormal sigma of window-to-window multiplicative noise.
    noise_sigma: float = 0.18
    #: Mean ratio of within-window peak to within-window average.
    burst_mean: float = 1.25
    #: Spread of the peak/average ratio.
    burst_sigma: float = 0.12
    #: CPU usage may exceed the limit by up to this factor (work conserving).
    cpu_overage_factor: float = 1.15


class UsageModel:
    """Generates 5-minute usage samples for instance run intervals."""

    def __init__(self, params: Optional[UsageModelParams] = None,
                 sample_period: float = SAMPLE_PERIOD_SECONDS,
                 utc_offset_hours: float = 0.0):
        self.params = params or UsageModelParams()
        if sample_period <= 0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        self.sample_period = sample_period
        self.utc_offset_hours = utc_offset_hours

    def window_starts(self, start: float, end: float) -> np.ndarray:
        """Grid-aligned sample-window start times covering [start, end)."""
        if end <= start:
            return np.empty(0)
        first = np.floor(start / self.sample_period) * self.sample_period
        return np.arange(first, end, self.sample_period)

    def _diurnal(self, t: np.ndarray) -> np.ndarray:
        """Multiplicative diurnal factor peaking mid-afternoon local time."""
        local_hours = (t / HOUR_SECONDS + self.utc_offset_hours) % 24.0
        phase = 2.0 * np.pi * (local_hours - 15.0) / 24.0
        return 1.0 + self.params.diurnal_amplitude * np.cos(phase)

    def sample_interval(self, rng: np.random.Generator, start: float, end: float,
                        cpu_limit: float, mem_limit: float,
                        cpu_fraction: float, mem_fraction: float) -> Dict[str, np.ndarray]:
        """Usage samples for one run interval.

        Returns a dict of equal-length arrays: ``window_start``,
        ``duration`` (seconds of the window actually overlapped by the
        run), ``avg_cpu``, ``max_cpu``, ``avg_mem``, ``max_mem``.
        """
        starts = self.window_starts(start, end)
        n = len(starts)
        if n == 0:
            return {k: np.empty(0) for k in
                    ("window_start", "duration", "avg_cpu", "max_cpu", "avg_mem", "max_mem")}
        p = self.params

        window_ends = np.minimum(starts + self.sample_period, end)
        window_begin = np.maximum(starts, start)
        duration = window_ends - window_begin

        diurnal = self._diurnal(starts + self.sample_period / 2.0)
        noise = rng.lognormal(mean=0.0, sigma=p.noise_sigma, size=n)
        avg_cpu = cpu_limit * cpu_fraction * diurnal * noise
        # CPU is work-conserving: clip at a soft overage above the limit.
        avg_cpu = np.clip(avg_cpu, 0.0, cpu_limit * p.cpu_overage_factor)

        burst = np.maximum(1.0, rng.normal(p.burst_mean, p.burst_sigma, size=n))
        max_cpu = np.clip(avg_cpu * burst, avg_cpu, cpu_limit * p.cpu_overage_factor)

        # Memory: slow random walk around the target fraction, hard-capped.
        mem_noise = rng.lognormal(mean=0.0, sigma=p.noise_sigma * 0.5, size=n)
        avg_mem = np.clip(mem_limit * mem_fraction * mem_noise, 0.0, mem_limit)
        mem_burst = np.maximum(1.0, rng.normal(1.05, 0.03, size=n))
        max_mem = np.clip(avg_mem * mem_burst, avg_mem, mem_limit)

        return {
            "window_start": starts,
            "duration": duration,
            "avg_cpu": avg_cpu,
            "max_cpu": max_cpu,
            "avg_mem": avg_mem,
            "max_mem": max_mem,
        }


class _IntervalRecord(NamedTuple):
    """One closed run interval, queued for batched sample materialization.

    Every field is a scalar captured at stop time, so deferring the
    sampling to the end of the run cannot observe later mutations.
    """

    is_alloc: bool
    collection_id: int
    instance_index: int
    machine_id: int
    tier_code: int
    autopilot_code: int
    in_alloc: bool
    start: float
    end: float
    cpu_limit: float
    mem_limit: float
    cpu_fraction: float
    mem_fraction: float


#: Column indices of the packed (n_records, 13) float matrix ``finalize``
#: builds from the record list (field order of :class:`_IntervalRecord`).
_F_IS_ALLOC = _IntervalRecord._fields.index("is_alloc")
_F_COLLECTION_ID = _IntervalRecord._fields.index("collection_id")
_F_INSTANCE_INDEX = _IntervalRecord._fields.index("instance_index")
_F_MACHINE_ID = _IntervalRecord._fields.index("machine_id")
_F_TIER_CODE = _IntervalRecord._fields.index("tier_code")
_F_AUTOPILOT = _IntervalRecord._fields.index("autopilot_code")
_F_IN_ALLOC = _IntervalRecord._fields.index("in_alloc")
_F_START = _IntervalRecord._fields.index("start")
_F_END = _IntervalRecord._fields.index("end")
_F_CPU_LIMIT = _IntervalRecord._fields.index("cpu_limit")
_F_MEM_LIMIT = _IntervalRecord._fields.index("mem_limit")
_F_CPU_FRACTION = _IntervalRecord._fields.index("cpu_fraction")
_F_MEM_FRACTION = _IntervalRecord._fields.index("mem_fraction")


class UsageBatch:
    """Accumulates run intervals and materializes usage samples in bulk.

    The simulator used to call :meth:`UsageModel.sample_interval` once per
    closed run interval (tens of thousands of small numpy calls per cell).
    ``UsageBatch`` instead records each interval as a scalar tuple and
    generates all sample columns in one vectorized pass at finalize time.

    Bit-exactness contract: the output is byte-identical to the
    per-interval path.  Two things make that hold:

    * The noise draws keep the per-interval RNG call sequence: four
      ``Generator`` calls per record, in record order (cpu noise, cpu
      burst, mem noise, mem burst), each sized to the record's window
      count.
    * All arithmetic keeps the scalar path's operation order (e.g.
      ``(limit * fraction) * diurnal * noise``), with per-interval
      scalars broadcast via ``np.repeat``.

    Only the draws stay per record; the materialization tail — the part
    that replaced the old per-interval ``sample_interval`` calls and
    per-record autopilot loop — runs as bulk NumPy over all records.
    """

    COLUMNS = (
        "collection_id", "instance_index", "machine_id", "tier_code",
        "autopilot_code", "in_alloc", "window_start", "duration",
        "avg_cpu", "max_cpu", "avg_mem", "max_mem", "cpu_limit", "mem_limit",
    )

    def __init__(self, model: UsageModel, autopilot: AutopilotParams):
        self._model = model
        self._autopilot = autopilot
        self._records: List[_IntervalRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def add_task(self, *, collection_id: int, instance_index: int,
                 machine_id: int, tier_code: int, autopilot_code: int,
                 in_alloc: bool, start: float, end: float,
                 cpu_limit: float, mem_limit: float,
                 cpu_fraction: float, mem_fraction: float) -> None:
        """Queue a task run interval (samples drawn at finalize)."""
        self._records.append(_IntervalRecord(
            False, collection_id, instance_index, machine_id, tier_code,
            autopilot_code, in_alloc, start, end, cpu_limit, mem_limit,
            cpu_fraction, mem_fraction,
        ))

    def add_alloc(self, *, collection_id: int, instance_index: int,
                  machine_id: int, tier_code: int, autopilot_code: int,
                  start: float, end: float,
                  cpu_limit: float, mem_limit: float) -> None:
        """Queue an alloc-instance reservation interval (zero usage)."""
        self._records.append(_IntervalRecord(
            True, collection_id, instance_index, machine_id, tier_code,
            autopilot_code, False, start, end, cpu_limit, mem_limit,
            0.0, 0.0,
        ))

    def finalize(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Materialize all queued intervals into usage-sample columns."""
        model = self._model
        period = model.sample_period
        records = self._records
        if not records:
            return {c: np.empty(0) for c in self.COLUMNS}

        # One pass from the namedtuple list into a (n, 13) float matrix;
        # every scalar field (ints, bools, floats) is exact in float64.
        # Column slices replace the dozen per-field list comprehensions
        # the flush used to pay.
        rec = np.array(records, dtype=np.float64)
        start_arr = rec[:, _F_START]
        end_arr = rec[:, _F_END]
        # The grid :meth:`UsageModel.window_starts` builds per interval
        # is ``np.arange(first, end, period)``, which has
        # ``ceil((end - first) / period)`` elements and equals
        # ``first + k * period`` element-for-element — so the full
        # concatenated grid can be produced directly, without an arange
        # call per interval.
        first = np.floor(start_arr / period) * period
        counts = np.maximum(
            np.ceil((end_arr - first) / period).astype(np.int64), 0)
        n_rows = int(counts.sum())
        if n_rows == 0:
            return {c: np.empty(0) for c in self.COLUMNS}
        row_offsets = np.cumsum(counts) - counts
        within = np.arange(n_rows) - np.repeat(row_offsets, counts)
        window_start = np.repeat(first, counts) + within * period

        start_rep = np.repeat(start_arr, counts)
        end_rep = np.repeat(end_arr, counts)
        duration = (np.minimum(window_start + period, end_rep)
                    - np.maximum(window_start, start_rep))
        cpu_limit = np.repeat(rec[:, _F_CPU_LIMIT], counts)
        mem_limit = np.repeat(rec[:, _F_MEM_LIMIT], counts)
        avg_cpu = np.zeros(n_rows)
        max_cpu = np.zeros(n_rows)
        avg_mem = np.zeros(n_rows)
        max_mem = np.zeros(n_rows)

        task_j = np.flatnonzero(rec[:, _F_IS_ALLOC] == 0.0)
        if task_j.size:
            t_counts = counts[task_j]
            n_task = int(t_counts.sum())
            t_excl = np.cumsum(t_counts) - t_counts
            task_rows = (np.repeat(row_offsets[task_j] - t_excl, t_counts)
                         + np.arange(n_task))
            p = model.params
            noise_sigma = p.noise_sigma
            mem_sigma = p.noise_sigma * 0.5
            burst_mean, burst_sigma = p.burst_mean, p.burst_sigma
            noise = np.empty(n_task)
            burst_raw = np.empty(n_task)
            mem_noise = np.empty(n_task)
            mem_burst_raw = np.empty(n_task)
            lognormal, normal = rng.lognormal, rng.normal
            off = 0
            for n in t_counts.tolist():
                if n == 0:
                    # The per-interval path returned before drawing
                    # when the grid was empty; consume nothing here.
                    continue
                # Four draws per interval, record order: the scalar
                # path's exact RNG call sequence (class docstring).
                end = off + n
                noise[off:end] = lognormal(mean=0.0, sigma=noise_sigma,
                                           size=n)
                burst_raw[off:end] = normal(burst_mean, burst_sigma,
                                            size=n)
                mem_noise[off:end] = lognormal(mean=0.0, sigma=mem_sigma,
                                               size=n)
                mem_burst_raw[off:end] = normal(1.05, 0.03, size=n)
                off = end

            diurnal = model._diurnal(window_start[task_rows] + period / 2.0)
            cl = rec[task_j, _F_CPU_LIMIT]
            ml = rec[task_j, _F_MEM_LIMIT]
            cf = rec[task_j, _F_CPU_FRACTION]
            mf = rec[task_j, _F_MEM_FRACTION]
            cpu_cap = np.repeat(cl * p.cpu_overage_factor, t_counts)
            avg_c = np.clip(np.repeat(cl * cf, t_counts) * diurnal * noise,
                            0.0, cpu_cap)
            burst = np.maximum(1.0, burst_raw)
            max_c = np.clip(avg_c * burst, avg_c, cpu_cap)
            ml_rep = np.repeat(ml, t_counts)
            avg_m = np.clip(np.repeat(ml * mf, t_counts) * mem_noise,
                            0.0, ml_rep)
            mem_burst = np.maximum(1.0, mem_burst_raw)
            max_m = np.clip(avg_m * mem_burst, avg_m, ml_rep)

            # Autopilot limit trajectories are causal *within* one run
            # interval; mode NONE (the common case) is just the repeated
            # request limit, already in place.  The flagged minority of
            # records runs through one row-vectorized controller pass
            # (bit-equal to per-record limit_trajectory calls) instead
            # of two Python calls per record.
            cpu_lim_t = np.repeat(cl, t_counts)
            mem_lim_t = np.repeat(ml, t_counts)
            ap_codes = rec[task_j, _F_AUTOPILOT]
            ap = np.flatnonzero(ap_codes)
            if ap.size:
                seg_counts = t_counts[ap]
                m = int(seg_counts.sum())
                if m:
                    excl = np.cumsum(seg_counts) - seg_counts
                    rows = (np.repeat(t_excl[ap] - excl, seg_counts)
                            + np.arange(m))
                    wpos = np.arange(m) - np.repeat(excl, seg_counts)
                    auto = self._autopilot
                    frac = np.where(
                        ap_codes[ap] == AUTOPILOT_CODES["fully"],
                        auto.min_limit_fraction_fully,
                        auto.min_limit_fraction_constrained)
                    frac_rows = np.repeat(frac, seg_counts)
                    init_c = np.repeat(cl[ap], seg_counts)
                    cpu_lim_t[rows] = limit_trajectory_rows(
                        wpos, max_c[rows], init_c, init_c * frac_rows, auto)
                    init_m = np.repeat(ml[ap], seg_counts)
                    mem_lim_t[rows] = limit_trajectory_rows(
                        wpos, max_m[rows], init_m, init_m * frac_rows, auto)

            avg_cpu[task_rows] = avg_c
            max_cpu[task_rows] = max_c
            avg_mem[task_rows] = avg_m
            max_mem[task_rows] = max_m
            cpu_limit[task_rows] = cpu_lim_t
            mem_limit[task_rows] = mem_lim_t

        def rep(col: int, dtype) -> np.ndarray:
            return np.repeat(rec[:, col].astype(dtype), counts)

        return {
            "collection_id": rep(_F_COLLECTION_ID, np.int64),
            "instance_index": rep(_F_INSTANCE_INDEX, np.int32),
            "machine_id": rep(_F_MACHINE_ID, np.int32),
            "tier_code": rep(_F_TIER_CODE, np.int8),
            "autopilot_code": rep(_F_AUTOPILOT, np.int8),
            "in_alloc": rep(_F_IN_ALLOC, bool),
            "window_start": window_start,
            "duration": duration,
            "avg_cpu": avg_cpu,
            "max_cpu": max_cpu,
            "avg_mem": avg_mem,
            "max_mem": max_mem,
            "cpu_limit": cpu_limit,
            "mem_limit": mem_limit,
        }


def diurnal_rate_factor(t: float, utc_offset_hours: float,
                        amplitude: float = 0.25) -> float:
    """Diurnal scaling for arrival rates (peaks mid-afternoon local time).

    Shared by the workload generators so the load cycle the paper sees in
    section 4.1 (Singapore's cell g busy when US cells sleep) emerges
    from cell time zones.
    """
    local_hours = (t / HOUR_SECONDS + utc_offset_hours) % 24.0
    phase = 2.0 * np.pi * (local_hours - 15.0) / 24.0
    return 1.0 + amplitude * float(np.cos(phase))
