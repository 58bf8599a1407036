"""Property-based tests for event-log invariants under fault injection.

Hypothesis draws a small workload *and* a fault-injection configuration
(correlated crash/outage rates, maintenance and upgrade schedules, a
resubmission policy); every run must satisfy the event-log invariants
that make traces analyzable:

* every instance incarnation (SCHEDULE ..) ends in exactly one closing
  event — a terminal EVICT/FAIL/FINISH/KILL, or the requeueing SUBMIT
  of a graceful drain — never a double-kill or a silent drop;
* no instance is scheduled onto a machine while it is down;
* replaying the event log never drives a machine's allocation negative;
* resubmission backoff delays strictly increase up to the policy cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultParams, ResubmitPolicy
from repro.sim import CellConfig, CellSim, Machine, Resources, Tier
from repro.sim.entities import EndReason, InstanceState
from repro.util.rng import RngFactory
from repro.workload.jobs import build_simple_job

HORIZON = 4 * 3600.0
N_MACHINES = 6

PRIORITY = {Tier.FREE: 25, Tier.BEB: 112, Tier.MID: 117, Tier.PROD: 200}

job_strategy = st.fixed_dictionaries({
    "tier": st.sampled_from([Tier.FREE, Tier.BEB, Tier.MID, Tier.PROD]),
    "submit": st.floats(min_value=0.0, max_value=HORIZON * 0.8),
    "duration": st.floats(min_value=60.0, max_value=HORIZON),
    "n_tasks": st.integers(min_value=1, max_value=4),
    "cpu": st.floats(min_value=0.01, max_value=0.2),
    "end": st.sampled_from([EndReason.FINISH, EndReason.FAIL,
                            EndReason.KILL]),
})

fault_strategy = st.fixed_dictionaries({
    "machines_per_rack": st.integers(min_value=1, max_value=4),
    "racks_per_power_domain": st.integers(min_value=1, max_value=3),
    "rack_crash_rate_per_day": st.floats(min_value=0.0, max_value=40.0),
    "crash_duration": st.floats(min_value=60.0, max_value=1800.0),
    "power_outage_rate_per_day": st.floats(min_value=0.0, max_value=10.0),
    "power_outage_duration": st.floats(min_value=120.0, max_value=3600.0),
    "maintenance_interval_days": st.sampled_from([0.0, 0.05, 0.1]),
    "upgrade_period_hours": st.sampled_from([0.0, 1.5, 3.0]),
})

policy_strategy = st.fixed_dictionaries({
    "base_delay": st.floats(min_value=10.0, max_value=120.0),
    "multiplier": st.floats(min_value=1.5, max_value=3.0),
    "max_delay": st.floats(min_value=200.0, max_value=2000.0),
    "max_attempts": st.integers(min_value=1, max_value=6),
    "user_retry_budget": st.integers(min_value=1, max_value=50),
    "refail_prob": st.floats(min_value=0.0, max_value=1.0),
})


def build_workload(specs):
    return [build_simple_job(
        collection_id=i + 1, tier=spec["tier"], user=f"user_{i % 3}",
        submit_time=spec["submit"], priority=PRIORITY[spec["tier"]],
        n_tasks=spec["n_tasks"], duration=spec["duration"],
        cpu_usage=spec["cpu"], mem_usage=spec["cpu"],
        cpu_fraction=0.5, mem_fraction=0.5, planned_end=spec["end"],
        batch_queueing=False,
    ) for i, spec in enumerate(specs)]


def run(specs, fault_kwargs, policy_kwargs, seed):
    faults = FaultParams(resubmit=ResubmitPolicy(**policy_kwargs),
                         **fault_kwargs)
    config = CellConfig(name="prop-faults", era="2019", horizon=HORIZON,
                        faults=faults)
    machines = [Machine(i, Resources(1.0, 1.0)) for i in range(N_MACHINES)]
    sim = CellSim(config, machines, build_workload(specs), RngFactory(seed))
    sim.run()
    return sim


def _per_instance_events(sim):
    """Instance events grouped per (collection_id, index), in log order."""
    grouped = {}
    for event in sim.events.instance_events:
        grouped.setdefault(
            (event.collection_id, event.instance_index), []).append(event)
    return grouped


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), fault_strategy,
       policy_strategy, st.integers(min_value=0, max_value=1000))
def test_every_incarnation_ends_in_one_terminal_event(
        specs, fault_kwargs, policy_kwargs, seed):
    sim = run(specs, fault_kwargs, policy_kwargs, seed)
    for key, events in _per_instance_events(sim).items():
        running = False
        queue_killed = False
        for event in events:
            name = event.event.value
            if name == "SCHEDULE":
                assert not running, f"{key}: double SCHEDULE"
                assert not queue_killed, f"{key}: revived after queue-kill"
                running = True
            elif event.event.is_terminal:
                if running:
                    running = False  # exactly one closer per incarnation
                else:
                    # A never-scheduled (queued) instance may be killed
                    # once; nothing can follow.
                    assert not queue_killed, f"{key}: double terminal"
                    queue_killed = True
            elif name == "SUBMIT" and not event.is_new and running:
                # A planned outage *drains* the instance: the incarnation
                # closes with a requeueing SUBMIT instead of a terminal
                # (Borg's eviction SLO — see CellSim._drain_instance).
                running = False
        # At the horizon an instance is either still running or fully
        # terminated — replay never ends mid-anomaly (running is a valid
        # end state; the encoder closes those intervals at the horizon).


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), fault_strategy,
       policy_strategy, st.integers(min_value=0, max_value=1000))
def test_no_schedule_on_a_down_machine(specs, fault_kwargs, policy_kwargs,
                                       seed):
    sim = run(specs, fault_kwargs, policy_kwargs, seed)
    down_intervals = {i: [] for i in range(N_MACHINES)}
    down_since = {}
    for event in sim.events.machine_events:
        if event.event == "REMOVE":
            down_since[event.machine_id] = event.time
        elif event.event == "ADD" and event.machine_id in down_since:
            down_intervals[event.machine_id].append(
                (down_since.pop(event.machine_id), event.time))
    for machine_id, start in down_since.items():
        down_intervals[machine_id].append((start, float("inf")))
    for event in sim.events.instance_events:
        if event.event.value != "SCHEDULE" or event.machine_id < 0:
            continue
        for start, end in down_intervals[event.machine_id]:
            assert not (start < event.time < end), (
                f"SCHEDULE at t={event.time} on machine "
                f"{event.machine_id}, down over ({start}, {end})")


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), fault_strategy,
       policy_strategy, st.integers(min_value=0, max_value=1000))
def test_allocation_replay_never_negative(specs, fault_kwargs,
                                          policy_kwargs, seed):
    sim = run(specs, fault_kwargs, policy_kwargs, seed)
    alloc_cpu = {i: 0.0 for i in range(N_MACHINES)}
    placed_on = {}
    for event in sim.events.instance_events:
        key = (event.collection_id, event.instance_index)
        if event.event.value == "SCHEDULE" and event.machine_id >= 0:
            alloc_cpu[event.machine_id] += event.cpu_request
            placed_on[key] = (event.machine_id, event.cpu_request)
        elif (event.event.is_terminal
              or (event.event.value == "SUBMIT" and not event.is_new)) \
                and key in placed_on:
            # Terminals and drain requeues both free the placement.
            machine_id, request = placed_on.pop(key)
            alloc_cpu[machine_id] -= request
            assert alloc_cpu[machine_id] >= -1e-9, (
                f"machine {machine_id} allocation went negative")
    # Residual replayed allocation is exactly the instances still
    # running at the horizon (the simulator clears machine placements
    # during finalization, so compare against instance state).
    still_running = {
        (c.collection_id, i.index): i.request.cpu
        for c in sim.collections for i in c.instances
        if i.state is InstanceState.RUNNING}
    assert set(placed_on) == set(still_running)
    residual = sum(alloc_cpu.values())
    assert abs(residual - sum(still_running.values())) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.lists(job_strategy, min_size=1, max_size=8), fault_strategy,
       policy_strategy, st.integers(min_value=0, max_value=1000))
def test_backoff_delays_strictly_increase_to_cap(specs, fault_kwargs,
                                                 policy_kwargs, seed):
    sim = run(specs, fault_kwargs, policy_kwargs, seed)
    cap = policy_kwargs["max_delay"]
    chains = {}
    for event in sim.events.resubmit_events:
        chains.setdefault(event.root_collection_id, []).append(event)
    for chain in chains.values():
        chain.sort(key=lambda e: e.attempt)
        delays = [e.delay for e in chain]
        for prev, cur in zip(delays, delays[1:]):
            assert cur > prev or (cur == prev == cap), (
                f"backoff not increasing below the cap: {delays}")
        assert all(d <= cap + 1e-9 for d in delays)
