"""Tests for the fault-injection subsystem (repro.faults) and the user
archetypes (repro.workload.archetypes).

Covers the pure pieces (failure domains, schedules, backoff policies,
profiles, archetype generation) and the simulator integration: injected
machine outages evict and requeue work, resubmission chains respect the
backoff policy and budgets, and a faults-off run is untouched.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import (
    FAULT_PROFILES,
    FailureDomains,
    FaultParams,
    ResubmitPolicy,
    fault_profile,
    generate_fault_schedule,
    resolve_faults,
)
from repro.faults.schedule import FAULT_KINDS
from repro.util.rng import RngFactory
from repro.util.timeutil import HOUR_SECONDS
from repro.workload import (
    ARCHETYPE_MIXES,
    ArchetypeMix,
    ArchetypeWorkload,
    archetype_of_user,
    small_test_scenario,
)
from repro.workload.archetypes import resolve_archetype_mix
from repro.workload.params import era_2011, era_2019
from repro.sim.resources import Resources


class TestFailureDomains:
    def test_block_assignment(self):
        d = FailureDomains(n_machines=20, machines_per_rack=8,
                           racks_per_power_domain=2)
        assert d.n_racks == 3           # 8 + 8 + 4 machines
        assert d.n_power_domains == 2   # racks {0,1}, {2}
        assert d.rack_of(0) == 0 and d.rack_of(7) == 0
        assert d.rack_of(8) == 1 and d.rack_of(19) == 2
        assert d.power_domain_of_rack(1) == 0
        assert d.power_domain_of_rack(2) == 1
        assert d.rack_members(2) == tuple(range(16, 20))
        assert d.power_domain_members(0) == tuple(range(0, 16))

    def test_every_machine_in_exactly_one_rack(self):
        d = FailureDomains(n_machines=24, machines_per_rack=5,
                           racks_per_power_domain=3)
        seen = [m for r in range(d.n_racks) for m in d.rack_members(r)]
        assert sorted(seen) == list(range(24))
        pd_seen = [m for p in range(d.n_power_domains)
                   for m in d.power_domain_members(p)]
        assert sorted(pd_seen) == list(range(24))

    def test_range_checks(self):
        d = FailureDomains(n_machines=8, machines_per_rack=4,
                           racks_per_power_domain=2)
        with pytest.raises(ValueError):
            d.rack_of(8)
        with pytest.raises(ValueError):
            d.rack_members(2)


class TestResubmitPolicy:
    def test_backoff_strictly_increases_to_cap(self):
        policy = ResubmitPolicy(base_delay=60.0, multiplier=2.0,
                                max_delay=300.0, max_attempts=8)
        delays = [policy.delay(k) for k in range(1, 9)]
        assert delays[:4] == [60.0, 120.0, 240.0, 300.0]
        # Strictly increasing until the cap, then flat at the cap.
        below_cap = [d for d in delays if d < policy.max_delay]
        assert below_cap == sorted(set(below_cap))
        assert all(d == policy.max_delay for d in delays[len(below_cap):])

    def test_validation(self):
        with pytest.raises(ValueError):
            ResubmitPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            ResubmitPolicy(multiplier=0.9)
        with pytest.raises(ValueError):
            ResubmitPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            ResubmitPolicy(refail_prob=1.5)


class TestFaultParams:
    def test_scaled_multiplies_only_unplanned_rates(self):
        params = fault_profile("heavy")
        scaled = params.scaled(2.0)
        assert scaled.rack_crash_rate_per_day == \
            pytest.approx(2 * params.rack_crash_rate_per_day)
        assert scaled.power_outage_rate_per_day == \
            pytest.approx(2 * params.power_outage_rate_per_day)
        # Planned-event cadence is a schedule, not a rate: unscaled.
        assert scaled.maintenance_interval_days == \
            params.maintenance_interval_days
        assert scaled.upgrade_period_hours == params.upgrade_period_hours
        assert params.scaled(1.0) is params

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultParams(machines_per_rack=0)
        with pytest.raises(ValueError):
            FaultParams(rack_crash_rate_per_day=-0.1)
        with pytest.raises(ValueError):
            FaultParams(crash_duration=0.0)

    def test_resolve_faults(self):
        assert resolve_faults(None) is None
        assert resolve_faults("off") is None
        heavy = resolve_faults("heavy")
        assert isinstance(heavy, FaultParams)
        assert resolve_faults(heavy) is heavy
        assert resolve_faults("light", rate_scale=3.0).rack_crash_rate_per_day \
            == pytest.approx(3 * FAULT_PROFILES["light"].rack_crash_rate_per_day)
        with pytest.raises(ValueError):
            resolve_faults("nope")
        with pytest.raises(TypeError):
            resolve_faults(42)


class TestFaultSchedule:
    def _schedule(self, seed=0, **overrides):
        params = fault_profile("heavy")
        if overrides:
            import dataclasses
            params = dataclasses.replace(params, **overrides)
        domains = params.domains_for(32)
        rng = RngFactory(seed).child("cell-x").stream("faults")
        return params, generate_fault_schedule(
            params, domains, horizon=24 * HOUR_SECONDS, rng=rng)

    def test_deterministic_and_sorted(self):
        _, a = self._schedule(seed=7)
        _, b = self._schedule(seed=7)
        assert a == b
        keys = [(f.time, FAULT_KINDS.index(f.kind), f.scope, f.domain_id)
                for f in a]
        assert keys == sorted(keys)

    def test_events_within_horizon_and_domains(self):
        params, schedule = self._schedule(seed=3)
        assert schedule  # heavy profile over a day must fire something
        domains = params.domains_for(32)
        for fault in schedule:
            assert 0.0 <= fault.time < 24 * HOUR_SECONDS
            assert fault.kind in FAULT_KINDS
            assert fault.duration > 0
            assert all(0 <= m < 32 for m in fault.machine_indices)
            if fault.scope == "rack":
                assert fault.machine_indices == \
                    domains.rack_members(fault.domain_id)

    def test_zero_rates_yield_empty_schedule(self):
        _, schedule = self._schedule(
            rack_crash_rate_per_day=0.0, power_outage_rate_per_day=0.0,
            maintenance_interval_days=0.0, upgrade_period_hours=0.0)
        assert schedule == []

    def test_upgrade_sweeps_roll_rack_by_rack(self):
        params, schedule = self._schedule(
            seed=5, rack_crash_rate_per_day=0.0,
            power_outage_rate_per_day=0.0, maintenance_interval_days=0.0,
            upgrade_period_hours=8.0, upgrade_step=120.0)
        upgrades = [f for f in schedule if f.kind == "upgrade"]
        assert upgrades
        by_start = {}
        for f in upgrades:
            by_start.setdefault(round(f.time - f.domain_id * 120.0, 6),
                                []).append(f)
        for sweep in by_start.values():
            racks = sorted(f.domain_id for f in sweep)
            # Each sweep hits consecutive racks starting at 0, offset by
            # exactly one step per rack.
            assert racks == list(range(len(racks)))


class TestArchetypes:
    def _workload(self, era=None, seed=0):
        era = era or era_2019()
        rng = RngFactory(seed).child("cell-t").stream("archetypes")
        return ArchetypeWorkload(era=era, capacity=Resources(100.0, 100.0),
                                 horizon=12 * HOUR_SECONDS, rng=rng,
                                 id_offset=5_000_000)

    def test_mix_resolution(self):
        assert resolve_archetype_mix(None) is None
        mixed = resolve_archetype_mix("mixed")
        assert mixed is ARCHETYPE_MIXES["mixed"]
        assert resolve_archetype_mix(mixed) is mixed
        with pytest.raises(ValueError):
            resolve_archetype_mix("nope")
        with pytest.raises(TypeError):
            resolve_archetype_mix(1.5)
        with pytest.raises(ValueError):
            ArchetypeMix(hogs=-1)

    def test_generate_is_deterministic_and_sorted(self):
        a = self._workload(seed=9).generate(ARCHETYPE_MIXES["mixed"])
        b = self._workload(seed=9).generate(ARCHETYPE_MIXES["mixed"])
        assert [c.collection_id for c in a] == [c.collection_id for c in b]
        assert [c.submit_time for c in a] == [c.submit_time for c in b]
        times = [c.submit_time for c in a]
        assert times == sorted(times)
        assert all(0.0 <= t < 12 * HOUR_SECONDS for t in times)

    def test_users_named_by_archetype(self):
        jobs = self._workload().generate(ArchetypeMix(hogs=1, mice=2,
                                                      cron=1, bursty=1))
        kinds = {archetype_of_user(c.user) for c in jobs}
        assert kinds == {"hog", "mouse", "cron", "bursty"}
        assert archetype_of_user("user_0007") is None
        assert archetype_of_user("hog_0000") == "hog"

    def test_cron_users_submit_periodically(self):
        jobs = self._workload(seed=2).generate(ArchetypeMix(cron=1))
        times = sorted(c.submit_time for c in jobs)
        assert len(times) >= 8  # 12h horizon, period <= 1h
        gaps = np.diff(times)
        assert np.allclose(gaps, gaps[0])

    def test_era_2011_falls_back_to_supported_tiers(self):
        jobs = self._workload(era=era_2011()).generate(
            ARCHETYPE_MIXES["mixed"])
        supported = set(era_2011().tiers)
        assert jobs
        assert {c.tier for c in jobs} <= supported

    def test_ids_start_above_offset_and_are_unique(self):
        jobs = self._workload().generate(ARCHETYPE_MIXES["mixed"])
        ids = [c.collection_id for c in jobs]
        assert len(set(ids)) == len(ids)
        assert min(ids) > 5_000_000


def _rows(stream):
    """A frozen event stream's rows, with field access by attribute."""
    fields = list(stream)
    return [SimpleNamespace(**dict(zip(fields, row)))
            for row in zip(*(stream[f].tolist() for f in fields))]


class TestSimIntegration:
    @pytest.fixture(scope="class")
    def faulty_result(self):
        return small_test_scenario(seed=11, faults="heavy",
                                   archetype_mix="mixed").run()

    def test_faults_off_leaves_counters_zero(self):
        result = small_test_scenario(seed=4, machines_per_cell=8,
                                     horizon_hours=2.0).run()
        c = result.counters
        assert c.fault_events == 0
        assert c.fault_machine_outages == 0
        assert c.resubmissions == 0
        assert len(result.events.resubmit_events["time"]) == 0

    def test_faults_inject_outages_and_recoveries(self, faulty_result):
        c = faulty_result.counters
        assert c.fault_events > 0
        assert c.fault_machine_outages > 0
        machine_events = _rows(faulty_result.events.machine_events)
        removes = [e for e in machine_events if e.event == "REMOVE"]
        adds = [e for e in machine_events if e.event == "ADD" and e.time > 0]
        assert len(removes) == c.fault_machine_outages
        # Every outage inside the horizon recovers (ADD) after its
        # duration; the tail may still be down at the horizon.
        assert len(adds) >= len(removes) - len(
            faulty_result.machines)
        # All machines that recovered are up at the end or down again.
        assert any(m.up for m in faulty_result.machines)

    def test_resubmission_chains_follow_policy(self, faulty_result):
        policy = FAULT_PROFILES["heavy"].resubmit
        events = _rows(faulty_result.events.resubmit_events)
        assert events
        chains = {}
        for e in events:
            chains.setdefault(e.root_collection_id, []).append(e)
        for root, chain in chains.items():
            chain.sort(key=lambda e: e.attempt)
            attempts = [e.attempt for e in chain]
            assert attempts == list(range(1, len(chain) + 1))
            assert all(e.attempt <= policy.max_attempts for e in chain)
            for e in chain:
                assert e.delay == pytest.approx(policy.delay(e.attempt))
                assert e.root_collection_id == root

    def test_resubmitted_ids_are_fresh(self, faulty_result):
        events = _rows(faulty_result.events.resubmit_events)
        clone_ids = [e.collection_id for e in events]
        # Every clone gets a brand-new id: unique, never its
        # predecessor's, never an id from the original workload block.
        assert len(set(clone_ids)) == len(clone_ids)
        workload_ids = {e.root_collection_id for e in events}
        for e in events:
            assert e.collection_id != e.prev_collection_id
            assert e.collection_id not in workload_ids

    def test_storm_profile_resubmits_more(self, faulty_result):
        storm = small_test_scenario(seed=11, faults="storm",
                                    archetype_mix="mixed").run()
        assert storm.counters.resubmissions > \
            faulty_result.counters.resubmissions

    def test_fault_rate_zero_equivalent_profile_quiet(self):
        quiet = small_test_scenario(seed=11, faults="light",
                                    fault_rate=1e-9).run()
        assert quiet.counters.fault_events <= 2  # planned maintenance only
