"""Tests for explainable scheduling (section 10, direction 1)."""

import pytest

from repro.sim import Machine, Resources, Tier
from repro.sim.entities import Collection, CollectionType, Instance
from repro.sim.explain import (
    Verdict,
    explain_placement,
    format_explanation,
)
from repro.sim.scheduler import SchedulerParams

PARAMS = SchedulerParams(overcommit_cpu=1.0, overcommit_mem=1.0)


def _occupy(machine, tier, cpu, mem, cid=1):
    c = Collection(collection_id=cid, collection_type=CollectionType.JOB,
                   priority=200, tier=tier, user="u", submit_time=0.0)
    inst = Instance(collection=c, index=0, request=Resources(cpu, mem))
    c.instances.append(inst)
    machine.place(inst)
    return inst


class TestVerdicts:
    def test_empty_machine_fits(self):
        m = Machine(0, Resources(1.0, 1.0))
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert exp.placeable and exp.chosen_machine_id == 0
        assert exp.verdicts[0].verdict is Verdict.FITS

    def test_down_machine(self):
        m = Machine(0, Resources(1.0, 1.0))
        m.up = False
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert not exp.placeable
        assert exp.verdicts[0].verdict is Verdict.MACHINE_DOWN

    def test_too_small(self):
        m = Machine(0, Resources(0.2, 0.2))
        exp = explain_placement([m], Resources(0.5, 0.1), Tier.BEB, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.TOO_SMALL

    def test_cpu_bound(self):
        m = Machine(0, Resources(1.0, 1.0))
        _occupy(m, Tier.PROD, cpu=0.9, mem=0.1)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.CPU_BOUND

    def test_mem_bound(self):
        m = Machine(0, Resources(1.0, 1.0))
        _occupy(m, Tier.PROD, cpu=0.1, mem=0.9)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.MEM_BOUND

    def test_both_bound(self):
        m = Machine(0, Resources(1.0, 1.0))
        _occupy(m, Tier.PROD, cpu=0.9, mem=0.9)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.CPU_AND_MEM_BOUND

    def test_preemptible_for_prod(self):
        m = Machine(0, Resources(1.0, 1.0))
        victim = _occupy(m, Tier.FREE, cpu=0.9, mem=0.9)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.PROD, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.PREEMPTIBLE
        assert exp.verdicts[0].victims == (victim.instance_id,)
        assert exp.placeable  # via preemption fallback

    def test_beb_cannot_preempt(self):
        m = Machine(0, Resources(1.0, 1.0))
        _occupy(m, Tier.FREE, cpu=0.9, mem=0.9)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.CPU_AND_MEM_BOUND
        assert not exp.placeable

    def test_prod_cannot_preempt_prod(self):
        m = Machine(0, Resources(1.0, 1.0))
        _occupy(m, Tier.PROD, cpu=0.9, mem=0.9)
        exp = explain_placement([m], Resources(0.3, 0.3), Tier.PROD, PARAMS)
        assert exp.verdicts[0].verdict is Verdict.CPU_AND_MEM_BOUND

    def test_best_fit_choice(self):
        tight = Machine(0, Resources(1.0, 1.0))
        _occupy(tight, Tier.PROD, cpu=0.6, mem=0.6)
        empty = Machine(1, Resources(1.0, 1.0))
        exp = explain_placement([tight, empty], Resources(0.2, 0.2),
                                Tier.BEB, PARAMS)
        assert exp.chosen_machine_id == 0  # tighter fit preferred


class TestSummaryAndAdvice:
    def test_summary_histogram(self):
        machines = [Machine(i, Resources(1.0, 1.0)) for i in range(3)]
        machines[0].up = False
        _occupy(machines[1], Tier.PROD, cpu=0.95, mem=0.1, cid=5)
        exp = explain_placement(machines, Resources(0.3, 0.3), Tier.BEB, PARAMS)
        s = exp.summary()
        assert s["machine down"] == 1
        assert s["fits"] == 1

    def test_advice_for_oversized_request(self):
        machines = [Machine(i, Resources(0.2, 0.2)) for i in range(4)]
        exp = explain_placement(machines, Resources(0.9, 0.9), Tier.BEB, PARAMS)
        advice = " ".join(exp.advice())
        assert "split the work" in advice

    def test_advice_names_binding_dimension(self):
        machines = [Machine(i, Resources(1.0, 1.0)) for i in range(3)]
        for i, m in enumerate(machines):
            _occupy(m, Tier.PROD, cpu=0.9, mem=0.1, cid=10 + i)
        exp = explain_placement(machines, Resources(0.3, 0.3), Tier.BEB, PARAMS)
        assert any("CPU-constrained" in tip for tip in exp.advice())

    def test_no_advice_when_placeable(self):
        exp = explain_placement([Machine(0, Resources(1.0, 1.0))],
                                Resources(0.1, 0.1), Tier.BEB, PARAMS)
        assert exp.advice() == []

    def test_format_renders(self):
        machines = [Machine(i, Resources(1.0, 1.0)) for i in range(2)]
        _occupy(machines[0], Tier.FREE, cpu=0.9, mem=0.9, cid=2)
        exp = explain_placement(machines, Resources(0.5, 0.5), Tier.PROD, PARAMS)
        text = format_explanation(exp)
        assert "decision" in text and "fleet verdicts" in text

    def test_format_unplaceable_shows_advice(self):
        machines = [Machine(0, Resources(0.2, 0.2))]
        exp = explain_placement(machines, Resources(0.9, 0.9), Tier.BEB, PARAMS)
        assert "advice" in format_explanation(exp)


class TestConsistencyWithScheduler:
    def test_explanation_agrees_with_policy(self):
        """If the explainer says placeable-without-preemption, the real
        policy finds a machine too (and vice versa)."""
        import numpy as np
        from repro.sim.fleet import FleetState
        from repro.sim.scheduler import PlacementPolicy

        rng = np.random.default_rng(0)
        machines = [Machine(i, Resources(float(c), float(m)))
                    for i, (c, m) in enumerate(zip(
                        rng.choice([0.25, 0.5, 1.0], 30),
                        rng.choice([0.25, 0.5, 1.0], 30)))]
        # Random pre-load.
        cid = 100
        for m in machines:
            if rng.random() < 0.7:
                _occupy(m, Tier.PROD, cpu=float(rng.uniform(0, m.capacity.cpu)),
                        mem=float(rng.uniform(0, m.capacity.mem)), cid=cid)
                cid += 1
        policy = PlacementPolicy(PARAMS, rng)
        fleet = FleetState(machines)
        for _ in range(50):
            request = Resources(float(rng.uniform(0.01, 0.6)),
                                float(rng.uniform(0.01, 0.6)))
            exp = explain_placement(machines, request, Tier.BEB, PARAMS)
            found = policy.find_machine(fleet, request)
            assert (found is not None) == any(
                v.verdict is Verdict.FITS for v in exp.verdicts)


class TestConstraintVerdicts:
    def test_mismatch_verdict(self):
        machines = [Machine(0, Resources(1.0, 1.0), platform="A"),
                    Machine(1, Resources(1.0, 1.0), platform="B")]
        exp = explain_placement(machines, Resources(0.1, 0.1), Tier.BEB,
                                PARAMS, constraint="B")
        verdicts = {v.machine_id: v.verdict for v in exp.verdicts}
        assert verdicts[0] is Verdict.CONSTRAINT_MISMATCH
        assert verdicts[1] is Verdict.FITS
        assert exp.chosen_machine_id == 1

    def test_advice_mentions_constraint(self):
        machines = [Machine(i, Resources(1.0, 1.0), platform="A")
                    for i in range(4)]
        exp = explain_placement(machines, Resources(0.1, 0.1), Tier.BEB,
                                PARAMS, constraint="Z")
        assert any("constraint" in tip for tip in exp.advice())
