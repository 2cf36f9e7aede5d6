"""Executor invariants, checked across every schedule family.

For each schedule the simulated timeline must satisfy, independent of
policy details:

* no two occupying events overlap on one device;
* every task starts at or after the end of each of its dependencies;
* per-key in-flight occupancy never exceeds the configured limit (checked
  both via ``peak_inflight`` and by replaying the event intervals).

The fixed named CASES below pin known-interesting topologies; the
seeded-random fuzz section then sweeps randomized configurations
(depth, N_micro, virtual chunks, data parallelism, ragged costs) through
the same invariants plus schedule-specific bubble bounds, so executor or
schedule-builder refactors are exercised far beyond the hand-picked
examples.  Seeds are fixed — every CI run checks the same configs.
"""

import random

import numpy as np
import pytest

from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.pipeline import PipelineConfig, make_schedule, simulate_tasks
from repro.pipeline.bubbles import OCCUPYING_KINDS
from repro.pipeline.executor import compile_graph, simulate_compiled
from repro.pipeline.spec import get_spec, schedule_names
from repro.stochastic import (
    Perturbation,
    StochasticModel,
    perturbed_durations,
    sample_perturbation,
)
from repro.sweep import batch as sweep_batch
from repro.sweep import native

#: Every registered schedule family, in registry order — fuzzing is
#: spec-driven, so a newly registered schedule is covered automatically.
FAMILIES = tuple(schedule_names())


def costs(tf=1.0, tb=2.0, overhead=0.1):
    block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=0.1, t_curv_b=0.1,
                      t_inv=0.3, t_prec=0.05)
    return StageCosts(block=block, layers_per_stage=1, t_overhead=overhead,
                      kernel_density=1.0)


#: name -> (schedule, config) covering one- and multi-stage-per-device
#: topologies, data parallelism, and multi-step flushes.
CASES = {
    "gpipe": ("gpipe", dict(depth=4, n_micro=6)),
    "gpipe-dp": ("gpipe", dict(depth=4, n_micro=4, dp=2,
                               stage_param_bytes=1e8)),
    "1f1b": ("1f1b", dict(depth=4, n_micro=8)),
    "1f1b-precond": ("1f1b", dict(depth=4, n_micro=4, precondition=True)),
    "chimera": ("chimera", dict(depth=4, n_micro=8,
                                stage_param_bytes=1e8)),
    "chimera-dp": ("chimera", dict(depth=4, n_micro=4, dp=2,
                                   stage_param_bytes=1e8)),
    "interleaved-v2": ("interleaved", dict(depth=8, n_micro=8,
                                           virtual_chunks=2)),
    "interleaved-v3": ("interleaved", dict(depth=6, n_micro=6,
                                           virtual_chunks=3,
                                           stage_param_bytes=1e8, dp=2)),
    "zb1f1b": ("zb1f1b", dict(depth=4, n_micro=8)),
    "zb1f1b-dp": ("zb1f1b", dict(depth=4, n_micro=4, dp=2,
                                 stage_param_bytes=1e8, precondition=True)),
}


@pytest.fixture(params=sorted(CASES), scope="module")
def simulated(request):
    name, kwargs = CASES[request.param]
    cfg = PipelineConfig(costs=costs(), **kwargs)
    builder = make_schedule(name, cfg)
    tasks = builder.build(steps=2)
    res = simulate_tasks(tasks, builder.num_devices)
    return tasks, res


def test_no_device_overlap(simulated):
    _, res = simulated
    res.timeline.verify_no_overlap(kinds=OCCUPYING_KINDS)


def test_every_task_starts_after_deps(simulated):
    tasks, res = simulated
    for t in tasks:
        for d in t.deps:
            assert res.start_times[t.tid] >= res.end_times[d] - 1e-9, (
                f"{t.tid} started at {res.start_times[t.tid]} before dep "
                f"{d} ended at {res.end_times[d]}"
            )


def test_peak_inflight_within_limits(simulated):
    tasks, res = simulated
    limits = {}
    for t in tasks:
        key = t.meta.get("inflight_key")
        if key is not None:
            limits[key] = t.meta["inflight_limit"]
    assert limits, "schedule emitted no admission-controlled forwards"
    for key, peak in res.peak_inflight.items():
        assert peak <= limits[key], (
            f"key {key}: peak in-flight {peak} exceeds limit {limits[key]}"
        )


def test_inflight_intervals_never_exceed_limit(simulated):
    """Replay (forward start, releasing backward end) occupancy intervals:
    the *simulated-time* overlap per key must stay within the limit — this
    is the invariant the pre-rewrite pick-time release violated."""
    tasks, res = simulated
    by_key: dict = {}
    release_end: dict = {}
    limits = {}
    for t in tasks:
        key = t.meta.get("inflight_key")
        if key is not None:
            limits[key] = t.meta["inflight_limit"]
            by_key.setdefault(key, []).append(t.tid)
        rel = t.meta.get("inflight_release")
        if rel is not None:
            release_end.setdefault(rel, []).append(res.end_times[t.tid])
    for key, fwd_ids in by_key.items():
        # Pair forwards with releases in start/end order (FIFO slots).
        starts = sorted(res.start_times[tid] for tid in fwd_ids)
        ends = sorted(release_end.get(key, []))
        if len(ends) < len(starts):
            continue  # unreleased keys (e.g. GPipe tail) checked via peak
        marks = [(s, +1) for s in starts] + [(e - 1e-12, -1) for e in ends]
        occupancy = peak = 0
        for _, delta in sorted(marks):
            occupancy += delta
            peak = max(peak, occupancy)
        assert peak <= limits[key], (
            f"key {key}: simulated-time occupancy {peak} > {limits[key]}"
        )


# -- seeded-random fuzzing -------------------------------------------------------

FUZZ_SEEDS = range(20)


def random_topology(rng: random.Random, name: str) -> tuple[int, int, int]:
    """Draw (depth, n_micro, virtual_chunks) for one schedule family,
    respecting its structural constraints (Chimera evenness, interleaved
    divisibility).  Shared by the invariant and bubble-bound fuzzers so
    both always sample the same configuration distribution."""
    virtual_chunks = 2
    if name == "chimera":
        depth = rng.choice([2, 4, 6, 8])
        n_micro = depth + 2 * rng.randint(0, 4)
    elif name == "interleaved":
        virtual_chunks = rng.randint(2, 3)
        depth = virtual_chunks * rng.randint(2, 4)
        n_micro = depth + rng.randint(0, 6)
    else:
        depth = rng.randint(2, 8)
        n_micro = depth + rng.randint(0, 6)
    return depth, n_micro, virtual_chunks


def random_config(seed: int):
    """One randomized (schedule, PipelineConfig) pair, fully seed-determined.

    Ragged costs (independent uniform Tf/Tb, varying layers per stage and
    host overhead), random topology per schedule family, and occasional
    data parallelism with sync-grad traffic.
    """
    rng = random.Random(seed)
    name = FAMILIES[seed % len(FAMILIES)]
    tf = rng.uniform(0.2, 3.0)
    tb = rng.uniform(0.2, 3.0)
    layers = rng.randint(1, 3)
    overhead = rng.choice([0.0, rng.uniform(0.01, 0.3)])
    depth, n_micro, virtual_chunks = random_topology(rng, name)
    dp = rng.choice([1, 1, 2])
    block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=0.1, t_curv_b=0.1,
                      t_inv=0.3, t_prec=0.05)
    cfg = PipelineConfig(
        depth=depth,
        n_micro=n_micro,
        costs=StageCosts(block=block, layers_per_stage=layers,
                         t_overhead=overhead, kernel_density=1.0),
        dp=dp,
        stage_param_bytes=rng.choice([0.0, 1e8]) if dp > 1 else 0.0,
        virtual_chunks=virtual_chunks,
    )
    return name, cfg


@pytest.fixture(params=FUZZ_SEEDS, scope="module",
                ids=lambda s: f"seed{s}")
def fuzzed(request):
    name, cfg = random_config(request.param)
    builder = make_schedule(name, cfg)
    tasks = builder.build(steps=2)
    res = simulate_tasks(tasks, builder.num_devices)
    return name, cfg, tasks, res


class TestFuzzedInvariants:
    def test_everything_completes_once(self, fuzzed):
        """Slot accounting: every task ran; per (replica, micro, stage)
        there is exactly one forward and one backward — or one input-grad
        plus one weight-grad for split-backward schedules — per step."""
        name, cfg, tasks, res = fuzzed
        assert len(res.end_times) == len(tasks)
        expected = 2 * cfg.dp * cfg.depth * cfg.n_micro  # 2 steps
        counts: dict[str, int] = {}
        for e in res.timeline.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        assert counts["forward"] == expected
        if get_spec(name).split_backward:
            assert counts["backward_input"] == expected
            assert counts["backward_weight"] == expected
            assert "backward" not in counts
        else:
            assert counts["backward"] == expected

    def test_no_device_overlap(self, fuzzed):
        _, _, _, res = fuzzed
        res.timeline.verify_no_overlap(kinds=OCCUPYING_KINDS)

    def test_dependency_order(self, fuzzed):
        _, _, tasks, res = fuzzed
        for t in tasks:
            for d in t.deps:
                assert res.start_times[t.tid] >= res.end_times[d] - 1e-9, (
                    f"{t.tid} started before dep {d} ended"
                )

    def test_inflight_slots_never_exceed_limits(self, fuzzed):
        """Replay (forward start, releasing backward end) occupancy per
        key — the simulated-time slot accounting."""
        _, _, tasks, res = fuzzed
        limits = {}
        by_key: dict = {}
        release_end: dict = {}
        for t in tasks:
            key = t.meta.get("inflight_key")
            if key is not None:
                limits[key] = t.meta["inflight_limit"]
                by_key.setdefault(key, []).append(t.tid)
            rel = t.meta.get("inflight_release")
            if rel is not None:
                release_end.setdefault(rel, []).append(res.end_times[t.tid])
        assert limits, "schedule emitted no admission-controlled forwards"
        for key, peak in res.peak_inflight.items():
            assert peak <= limits[key]
        for key, fwd_ids in by_key.items():
            starts = sorted(res.start_times[tid] for tid in fwd_ids)
            ends = sorted(release_end.get(key, []))
            if len(ends) < len(starts):
                continue
            marks = [(s, +1) for s in starts] + [(e - 1e-12, -1) for e in ends]
            occupancy = peak = 0
            for _, delta in sorted(marks):
                occupancy += delta
                peak = max(peak, occupancy)
            assert peak <= limits[key]


class TestFuzzedBubbleBounds:
    """Spec-declared span/bubble bounds under randomized ragged costs.

    Every registered :class:`~repro.pipeline.spec.ScheduleSpec` declares
    closed-form bounds on its one-step span (``span_bounds``), evaluated
    on the pure schedule shape: one step, no host overhead, no data
    parallelism — the same regime as the paper's Table 1 critical paths.
    ``lo == hi`` pins an exact closed form (GPipe and 1F1B hit
    (N + D - 1)(Tf + Tb) exactly); otherwise the simulated span must stay
    inside [lo, hi] (Chimera between its Table 1 critical path and a
    generously slacked GPipe-like flush; interleaved-1F1B reaching the
    theoretical (P-1)(Tf+Tb) chunk bubble from above with at most
    ``depth`` chunk slots of asymmetric-cost slack; ZB-H1 between its
    device-occupancy bound and 1F1B's flush plus weight-grad
    non-preemption slack).
    """

    def _simulate(self, seed, name):
        rng = random.Random(10_000 + seed)
        tf = rng.uniform(0.2, 3.0)
        tb = rng.uniform(0.2, 3.0)
        layers = rng.randint(1, 3)
        depth, n_micro, virtual_chunks = random_topology(rng, name)
        block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=0.1, t_curv_b=0.1,
                          t_inv=0.3, t_prec=0.05)
        cfg = PipelineConfig(
            depth=depth,
            n_micro=n_micro,
            costs=StageCosts(block=block, layers_per_stage=layers,
                             t_overhead=0.0, kernel_density=1.0),
            virtual_chunks=virtual_chunks,
        )
        builder = make_schedule(name, cfg)
        res = simulate_tasks(builder.build(steps=1), builder.num_devices)
        return cfg, res.makespan

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("name", FAMILIES)
    def test_span_within_spec_bounds(self, name, seed):
        cfg, span = self._simulate(seed, name)
        lo, hi = get_spec(name).span_bounds(cfg)
        assert lo <= hi
        if lo == hi:
            assert span == pytest.approx(lo, rel=1e-9)
        else:
            assert lo - 1e-9 <= span <= hi + 1e-9


# -- stochastic re-timing fuzzing ------------------------------------------------

#: 20 stochastic seeds x every registered schedule family.
STOCH_SEEDS = range(20)

#: Every stochastic fuzz replicate mixes all three perturbation families.
STOCH_MODEL = StochasticModel(jitter_sigma=0.03, straggler_count=1,
                              straggler_slowdown=1.2, preemption_rate=0.5,
                              restart_delay_frac=0.02,
                              checkpoint_interval_frac=0.1)


@pytest.fixture(params=[(n, s) for n in FAMILIES for s in STOCH_SEEDS],
                scope="module", ids=lambda p: f"{p[0]}-seed{p[1]}")
def stochastic_fuzzed(request):
    """One schedule compiled once, timed clean and under a seeded
    perturbation (jitter + straggler + preemptions) — the Monte Carlo
    replicate path, over the same topology distribution as the
    deterministic fuzzers."""
    name, seed = request.param
    rng = random.Random(20_000 + seed)
    tf = rng.uniform(0.2, 3.0)
    tb = rng.uniform(0.2, 3.0)
    depth, n_micro, virtual_chunks = random_topology(rng, name)
    block = WorkCosts(t_fwd=tf, t_bwd=tb, t_curv_a=0.1, t_curv_b=0.1,
                      t_inv=0.3, t_prec=0.05)
    cfg = PipelineConfig(
        depth=depth,
        n_micro=n_micro,
        costs=StageCosts(block=block, layers_per_stage=rng.randint(1, 3),
                         t_overhead=0.0, kernel_density=1.0),
        virtual_chunks=virtual_chunks,
    )
    builder = make_schedule(name, cfg)
    tasks = builder.build(steps=1)
    graph = compile_graph(tasks, builder.num_devices)
    clean_durs = [t.duration for t in tasks]
    clean = simulate_compiled(graph, None, task_durs=clean_durs)
    p = sample_perturbation(STOCH_MODEL, seed, graph.num_devices,
                            clean.makespan)
    durs = perturbed_durations(graph, clean_durs, p)
    sim = simulate_compiled(graph, None, task_durs=durs, faults=p.faults())
    return dict(name=name, tasks=tasks, graph=graph, clean=clean, p=p,
                durs=durs, sim=sim, clean_durs=clean_durs)


class TestStochasticFuzzedInvariants:
    """The deterministic invariants must survive seeded re-timing."""

    def test_no_device_overlap(self, stochastic_fuzzed):
        f = stochastic_fuzzed
        g, sim = f["graph"], f["sim"]
        by_dev: dict = {}
        for i in range(g.n):
            if g.device[i] is not None and g.kind[i] in OCCUPYING_KINDS:
                by_dev.setdefault(g.device[i], []).append(
                    (sim.start[i], sim.ev_end[i]))
        for dev, ivals in by_dev.items():
            ivals.sort()
            for (s0, e0), (s1, e1) in zip(ivals, ivals[1:]):
                assert s1 >= e0 - 1e-9, (
                    f"device {dev}: [{s0}, {e0}) overlaps [{s1}, {e1})")

    def test_dependency_order(self, stochastic_fuzzed):
        f = stochastic_fuzzed
        sim = f["sim"]
        idx = {t.tid: i for i, t in enumerate(f["tasks"])}
        for t in f["tasks"]:
            for d in t.deps:
                assert sim.start[idx[t.tid]] >= sim.ev_end[idx[d]] - 1e-9, (
                    f"{t.tid} started before dep {d} ended under faults")

    def test_inflight_slots_never_exceed_limits(self, stochastic_fuzzed):
        f = stochastic_fuzzed
        sim = f["sim"]
        idx = {t.tid: i for i, t in enumerate(f["tasks"])}
        limits: dict = {}
        by_key: dict = {}
        release_end: dict = {}
        for t in f["tasks"]:
            key = t.meta.get("inflight_key")
            if key is not None:
                limits[key] = t.meta["inflight_limit"]
                by_key.setdefault(key, []).append(sim.start[idx[t.tid]])
            rel = t.meta.get("inflight_release")
            if rel is not None:
                release_end.setdefault(rel, []).append(
                    sim.ev_end[idx[t.tid]])
        assert limits, "schedule emitted no admission-controlled forwards"
        for key, starts in by_key.items():
            ends = sorted(release_end.get(key, []))
            if len(ends) < len(starts):
                continue
            marks = ([(s, +1) for s in sorted(starts)]
                     + [(e - 1e-12, -1) for e in ends])
            occupancy = peak = 0
            for _, delta in sorted(marks):
                occupancy += delta
                peak = max(peak, occupancy)
            assert peak <= limits[key]

    def test_restarts_well_formed(self, stochastic_fuzzed):
        f = stochastic_fuzzed
        g, sim, p = f["graph"], f["sim"], f["p"]
        delay = p.restart_delay
        for dev, idx, fail, resume, lost in sim.restarts:
            assert g.device[idx] == dev
            assert 0.0 <= fail < resume
            assert resume == pytest.approx(fail + delay)
            assert lost >= 0.0
            assert sim.ev_end[idx] >= resume

    @staticmethod
    def _require_monotone_family(name):
        # Chimera and interleaved run several stages per device; a delay
        # can reorder the ready queue into a *shorter* overall span (the
        # classic Graham scheduling anomaly), so span monotonicity is
        # only an invariant for the single-stage-per-device families.
        if name in ("chimera", "interleaved"):
            pytest.skip(f"{name}: multi-stage-per-device, span not "
                        f"monotone under delays (Graham anomalies)")

    def test_span_monotone_under_pure_slowdown(self, stochastic_fuzzed):
        """All device factors >= 1 and no faults: the perturbed span can
        only grow when each device runs a single stage."""
        f = stochastic_fuzzed
        self._require_monotone_family(f["name"])
        p = f["p"]
        slow = Perturbation(
            seed=p.seed,
            device_factor=tuple(max(1.0, x) for x in p.device_factor),
            failure_times=((),) * f["graph"].num_devices,
            restart_delay=0.0,
            checkpoint_every=0.0,
        )
        durs = perturbed_durations(f["graph"], f["clean_durs"], slow)
        sim = simulate_compiled(f["graph"], None, task_durs=durs)
        assert sim.makespan >= f["clean"].makespan - 1e-9

    def test_span_monotone_under_added_faults(self, stochastic_fuzzed):
        """Same durations, faults added: the span never shrinks."""
        f = stochastic_fuzzed
        self._require_monotone_family(f["name"])
        no_faults = simulate_compiled(f["graph"], None, task_durs=f["durs"])
        assert f["sim"].makespan >= no_faults.makespan - 1e-9
        if any(f["p"].failure_times):
            assert f["sim"].makespan >= no_faults.makespan

    @pytest.mark.skipif(not native.available(),
                        reason="native core unavailable")
    def test_faultless_path_matches_native_core(self, stochastic_fuzzed):
        """A jitter-only replicate is just a re-timing: the python event
        loop and the C core must agree bit for bit on the same
        per-task durations."""
        f = stochastic_fuzzed
        sim = simulate_compiled(f["graph"], None, task_durs=f["durs"])
        gb = sweep_batch.simulate_graph_batch(
            f["graph"], task_durs=np.asarray([f["durs"]], np.float64))
        assert gb is not None and gb.ok(0)
        got = gb.sim(0)
        assert got.makespan == sim.makespan
        assert got.start == sim.start
        assert got.end == sim.end
        assert got.ev_end == sim.ev_end
        assert got.ev_order == sim.ev_order
