"""The ``mc`` workload: a cold ``stochastic`` campaign through a persistent
``CampaignRunner`` (a run DB on disk, as ``repro campaign run`` uses).

Each timed pass builds a fresh ``SweepEngine`` and run dir, so every
pass is as cold as a new ``repro campaign run`` process.  Passes repeat
until the run's seconds are spent; per-unit latency is the time between
consecutive unit completions.
"""

from __future__ import annotations

import gc
import random
import shutil
import traceback
from contextlib import nullcontext
from time import perf_counter

from common import Outcome, peak_rss_mb, probe_setup, scratch_dir, \
    setup_medians
from tracing import (TRACE_PAIRS, Tracer, engine_totals, instrument,
                     layer_metrics, overhead_pct)

SCHEDULES = ("1f1b", "chimera", "gpipe", "interleaved", "zb1f1b")
#: Seeds per schedule re-derived by the scalar ``monte_carlo`` reference.
MC_CHECKS = 8
MC_SEEDS = 256
MC_MODEL = dict(jitter_sigma=0.02, preemption_rate=0.002,
                restart_delay_frac=0.05, checkpoint_interval_frac=0.1)


def mc_model():
    from repro.stochastic.model import StochasticModel

    return StochasticModel(**MC_MODEL)


def mc_spec(seed: int):
    """5 schedules x 256 Monte Carlo seeds of BERT-Base/P100 (1,280 units);
    the benchmark seed offsets the replicate seed range."""
    from repro.campaign import CampaignSpec

    base = seed * MC_SEEDS
    return CampaignSpec(
        name="perfbench-mc", title="stochastic robustness campaign",
        kind="stochastic",
        fixed=tuple(sorted({
            "arch": "BERT-Base", "hardware": "P100", "b_micro": 32,
            "depth": 8, "n_micro": 16, **mc_model().as_params()}.items())),
        grid=(("schedule", SCHEDULES),),
        seeds=tuple(range(base, base + MC_SEEDS)))


def _pipefisher_run(params: dict):
    """The ``PipeFisherRun`` a stochastic unit's params describe."""
    from repro.perfmodel.arch import ARCHITECTURES
    from repro.perfmodel.hardware import HARDWARE as HW
    from repro.pipefisher.runner import PipeFisherRun

    p = {k: v for k, v in params.items()
         if k in ("schedule", "arch", "hardware", "b_micro", "depth",
                  "n_micro")}
    return PipeFisherRun(schedule=p.pop("schedule"),
                         arch=ARCHITECTURES[p.pop("arch")],
                         hardware=HW[p.pop("hardware")], **p)


class _Pass:
    """One cold campaign run: fresh engine, fresh run dir."""

    def __init__(self, spec) -> None:
        from repro.campaign import CampaignRunner
        from repro.sweep.engine import SweepEngine

        self.spec = spec
        self.run_dir = scratch_dir("rundb-")
        self.engine = SweepEngine()
        self.runner = CampaignRunner(engine=self.engine, run_dir=self.run_dir)
        self.latencies: list = []
        self.result = None
        self.error = None
        self.wall_s = 0.0

    def run(self) -> "_Pass":
        last = [0.0]

        def on_unit(unit, record):
            now = perf_counter()
            self.latencies.append(now - last[0])
            last[0] = now

        t0 = last[0] = perf_counter()
        try:
            self.result = self.runner.run(self.spec, on_unit=on_unit)
        except Exception:  # counted as failed units, reported by run()
            self.error = traceback.format_exc()
        self.wall_s = perf_counter() - t0
        return self

    @property
    def failed(self) -> int:
        return len(self.spec.units()) - len(self.latencies) if self.error \
            else 0

    def release(self) -> None:
        """Drop the engine and results, so a later pass does not run next
        to this one's live heap (which slows the garbage collector)."""
        self.engine = self.runner = self.result = None
        gc.collect()

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _persisted_ok(p: _Pass) -> bool:
    """The run DB on disk holds every unit's value, as returned."""
    from repro.campaign import RunDB

    return RunDB.open(p.run_dir).values() == p.result.values()


def _check_mc(out: Outcome, p: _Pass, seed: int) -> None:
    from repro.stochastic.mc import monte_carlo
    from repro.sweep.engine import SweepEngine

    rng = random.Random(f"perfbench-mc-check:{seed}")
    engine = SweepEngine()
    by_point: dict = {}
    for u in p.spec.units():
        params = u.params_dict()
        by_point.setdefault(params["schedule"], []).append(
            (params["seed"], u.key, params))
    for schedule, entries in by_point.items():
        sample = sorted(rng.sample(entries, MC_CHECKS))
        seeds = [s for s, _, _ in sample]
        ref = monte_carlo(_pipefisher_run(sample[0][2]), mc_model(), seeds,
                          engine=engine, batch=False).replicates
        for (s, key, _), want in zip(sample, ref):
            got = p.result.records[key]["value"]
            out.check(f"mc {schedule} seed {s} == monte_carlo(batch=False)",
                      got == want)
    out.check("mc run DB persisted every unit", _persisted_ok(p),
              ops=len(p.spec.units()))


def _warm_up(spec) -> None:
    """One unit per schedule, untimed, so lazy imports and the native core's
    first load land outside the timed passes (``setup_s`` covers them)."""
    from repro.campaign import CampaignSpec

    mini = CampaignSpec(name=spec.name, title=spec.title, kind=spec.kind,
                        fixed=spec.fixed, grid=spec.grid,
                        seeds=spec.seeds[:1])
    _Pass(mini).run().close()


def _measure(spec, seconds: float) -> tuple:
    """Cold passes until ``seconds`` are spent; returns (passes, wall)."""
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        if passes:  # only the last pass is checked
            passes[-1].release()
        passes.append(_Pass(spec).run())
        if passes[-1].error:
            break
    return passes, sum(p.wall_s for p in passes)


def _traced_passes(spec) -> tuple:
    """The same cold pass, untraced and traced in turn, TRACE_PAIRS times;
    returns (passes, walls by traced, the last pass's tracer)."""
    passes, walls = [], {False: [], True: []}
    for traced in (False, True) * TRACE_PAIRS:
        if passes:
            passes[-1].release()
        tracer = Tracer() if traced else None
        passes.append(_Pass(spec))
        with instrument(tracer) if traced else nullcontext():
            passes[-1].run()
        walls[traced].append(passes[-1].wall_s)
    return passes, walls, tracer


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    spec = mc_spec(seed)
    units = len(spec.units())
    setup = probe_setup("mc")
    _warm_up(spec)
    out = Outcome()
    if not trace:
        passes, out.wall_s = _measure(spec, seconds)
        out.peak_rss_mb = peak_rss_mb()
        out.latencies_s = [x for p in passes for x in p.latencies]
        out.details = {"units_per_pass": units,
                       "pass_wall_s": [p.wall_s for p in passes]}
    else:
        passes, walls, tracer = _traced_passes(spec)
        out.wall_s = sum(walls[True])
        out.details = {"untraced_wall_s": walls[False],
                       "traced_wall_s": walls[True],
                       "spans": tracer.summary()}
        out.tracer = tracer
    out.ops = units * len(passes)
    for p in passes:
        out.failed += p.failed
        if p.error:
            out.check("mc campaign pass completed", False, p.error, ops=0)
    last = passes[-1]
    if last.result is not None:
        _check_mc(out, last, seed)
    for p in passes:
        p.close()
    out.setup = setup_medians(setup + probe_setup("mc"))
    if trace:
        # The per-layer split comes from the last traced pass.
        out.layers = layer_metrics(
            tracer, engine_totals([last.engine.stats()]), setup=out.setup,
            overhead_pct=overhead_pct(walls[False], walls[True]))
    return out
