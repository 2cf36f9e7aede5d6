"""SweepEngine behavior: cache accounting, bounds, scaled points, perf models."""

import pytest

from repro.perfmodel.arch import BERT_BASE
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import StageCosts, WorkCosts
from repro.perfmodel.hardware import HARDWARE, P100
from repro.perfmodel.model import PipelinePerfModel
from repro.pipefisher import runner as runner_mod
from repro.pipefisher.runner import PipeFisherRun
from repro.sweep import SweepEngine, default_engine
from repro.sweep import batch as sweep_batch
from repro.sweep import native
from repro.sweep.engine import evaluate_tables


def chimera_point(b_micro=32, depth=8, hw="P100", **kw):
    return PipeFisherRun(schedule="chimera", arch=BERT_BASE,
                         hardware=HARDWARE[hw], b_micro=b_micro,
                         depth=depth, n_micro=depth, **kw)


class TestCacheBehavior:
    def test_template_hit_miss_counters(self):
        engine = SweepEngine()
        engine.run(chimera_point(b_micro=8))
        s = engine.stats()
        assert s["templates"].misses == 1 and s["templates"].hits == 0
        engine.run(chimera_point(b_micro=16))      # same structure
        s = engine.stats()
        assert s["templates"].hits == 1
        assert s["stage_costs"].misses == 2        # two distinct b_micro

    def test_structural_change_misses(self):
        """A changed structural knob must build a new template, never
        reuse a stale one."""
        engine = SweepEngine()
        engine.run(chimera_point(depth=8))
        for kw in (dict(depth=16), dict(depth=8, layers_per_stage=2),
                   dict(depth=8, inversion_parallel=True),
                   dict(depth=8, recompute=True)):
            engine.run(chimera_point(**kw))
        s = engine.stats()
        assert s["templates"].misses == 5
        assert s["templates"].hits == 0

    def test_virtual_chunks_canonicalized_away_for_non_interleaved(self):
        """gpipe ignores virtual_chunks, so differing values must share
        one template."""
        engine = SweepEngine()
        for vc in (2, 4):
            engine.run(PipeFisherRun(schedule="gpipe", arch=BERT_BASE,
                                     hardware=P100, b_micro=8, depth=4,
                                     n_micro=4, virtual_chunks=vc))
        s = engine.stats()
        assert s["templates"].misses == 1 and s["templates"].hits == 1

    def test_exact_repeat_hits_timing_cache(self):
        engine = SweepEngine()
        run = chimera_point()
        engine.run(run)
        engine.run(run)
        assert engine.timing_hits == 1
        assert engine.reexecutions == 1

    def test_bounded_over_100_point_sweep(self):
        """A 100-point sweep must not grow any cache past its bound."""
        engine = SweepEngine(max_templates=4, max_costs=8, max_timings=4)
        for i in range(100):
            engine.run(chimera_point(b_micro=1 + (i % 25), depth=4,
                                     hw=("P100", "V100")[i % 2]))
        s = engine.stats()
        assert s["templates"].size <= 4
        assert s["stage_costs"].size <= 8
        assert s["cached_timings"] <= 4 * 4
        assert s["stage_costs"].evictions > 0
        assert s["runs"] == 100

    def test_clear_resets_everything(self):
        engine = SweepEngine()
        engine.run(chimera_point())
        engine.clear()
        s = engine.stats()
        assert s["templates"].size == 0
        assert s["stage_costs"].size == 0
        assert s["runs"] == 0 and s["reexecutions"] == 0

    def test_default_engine_is_shared(self):
        assert default_engine() is default_engine()


def synthetic_costs(scale=1.0):
    """Exact-binary work costs whose uniform scaling is fp-exact."""
    block = WorkCosts(
        t_fwd=scale * (3 / 256),
        t_bwd=scale * (5 / 256),
        t_curv_a=scale * (3 / 1024),
        t_curv_b=scale * (3 / 1024),
        t_inv=scale * (7 / 1024),
        t_prec=scale * (1 / 1024),
    )
    return StageCosts(block=block, layers_per_stage=1,
                      t_overhead=scale * (1 / 64), kernel_density=1.0)


class TestExactRescale:
    def test_rescaled_point_matches_fresh_reference(self, monkeypatch):
        """A x2 uniform scaling is re-executed and must be bit-identical
        to a from-scratch per-point run at those costs.

        Uses a single-replica 1f1b point: schedules with a sync-grad
        allreduce (e.g. Chimera's pipeline pair) have a comm-derived
        duration that a costs-only scaling does not touch, so their
        tables would not be uniformly scaled.
        """
        from repro.sweep.cache import BoundedCache
        from tests.sweep.test_engine_equivalence import assert_reports_identical

        engine = SweepEngine()
        run = PipeFisherRun(schedule="1f1b", arch=BERT_BASE, hardware=P100,
                            b_micro=32, depth=4, n_micro=4)
        base_costs = synthetic_costs(1.0)
        scaled_costs = synthetic_costs(2.0)
        # Every field of the scaled model is exactly 2x the base model.
        for name in ("t_fwd", "t_bwd", "t_curv_a", "t_curv_b", "t_inv",
                     "t_prec"):
            assert getattr(scaled_costs.block, name) == \
                2.0 * getattr(base_costs.block, name)

        engine.run(run, costs=base_costs)
        assert engine.reexecutions == 1
        got = engine.run(run, costs=scaled_costs)
        assert engine.reexecutions == 2, "uniform x2 point was not re-executed"
        assert engine.timing_hits == 0

        # Reference: a per-point run with the scaled costs seeded into the
        # runner memo (execute() resolves costs through it).
        memo = BoundedCache(maxsize=8)
        memo.put((run.arch, run.hardware, run.b_micro, run.layers_per_stage,
                  run.schedule), scaled_costs)
        monkeypatch.setattr(runner_mod, "_STAGE_COSTS_MEMO", memo)
        assert_reports_identical(run.execute(), got)

    def test_non_uniform_scaling_reexecutes(self):
        engine = SweepEngine()
        run = PipeFisherRun(schedule="1f1b", arch=BERT_BASE, hardware=P100,
                            b_micro=32, depth=4, n_micro=4)
        engine.run(run, costs=synthetic_costs(1.0))
        other = synthetic_costs(2.0)
        other = StageCosts(
            block=WorkCosts(t_fwd=other.block.t_fwd * 1.5,
                            t_bwd=other.block.t_bwd,
                            t_curv_a=other.block.t_curv_a,
                            t_curv_b=other.block.t_curv_b,
                            t_inv=other.block.t_inv,
                            t_prec=other.block.t_prec),
            layers_per_stage=1, t_overhead=other.t_overhead,
            kernel_density=1.0,
        )
        engine.run(run, costs=other)
        assert engine.reexecutions == 2


def _assert_evaluations_equal(ref, got):
    for a, b in ((ref.base, got.base), (ref.pf, got.pf)):
        assert (a.start, a.end, a.ev_end, a.ev_order, a.makespan) == \
            (b.start, b.end, b.ev_end, b.ev_order, b.makespan)
    assert ref.fill.segments == got.fill.segments
    assert dict(ref.fill.device_steps) == dict(got.fill.device_steps)
    assert ref.fill.span == got.fill.span
    assert (ref.base_util, ref.pf_util, ref.refresh) == \
        (got.base_util, got.pf_util, got.refresh)


class TestEvaluateTables:
    """The one evaluator the engine and its pool workers share."""

    @staticmethod
    def _template_and_keys():
        engine = SweepEngine()
        points = [engine.compiled_point(chimera_point(b_micro=b))
                  for b in (8, 16, 32)]
        assert len({id(p.template) for p in points}) == 1
        return points[0].template, [(p.base_durs, p.pf_durs, p.qdurs)
                                    for p in points]

    @staticmethod
    def _oracle(monkeypatch, template, keys):
        with monkeypatch.context() as m:
            m.setenv(native.DISABLE_ENV, "1")
            evals, _, _ = evaluate_tables(template, keys)
        assert not any(ev._native for ev in evals)
        return evals

    def test_rows_match_the_python_oracle(self, monkeypatch):
        template, keys = self._template_and_keys()
        evals, retime_s, fill_s = evaluate_tables(template, keys)
        assert retime_s > 0.0 and fill_s > 0.0
        supported = sweep_batch.batching_supported(template)
        assert [ev._native for ev in evals] == [supported] * len(keys)
        for ref, got in zip(self._oracle(monkeypatch, template, keys),
                            evals):
            _assert_evaluations_equal(ref, got)

    @pytest.mark.skipif(not native.available(),
                        reason="needs the C core to fail a row")
    def test_unfinished_rows_take_the_oracle_or_are_left_out(
            self, monkeypatch):
        template, keys = self._template_and_keys()
        real_fill = sweep_batch.fill_graph_batch

        def overflow_row_1(*args):
            fb = real_fill(*args)
            fb.status[1] = native.ST_SEG_OVERFLOW
            return fb

        monkeypatch.setattr(sweep_batch, "fill_graph_batch", overflow_row_1)
        evals, _, _ = evaluate_tables(template, keys)
        assert [ev._native for ev in evals] == [True, False, True]
        for ref, got in zip(self._oracle(monkeypatch, template, keys),
                            evals):
            _assert_evaluations_equal(ref, got)

        primed, _, _ = evaluate_tables(template, keys, oracle=False)
        assert primed[1] is None
        assert primed[0]._native and primed[2]._native


class TestPerfModelPath:
    def test_bit_identical_to_uncached_model(self):
        engine = SweepEngine()
        cached = engine.perf_model(BERT_BASE, P100, "chimera")
        plain = PipelinePerfModel(BERT_BASE, P100, "chimera")
        for b, d in ((8, 4), (32, 8), (64, 16)):
            r1 = cached.report(b, d)
            r2 = plain.report(b, d)
            assert r1 == r2

    def test_grid_computes_each_cost_model_once(self):
        engine = SweepEngine()
        model = engine.perf_model(BERT_BASE, P100, "chimera")
        model.sweep([8, 16, 32], [4, 8], n_micro_factor=1)
        model.sweep([8, 16, 32], [4, 8], n_micro_factor=2)
        s = engine.stats()["stage_costs"]
        # 3 b_micro values -> 3 computes; everything else is hits.
        # Each sweep has 3 x 2 cells and report() consults the cost model
        # twice per cell: 2 sweeps * 6 cells * 2 lookups = 24 lookups.
        assert s.misses == 3
        assert s.hits == 24 - 3

    def test_cost_cache_shared_across_schedules_with_same_overhead(self):
        engine = SweepEngine()
        engine.perf_model(BERT_BASE, P100, "gpipe").report(8, 4)
        before = engine.stats()["stage_costs"].misses
        engine.perf_model(BERT_BASE, P100, "1f1b").report(8, 4)
        assert engine.stats()["stage_costs"].misses == before
        assert host_overhead("gpipe") == host_overhead("1f1b")

    def test_simulator_and_model_share_cost_cache(self):
        engine = SweepEngine()
        engine.perf_model(BERT_BASE, P100, "chimera",
                          layers_per_stage=1).report(32, 8)
        before = engine.stats()["stage_costs"].misses
        engine.run(chimera_point(b_micro=32, depth=8))
        assert engine.stats()["stage_costs"].misses == before


class TestStageCostMemo:
    """The runner-level memo (satellite of the same fix family)."""

    def test_bounded_and_clearable(self):
        runner_mod.clear_stage_costs_memo()
        for b in range(1, 40):
            runner_mod.cached_stage_costs(BERT_BASE, P100, b, 1, "gpipe")
        memo = runner_mod._STAGE_COSTS_MEMO
        assert len(memo) <= memo.maxsize
        runner_mod.clear_stage_costs_memo()
        assert len(memo) == 0
        s = memo.stats()
        assert (s.hits, s.misses, s.evictions) == (0, 0, 0)
