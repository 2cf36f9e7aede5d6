"""Schedule templates: the structure of a sweep point, compiled once.

A sweep over (architecture, hardware, micro-batch size) re-uses the same
*structural* configuration — ``(schedule, depth, n_micro, virtual_chunks,
layers_per_stage, ...)`` — at every point; only the work durations change.
:class:`ScheduleTemplate` canonicalizes that structure into a
:class:`TemplateKey`, builds the baseline and PipeFisher task graphs and
the K-FAC work-queue inventory exactly once, and lowers them with the
object API's own compilers (:func:`~repro.pipeline.executor.compile_graph`
and :func:`~repro.pipefisher.assignment.compile_queues`).  Re-timing a
point is then a small duration table through the same event loop and
placer the object API runs
(:func:`~repro.pipeline.executor.simulate_compiled`,
:func:`~repro.pipefisher.assignment.fill_compiled`) or their C core —
no string formatting, no dict building, no dataclass graph construction.
``tests/sweep/test_engine_equivalence.py`` asserts that the engine's
reports equal ``PipeFisherRun.execute`` across every schedule family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipefisher.assignment import CompiledQueues, compile_queues
from repro.pipefisher.workqueue import build_device_queues
from repro.pipeline.executor import CompiledGraph, compile_graph
from repro.pipeline.schedules import PipelineConfig, make_schedule
from repro.pipeline.spec import get_spec


@dataclass(frozen=True)
class TemplateKey:
    """Canonical structural identity of a sweep point.

    Everything that shapes the task graph or the K-FAC work inventory —
    but not the durations — is in the key; two points with equal keys
    share one compiled template.  ``virtual_chunks`` is canonicalized to
    0 for the schedules that ignore it, so e.g. gpipe points with
    different (unused) chunk settings still share a template.
    """

    schedule: str
    depth: int
    n_micro: int
    virtual_chunks: int
    layers_per_stage: int
    dp: int
    world_multiplier: int
    recompute: bool
    inversion_parallel: bool
    has_sync_grad: bool
    has_sync_curv: bool


def structural_group_size(schedule: str, dp: int) -> int:
    """Size of one device's allreduce group, before ``world_multiplier``.

    The registry's structural mirror of ``ScheduleBuilder.dp_group``:
    Chimera's pipeline pair doubles the replication; every other schedule
    groups the ``dp`` replicas.
    """
    return get_spec(schedule).group_size(dp)


def stages_per_device(schedule: str, virtual_chunks: int) -> int:
    """Stages hosted per device (constant within a schedule family)."""
    return get_spec(schedule).stages_per_device(virtual_chunks)


@dataclass
class ScheduleTemplate:
    """Everything cost-independent about one structural configuration."""

    key: TemplateKey
    num_devices: int
    n_stages: int                 #: stages hosted per device (constant)
    world: int                    #: allreduce world per device (constant)
    base_graph: CompiledGraph
    pf_graph: CompiledGraph
    queues: CompiledQueues
    #: Cached per-duration-table timings/evaluations (engine-managed).
    timings: object = field(default=None, repr=False)


def build_template(
    key: TemplateKey,
    base_cfg: PipelineConfig,
    pf_cfg: PipelineConfig,
    sync_curv_seconds: float,
) -> ScheduleTemplate:
    """Build + compile both task graphs and the K-FAC inventory once.

    The configs carry this first point's costs, but only structure is
    kept: durations are replaced per point by the engine's re-timing.
    """
    base_builder = make_schedule(key.schedule, base_cfg)
    pf_builder = make_schedule(key.schedule, pf_cfg)
    base_graph = compile_graph(base_builder.build(steps=1), base_builder.num_devices)
    pf_graph = compile_graph(pf_builder.build(steps=1), pf_builder.num_devices)

    queues = build_device_queues(
        pf_builder,
        pf_cfg.costs,
        inversion_parallel=key.inversion_parallel,
        sync_curv_seconds=sync_curv_seconds,
    )
    return ScheduleTemplate(
        key=key,
        num_devices=pf_builder.num_devices,
        n_stages=len(pf_builder.stages_of_device(0)),
        world=pf_builder.allreduce_world(0),
        base_graph=base_graph,
        pf_graph=pf_graph,
        queues=compile_queues(queues, pf_graph, pf_cfg.dp),
    )
