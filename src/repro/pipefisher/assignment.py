"""The automatic work-assignment algorithm (paper §3.1).

Profile one pipeline step (here: simulate it), extract the bubbles, then
place K-FAC work items into them in readiness order:

    "we pick one work from the 'queue' of all the K-FAC work and assign it
    to a bubble if its duration is shorter than the bubble duration
    (otherwise, subsequent bubbles are utilized) according to the rules
    above.  We repeat this procedure until all the K-FAC work are assigned
    to bubbles."

Because the synchronous schedule repeats identically every step, bubbles
in step ``k`` are the step-0 bubbles shifted by ``k * span``; an item
triggered by "forward of micro-batch m at stage s" is ready at that
forward's end *within the step it is placed in*.  The number of steps
needed to drain the queue is the curvature refresh interval.

One placer, :func:`fill_compiled`, runs every fill in python:
:class:`BubbleFiller` (the object API) lowers its work queues with
:func:`compile_queues` and fills them with the items' own durations;
the sweep engine fills a cached template's queues with per-point
duration tables.  The C core (:mod:`repro.sweep.native`) is
its one fast path and is fuzzed against it bit for bit.

The placer is event-indexed: candidates whose readiness the bubble
cursor has passed are kept sorted by ``(-ready, pos)``, future ones by
``(ready, pos)`` — the orders of the greedy rule's ``(start, -ready,
position)`` key — ``("items", ...)`` triggers keep a counter of
unplaced dependencies, and the cursor only moves forward.  Placement
work is O(items log items + total deps), plus per-placement re-checks of
the ready items that sort ahead of the winner but cannot split into the
bubble's remaining room under ``min_chunk``.  Placements are
bit-identical to the original scan-all greedy loop (frozen as the
baseline in ``benchmarks/test_filler_scaling.py``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.pipefisher.workqueue import KFACWorkQueue
from repro.pipeline.bubbles import device_bubbles
from repro.pipeline.executor import CompiledGraph, CompiledSim, SimulationResult
from repro.profiler.timeline import TimelineEvent

_EPS = 1e-9

#: K-FAC work-item duration codes (a re-timed point's per-item values).
QDUR_CURV_A = 0
QDUR_CURV_B = 1
QDUR_INV = 2      #: one factor's inversion (``block.t_inv / 2``)
QDUR_SYNC_CURV = 3

#: ``(kind, factor)`` pairs ``build_device_queues`` emits.  Other pairs
#: (SAM's and Shampoo's extra factors) compile with code None: they are
#: filled with explicit per-item durations only.
_QKIND_TO_DUR = {
    ("curvature", "A"): QDUR_CURV_A,
    ("curvature", "B"): QDUR_CURV_B,
    ("inversion", "A"): QDUR_INV,
    ("inversion", "B"): QDUR_INV,
    ("sync_curv", "-"): QDUR_SYNC_CURV,
}


@dataclass
class AssignmentResult:
    """Outcome of bubble filling.

    :meth:`BubbleFiller.fill` guarantees every item is assigned before a
    result is constructed, so reporting helpers never re-validate.
    """

    queues: dict[int, KFACWorkQueue]
    refresh_steps: int
    span: float
    #: device -> steps its own queue needed (per-stage refresh frequency).
    device_refresh_steps: dict[int, int] = field(default_factory=dict)

    def events(self) -> list[TimelineEvent]:
        """Assigned K-FAC work as timeline events (one per segment)."""
        out = []
        for q in self.queues.values():
            for i in q.items:
                for s, e in i.segments:
                    out.append(
                        TimelineEvent(
                            device=i.device,
                            kind=i.kind,
                            start=s,
                            end=e,
                            label=i.label,
                            meta={
                                "stage": i.stage,
                                "block": i.block,
                                "factor": i.factor,
                                "micro_batch": i.micro_batch,
                                "step": int(s // self.span),
                            },
                        )
                    )
        return out

    @property
    def total_filled(self) -> float:
        return sum(q.total_duration for q in self.queues.values())


# -- compiled queues ---------------------------------------------------------------


@dataclass
class CompiledItem:
    """Structural identity of one K-FAC work item (durations come later)."""

    iid: str
    device: int
    kind: str
    factor: str
    stage: int
    block: int
    micro_batch: int | None
    pipeline: str | None
    dur_code: int | None
    trigger: tuple                #: original trigger tuple (for reports)
    #: For forward/backward triggers: index of the graph task whose end
    #: is the readiness event.  For "items" triggers: -1.
    trigger_task: int
    #: For "items" triggers: positions (within the device queue) of the
    #: items that must be assigned first.
    dep_positions: tuple[int, ...]


@dataclass
class DeviceQueue:
    """One device's K-FAC inventory: item structs + hot-loop arrays."""

    #: Items in inventory order — used when a report materializes its
    #: assignment.
    items: list[CompiledItem]
    #: Parallel arrays the placer reads (no attribute access).
    codes: list[int | None]       #: duration code per item
    trig: list[int]               #: graph trigger task idx, -1 if deps
    dependents: dict[int, list[int]]


@dataclass
class CompiledQueues:
    """Per-device K-FAC work inventories, structurally compiled."""

    devices: dict[int, DeviceQueue]


def compile_queues(queues: dict[int, KFACWorkQueue], graph: CompiledGraph,
                   dp: int) -> CompiledQueues:
    """Lower per-device work queues against the graph they will fill.

    A forward/backward trigger resolves to the task of ``graph`` whose
    event end is the readiness instant, on replica ``item.device % dp``;
    an ``("items", ...)`` trigger resolves to queue positions.  Raises
    ``KeyError`` when the graph has no such trigger task and
    ``ValueError`` on an unknown trigger kind.
    """
    devices: dict[int, DeviceQueue] = {}
    for dev in sorted(queues):
        items = queues[dev].items
        pos_of = {item.iid: pos for pos, item in enumerate(items)}
        dev_items: list[CompiledItem] = []
        dev_deps: dict[int, list[int]] = {}
        for pos, item in enumerate(items):
            kind = item.trigger[0]
            if kind == "items":
                dep_positions = tuple(pos_of[d] for d in item.trigger[1])
                trigger_task = -1
                for dpos in dep_positions:
                    dev_deps.setdefault(dpos, []).append(pos)
            elif kind in ("forward", "backward"):
                _, s, m, pipe = item.trigger
                replica = item.device % dp
                dep_positions = ()
                trigger_task = graph.trigger_idx.get(
                    (kind, s, m, pipe, replica))
                if trigger_task is None:
                    raise KeyError(
                        f"no {kind} event for stage {s}, micro-batch {m}, "
                        f"pipeline {pipe}, replica {replica}"
                    )
            else:
                raise ValueError(f"unknown trigger {item.trigger!r}")
            dev_items.append(
                CompiledItem(
                    iid=item.iid,
                    device=item.device,
                    kind=item.kind,
                    factor=item.factor,
                    stage=item.stage,
                    block=item.block,
                    micro_batch=item.micro_batch,
                    pipeline=item.pipeline,
                    dur_code=_QKIND_TO_DUR.get((item.kind, item.factor)),
                    trigger=item.trigger,
                    trigger_task=trigger_task,
                    dep_positions=dep_positions,
                )
            )
        devices[dev] = DeviceQueue(
            items=dev_items,
            codes=[it.dur_code for it in dev_items],
            trig=[it.trigger_task for it in dev_items],
            dependents=dev_deps,
        )
    return CompiledQueues(devices=devices)


# -- the placer --------------------------------------------------------------------


@dataclass
class CompiledFill:
    """Placements for every device of one timing."""

    #: device -> per-item segment lists (inventory order).
    segments: dict[int, list[list[tuple[float, float]]]]
    #: device -> steps its queue needed.
    device_steps: dict[int, int]
    span: float


def fill_compiled(
    graph: CompiledGraph,
    queues: CompiledQueues,
    sim: CompiledSim,
    qdurs: tuple | None,
    item_durs: dict | None = None,
    max_steps: int = 64,
    min_bubble: float = 1e-5,
    min_chunk: float = 2e-3,
    steady_state: bool = True,
) -> CompiledFill:
    """Drain every device's compiled queue into the timing's bubbles.

    ``qdurs[code]`` is an item's duration; ``item_durs``, when given,
    overrides the table with explicit per-item durations (device -> list
    in inventory order).  ``steady_state`` readiness is the trigger's end
    one step earlier (see :class:`BubbleFiller`).

    At a cursor ``t`` inside a bubble ending at ``b1``, every already-
    ready item starts at ``t``, so the greedy key reduces to the "now"
    list order; if no now-item can start, the best candidate is the
    earliest feasible "future" item.  A candidate is feasible when it
    fits whole in positive room, or when a fragment and its leftover are
    both at least ``min_chunk`` (~one kernel).  Each item's placed total
    is the left-fold of its segment lengths.

    Raises ``RuntimeError`` when a device with work has no bubbles, makes
    no progress for a whole step, or still has unassigned items after
    ``max_steps`` steps.
    """
    span = sim.makespan
    end_of = sim.ev_end
    shift = span if steady_state else 0.0
    seg_out: dict[int, list[list[tuple[float, float]]]] = {}
    steps_out: dict[int, int] = {}

    for dev in sorted(queues.devices):
        dq = queues.devices[dev]
        n = len(dq.items)
        segments: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        seg_out[dev] = segments
        if n == 0:
            steps_out[dev] = 0
            continue
        bubbles0 = device_bubbles(graph, sim, dev, span, min_bubble)
        if not bubbles0:
            raise RuntimeError(
                f"device {dev} has no bubbles to fill (span {span:.4f}s)"
            )
        dur = (item_durs[dev] if item_durs is not None
               else [qdurs[c] for c in dq.codes])
        placed = [0.0] * n
        dependents = dq.dependents
        dep_count = [0] * n
        dep_max_end = [0.0] * n
        #: Sorted candidate sets: (ready, pos) and (-ready, pos) ascending.
        future: list[tuple[float, int]] = []
        now: list[tuple[float, int]] = []

        trig = dq.trig
        items = dq.items
        for pos in range(n):
            ti = trig[pos]
            if ti >= 0:
                future.append((end_of[ti] - shift, pos))
            else:
                dep_count[pos] = len(items[pos].dep_positions)
                if dep_count[pos] == 0:
                    future.append((0.0, pos))
        future.sort()

        remaining = n
        last_placed_duration = -1.0
        steps_used = 0
        for step in range(max_steps):
            offset = step * span
            for bub0, bub1 in bubbles0:
                b0 = bub0 + offset
                b1 = bub1 + offset
                t = b0
                while True:
                    if b1 - t <= _EPS:
                        # Nothing can start here: a full fit needs room >
                        # eps and a fragment needs room >= min_chunk.
                        break
                    if future and future[0][0] <= t:
                        k = 1
                        flen = len(future)
                        while k < flen and future[k][0] <= t:
                            k += 1
                        for r, pos in future[:k]:
                            insort(now, (-r, pos))
                        del future[:k]
                    win_at = -1
                    win_pos = -1
                    win_ready = 0.0
                    from_future = False
                    st = t
                    room = b1 - t
                    for j, (negr, pos) in enumerate(now):
                        rem = dur[pos] - placed[pos]
                        if room < rem - _EPS:
                            if room < min_chunk - _EPS or rem - room < min_chunk:
                                continue
                        elif room <= _EPS:
                            continue
                        win_at, win_pos, win_ready = j, pos, -negr
                        break
                    if win_pos < 0:
                        for j, (r, pos) in enumerate(future):
                            if r >= b1:
                                break
                            rem = dur[pos] - placed[pos]
                            room = b1 - r
                            if room < rem - _EPS:
                                if (room < min_chunk - _EPS
                                        or rem - room < min_chunk):
                                    continue
                            elif room <= _EPS:
                                continue
                            win_at, win_pos, win_ready = j, pos, r
                            st = r
                            from_future = True
                            break
                    if win_pos < 0:
                        break
                    rem = dur[win_pos] - placed[win_pos]
                    room = b1 - st
                    piece = rem if rem < room else room
                    e = st + piece
                    segments[win_pos].append((st, e))
                    placed[win_pos] = placed[win_pos] + (e - st)
                    t = e
                    if dur[win_pos] - placed[win_pos] <= 1e-12:
                        remaining -= 1
                        if from_future:
                            del future[win_at]
                        else:
                            del now[win_at]
                        deps = dependents.get(win_pos)
                        if deps:
                            for dpos in deps:
                                dep_count[dpos] -= 1
                                if e > dep_max_end[dpos]:
                                    dep_max_end[dpos] = e
                                if dep_count[dpos] == 0:
                                    insort(future, (dep_max_end[dpos], dpos))
                    elif from_future:
                        # Partial placement from the future set: the
                        # cursor has passed its readiness, so it re-enters
                        # as a "now" candidate.
                        del future[win_at]
                        insort(now, (-win_ready, win_pos))
                if remaining == 0:
                    break
            if remaining == 0:
                steps_used = step + 1
                break
            total = 0.0
            for p in placed:
                total += p
            if total <= last_placed_duration + _EPS:
                # No progress for a full step: items are permanently blocked.
                stuck = [items[pos].iid for pos in range(n)
                         if dur[pos] - placed[pos] > 1e-12]
                raise RuntimeError(
                    f"device {dev}: no placement progress in step {step}; "
                    f"stuck items: {stuck[:5]}"
                )
            last_placed_duration = total
        else:
            raise RuntimeError(
                f"device {dev}: {remaining} K-FAC items still unassigned "
                f"after {max_steps} steps; bubbles too small for the work"
            )
        steps_out[dev] = steps_used

    return CompiledFill(segments=seg_out, device_steps=steps_out, span=span)


class BubbleFiller:
    """Places per-device K-FAC work queues into a step template's bubbles.

    Parameters
    ----------
    template:
        Simulation of ONE steady-state pipeline step (with PipeFisher's
        precondition already on the critical path).
    queues:
        Per-device work inventories from :func:`build_device_queues`.
    dp:
        Data-parallel degree (to resolve which replica's forward/backward
        events trigger a device's items).
    max_steps:
        Safety bound on the refresh interval.
    min_bubble:
        Ignore bubbles shorter than this (kernel-launch granularity).
    min_chunk:
        Smallest placeable piece of a split work (~one CUDA kernel).
    steady_state:
        In the repeating (static) schedule, every trigger event has
        already occurred in the previous step, so startup bubbles before
        a cycle's own forward/backward may compute factors from the
        previous step's saved tensors — the same staleness the paper
        embraces ("the first precondition ... is performed with the
        stale inverse matrices calculated at previous steps").  An item
        that misses step k's bubbles computes its factor from the saved
        step-k tensors inside step k+1's bubbles (what M_act and
        M_err^save in the §3.3 memory model pay for).  Set False to model
        the very first cycle after initialization.

    A zero-bubble split backward satisfies "backward" triggers at its
    *input-grad* end: the error signal a B-factor needs is the output
    gradient, which the input-grad pass produces.
    """

    def __init__(
        self,
        template: SimulationResult,
        queues: dict[int, KFACWorkQueue],
        dp: int = 1,
        max_steps: int = 64,
        min_bubble: float = 1e-5,
        min_chunk: float = 2e-3,
        steady_state: bool = True,
    ) -> None:
        self.template = template
        self.queues = queues
        self.dp = dp
        self.max_steps = max_steps
        self.min_bubble = min_bubble
        self.min_chunk = min_chunk
        self.steady_state = steady_state
        self.span = template.makespan

    def fill(self) -> AssignmentResult:
        """Assign every queue; the refresh interval is the slowest device.

        Writes each item's segments and raises RuntimeError here — at
        assignment time, not when the result is later reported — if any
        item cannot be placed.
        """
        graph = self.template.graph
        placed = fill_compiled(
            graph,
            compile_queues(self.queues, graph, self.dp),
            self.template.sim,
            None,
            item_durs={dev: [i.duration for i in q.items]
                       for dev, q in self.queues.items()},
            max_steps=self.max_steps,
            min_bubble=self.min_bubble,
            min_chunk=self.min_chunk,
            steady_state=self.steady_state,
        )
        for dev, q in self.queues.items():
            for item, segs in zip(q.items, placed.segments[dev]):
                item.segments = segs
        refresh = max(placed.device_steps.values(), default=1)
        return AssignmentResult(
            queues=self.queues,
            refresh_steps=max(refresh, 1),
            span=self.span,
            device_refresh_steps=placed.device_steps,
        )
