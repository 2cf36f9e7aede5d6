"""Discrete-event execution of pipeline task graphs.

One event loop, :func:`simulate_compiled`, runs every simulation in
python: :func:`simulate_tasks` (the object API) lowers its ``Task`` list
with :func:`compile_graph`, runs the loop with the tasks' own durations,
and materializes the timeline; the sweep engine and the Monte Carlo
replicator re-time cached compiled graphs through the same loop with
per-point duration tables.  The C core (:mod:`repro.sweep.native`) is
its one fast path and is fuzzed against it bit for bit.

Event-driven list scheduling: a global event heap holds task completions
in simulated-time order; each device keeps a ready heap of its runnable
tasks keyed by ``(priority, tid)`` (packed into one ``order_key`` per
task at compile time).  When a completion fires, it releases the
finished task's in-flight slot, promotes dependents whose last
dependency just ended, and wakes every device whose state changed; a
woken idle device immediately starts its best *eligible* ready task.
The schedule-specific behaviour (GPipe's phase order, 1F1B's backward
priority and in-flight limit, Chimera's injection order,
interleaved-1F1B's chunk order) lives entirely in the tasks' ``priority``
tuples and in-flight metadata, so one executor serves every schedule.

Eligibility (activation-memory admission control) uses two meta keys:

* ``inflight_key``/``inflight_limit`` on a FORWARD: the forward may start
  only while fewer than ``limit`` micro-batches are in flight for that key.
* ``inflight_release`` on the releasing task — the full BACKWARD, or the
  input-grad (BACKWARD_INPUT) half when the schedule splits the backward:
  the slot is freed at that task's simulated *end* time (a forward
  elsewhere can never be admitted at a simulated time before the task
  that frees its slot has finished).  Zero-bubble weight-grad tasks
  neither hold nor release slots: they consume saved tensors accounted
  to the already-released micro-batch, so deferring them into bubbles
  cannot deadlock admission.

The run is deterministic: every tie — equal priorities, equal event
times — is broken by task-id rank or insertion order, never by hash
order, so two simulations of the same graph produce identical timelines
regardless of ``PYTHONHASHSEED``.  Complexity is O(T log T) in the number
of tasks (plus re-queueing of admission-blocked tasks), independent of
the device count (see ``benchmarks/test_executor_scaling.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.pipeline.bubbles import OCCUPYING_KINDS
from repro.pipeline.work import Task, WorkKind
from repro.profiler.timeline import Timeline, TimelineEvent

#: Two simulated instants closer than this are the same instant (guards
#: float drift when equal end times are summed along different dep paths).
_TIME_EPS = 1e-12

#: Duration codes: a re-timed point gives every task one of these values.
DUR_FWD = 0       #: forward of one stage
DUR_BWD = 1       #: backward (+ recompute forward when enabled)
DUR_SYNC_GRAD = 2
DUR_PRECOND = 3
DUR_OVERHEAD = 4
DUR_ZERO = 5      #: barriers / control tasks
DUR_BWD_INPUT = 6   #: zero-bubble input-grad (+ recompute forward)
DUR_BWD_WEIGHT = 7  #: zero-bubble weight-grad (bubble filler material)
N_DUR_CODES = 8

#: Kinds the schedule builders emit.  Other kinds compile with code None:
#: they run on explicit per-task durations only.
_KIND_TO_DUR = {
    WorkKind.FORWARD: DUR_FWD,
    WorkKind.BACKWARD: DUR_BWD,
    WorkKind.BACKWARD_INPUT: DUR_BWD_INPUT,
    WorkKind.BACKWARD_WEIGHT: DUR_BWD_WEIGHT,
    WorkKind.SYNC_GRAD: DUR_SYNC_GRAD,
    WorkKind.PRECONDITION: DUR_PRECOND,
    WorkKind.OVERHEAD: DUR_OVERHEAD,
    WorkKind.BARRIER: DUR_ZERO,
}


@dataclass
class CompiledGraph:
    """One task graph lowered to integer-indexed arrays.

    ``meta``/``label`` keep references to the built tasks' dicts and
    strings; :func:`materialize_timeline` copies each ``meta`` per event,
    so consumers can annotate events without corrupting a cached graph or
    sibling timelines.

    ``order_key`` collapses the ready-heap ``(priority, tid)`` ordering
    into one comparable per task: the lexicographic priority tuple packed
    with the tid's sort rank when priorities are uniform non-negative int
    pairs (the builders' shape), else a ``(priority, rank)`` tuple.
    Either way, comparing two tasks' ``order_key`` gives exactly the
    ``(priority, tid)`` order.
    """

    num_devices: int
    n: int
    device: list[int | None]
    kind: list[str]
    label: list[str]
    meta: list[dict]
    order_key: list               #: packed (priority, tid-rank) heap key
    dur_code: list[int | None]    #: None for kinds without a code
    ndeps: list[int]
    dependents: list[list[int]]
    inflight_key: list[int]       #: admission key id, -1 if none
    inflight_limit: list[int]
    release_key: list[int]        #: released key id, -1 if none
    inflight_keys: list           #: key id -> the meta key it stands for
    zero_dep: list[int]           #: tasks with no deps, in build order
    #: Occupying (bubble-relevant) task indices per device, build order.
    occupying_by_device: list[list[int]]
    #: (kind, stage, micro_batch, pipeline, replica) -> task index, for
    #: resolving K-FAC forward/backward triggers.  A split backward's
    #: input-grad half is the "backward" trigger (it produces the error
    #: signal B-factors need); in a multi-step graph the last-built
    #: (latest-step) task of a key wins.
    trigger_idx: dict[tuple, int]

    @property
    def n_inflight_keys(self) -> int:
        return len(self.inflight_keys)


def _pack_order_keys(tasks: list[Task], rank: list[int]) -> list:
    """One comparable per task, ordered exactly like ``(priority, tid)``.

    The empty priority ``()`` (the builders' "run first" marker, e.g. the
    optimizer-step control task) sorts before every non-empty tuple, so
    it packs to the bare rank and every int-pair priority shifts up one
    slot — keeping the whole graph on int keys, which is what lets the
    native batch core (``repro.sweep.native``) accept it.
    """
    n = len(tasks)
    prios = [t.priority for t in tasks]
    if all(
        p == () or (
            len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            and p[0] >= 0 and p[1] >= 0)
        for p in prios
    ):
        m1 = max((p[1] for p in prios if p), default=0) + 1
        return [rank[i] if not p else (p[0] * m1 + p[1] + 1) * n + rank[i]
                for i, p in enumerate(prios)]
    return [(p, rank[i]) for i, p in enumerate(prios)]


def compile_graph(tasks: list[Task], num_devices: int) -> CompiledGraph:
    """Lower a task graph to arrays.

    Raises ``ValueError`` on duplicate task ids and ``RuntimeError`` on
    unknown deps.
    """
    by_id: dict[str, int] = {}
    for i, t in enumerate(tasks):
        if t.tid in by_id:
            raise ValueError(f"duplicate task id {t.tid}")
        by_id[t.tid] = i
    n = len(tasks)
    ndeps = [0] * n
    dependents: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        ndeps[i] = len(t.deps)
        for d in t.deps:
            if d not in by_id:
                raise RuntimeError(f"task {t.tid} depends on unknown task {d}")
            dependents[by_id[d]].append(i)

    order = sorted(range(n), key=lambda i: tasks[i].tid)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r

    key_ids: dict = {}

    def key_id(key) -> int:
        if key not in key_ids:
            key_ids[key] = len(key_ids)
        return key_ids[key]

    inflight_key = [-1] * n
    inflight_limit = [0] * n
    release_key = [-1] * n
    trigger_idx: dict[tuple, int] = {}
    occupying_by_device: list[list[int]] = [[] for _ in range(num_devices)]
    for i, t in enumerate(tasks):
        key = t.meta.get("inflight_key")
        if key is not None:
            inflight_key[i] = key_id(key)
            inflight_limit[i] = t.meta["inflight_limit"]
        rel = t.meta.get("inflight_release")
        if rel is not None:
            release_key[i] = key_id(rel)
        if t.device is not None and t.kind.value in OCCUPYING_KINDS:
            occupying_by_device[t.device].append(i)
        if (t.kind in (WorkKind.FORWARD, WorkKind.BACKWARD,
                       WorkKind.BACKWARD_INPUT)
                and "stage" in t.meta):
            trig_kind = ("backward" if t.kind is WorkKind.BACKWARD_INPUT
                         else t.kind.value)
            trigger_idx[(
                trig_kind,
                t.meta["stage"],
                t.meta["micro_batch"],
                t.meta.get("pipeline"),
                t.meta.get("replica", 0),
            )] = i

    return CompiledGraph(
        num_devices=num_devices,
        n=n,
        device=[t.device for t in tasks],
        kind=[t.kind.value for t in tasks],
        label=[t.label for t in tasks],
        meta=[t.meta for t in tasks],
        order_key=_pack_order_keys(tasks, rank),
        dur_code=[_KIND_TO_DUR.get(t.kind) for t in tasks],
        ndeps=ndeps,
        dependents=dependents,
        inflight_key=inflight_key,
        inflight_limit=inflight_limit,
        release_key=release_key,
        inflight_keys=list(key_ids),
        zero_dep=[i for i in range(n) if ndeps[i] == 0],
        occupying_by_device=occupying_by_device,
        trigger_idx=trigger_idx,
    )


@dataclass(frozen=True)
class DeviceFaults:
    """A per-device failure/restart plan the executor replays at dispatch.

    ``failure_times[d]`` is an ascending tuple of absolute instants at
    which device ``d`` fails.  A failure striking a running task loses the
    work since the last checkpoint (every ``checkpoint_every`` seconds of
    task progress when positive; only completed-task boundaries when 0 —
    the whole in-flight attempt is redone), takes ``restart_delay``
    seconds of downtime, and re-executes the lost work on the same device.
    A failure striking an idle device only delays its next start past the
    downtime window.  Stochastic models sample these traces per replicate
    (:mod:`repro.stochastic.perturb`); the executor itself stays
    deterministic given the trace.
    """

    failure_times: tuple
    restart_delay: float = 0.0
    checkpoint_every: float = 0.0


@dataclass
class CompiledSim:
    """Timing of one compiled graph.

    ``end`` holds the *completion-processing* times (the executor batches
    completions within its 1e-12 tie epsilon, overwriting a task's end
    with the batch instant — dependency propagation and the makespan use
    these).  ``ev_end`` holds each task's *dispatch-computed* ``start +
    duration``, which is what timeline events record; bubbles, colored
    time, and K-FAC trigger readiness all read event ends.

    ``restarts`` holds one ``(device, task, fail_time, resume_time,
    lost_work)`` tuple per fault the simulation replayed (empty for
    deterministic runs) — the "extra tasks" a failure injects, exposed so
    reports can render downtime and re-executed work.
    """

    start: list[float]
    end: list[float]
    ev_end: list[float]
    #: Task indices in dispatch order — the timeline's insertion order.
    ev_order: list[int]
    makespan: float
    restarts: tuple = ()
    #: Peak in-flight count per key id (the python loop counts it; C
    #: core rows leave it empty).
    peak_inflight: list[int] = field(default_factory=list)


def simulate_compiled(
    g: CompiledGraph,
    durs: tuple | None,
    task_durs: list | None = None,
    faults: DeviceFaults | None = None,
) -> CompiledSim:
    """Run the event loop over compiled arrays.

    ``durs[g.dur_code[i]]`` is task i's duration; ``task_durs``, when
    given, overrides the table with an explicit per-task duration array
    (the object API's own durations, or the stochastic perturbation path
    — per-device jitter makes durations task-dependent).

    ``faults`` injects the failure/restart semantics of
    :class:`DeviceFaults`: each dispatch folds the device's pending
    failures into the task's execution window — restart downtime plus
    re-execution of un-checkpointed work — before the completion event is
    scheduled.  Control tasks (``device is None``) never fail.

    Raises ``RuntimeError`` when tasks can never run (dependency cycles,
    unsatisfiable in-flight limits).
    """
    n = g.n
    device = g.device
    if task_durs is None:
        task_durs = [durs[c] for c in g.dur_code]
    tdur = task_durs
    order_key = g.order_key
    dependents = g.dependents
    ikey = g.inflight_key
    ilim = g.inflight_limit
    rkey = g.release_key
    heappush = heapq.heappush
    heappop = heapq.heappop

    missing = list(g.ndeps)
    start = [0.0] * n
    end = [0.0] * n
    ev_end = [0.0] * n
    device_free = [0.0] * g.num_devices
    ready: list[list] = [[] for _ in range(g.num_devices)]
    parked: list[list] = [[] for _ in range(g.n_inflight_keys)]
    inflight = [0] * g.n_inflight_keys
    peak = [0] * g.n_inflight_keys
    ev_order: list[int] = []
    events: list[tuple[float, int, int]] = []
    seq = 0
    remaining = n

    if faults is not None:
        fail_times = faults.failure_times
        fail_cursor = [0] * g.num_devices
        restart_delay = faults.restart_delay
        checkpoint_every = faults.checkpoint_every
        restarts: list[tuple] = []

        def run_with_faults(dev: int, now: float, dur: float,
                            idx: int) -> tuple[float, float]:
            """Fold device ``dev``'s pending failures into one execution.

            Failures that struck while the device sat idle push the start
            past their downtime windows (no work lost); failures landing
            inside the attempt lose the progress since the last
            checkpoint, cost ``restart_delay`` of downtime, and resume
            with the surviving remainder.  Returns (start, end).
            """
            times = fail_times[dev]
            n_times = len(times)
            cur = fail_cursor[dev]
            st = now
            while cur < n_times and times[cur] <= st:
                f = times[cur]
                cur += 1
                resume = f + restart_delay
                if resume > st:
                    restarts.append((dev, idx, f, resume, 0.0))
                    st = resume
            attempt = st
            left = dur
            while cur < n_times and times[cur] < attempt + left:
                f = times[cur]
                cur += 1
                if f <= attempt:
                    # The device is already down (failure during restart
                    # downtime): the outage extends, no new work is lost.
                    resume = f + restart_delay
                    if resume > attempt:
                        restarts.append((dev, idx, f, resume, 0.0))
                        attempt = resume
                    continue
                done = f - attempt
                preserved = 0.0
                if checkpoint_every > 0.0:
                    last_ckpt = (f // checkpoint_every) * checkpoint_every
                    if last_ckpt > attempt:
                        preserved = min(done, last_ckpt - attempt)
                left -= preserved
                resume = f + restart_delay
                restarts.append((dev, idx, f, resume, done - preserved))
                attempt = resume
            fail_cursor[dev] = cur
            return st, attempt + left

    def promote(idx: int, now: float, dirty: set) -> None:
        """All deps of ``idx`` are done as of ``now``: make it runnable.

        Control tasks (device None) complete instantly, cascading through
        their dependents; device tasks enter their device's ready heap.
        """
        nonlocal remaining
        stack = [idx]
        while stack:
            cur = stack.pop()
            if device[cur] is None:
                start[cur] = now
                end[cur] = now
                ev_end[cur] = now
                remaining -= 1
                for dep in dependents[cur]:
                    missing[dep] -= 1
                    if missing[dep] == 0:
                        stack.append(dep)
            else:
                heappush(ready[device[cur]], (order_key[cur], cur))
                dirty.add(device[cur])

    def finish(idx: int, t_end: float, dirty: set) -> None:
        """Apply a completion's effects at its simulated end time."""
        nonlocal remaining
        end[idx] = t_end
        remaining -= 1
        dirty.add(device[idx])
        rel = rkey[idx]
        if rel >= 0:
            inflight[rel] -= 1
            if parked[rel]:
                # A slot freed: blocked tasks compete again at their devices.
                for entry in parked[rel]:
                    heappush(ready[device[entry[1]]], entry)
                    dirty.add(device[entry[1]])
                parked[rel].clear()
        for dep in dependents[idx]:
            missing[dep] -= 1
            if missing[dep] == 0:
                promote(dep, t_end, dirty)

    def dispatch(dev: int, now: float) -> None:
        """Start the device's best eligible ready task, if it is idle."""
        nonlocal seq
        if device_free[dev] > now + _TIME_EPS:
            return
        heap = ready[dev]
        while heap:
            entry = heap[0]
            idx = entry[1]
            key = ikey[idx]
            if key >= 0 and inflight[key] >= ilim[idx]:
                heappop(heap)
                parked[key].append(entry)
                continue  # admission-blocked; a release will re-queue it
            heappop(heap)
            if key >= 0:
                held = inflight[key] + 1
                inflight[key] = held
                if held > peak[key]:
                    peak[key] = held
            if faults is None:
                st = now
                t_end = now + tdur[idx]
            else:
                st, t_end = run_with_faults(dev, now, tdur[idx], idx)
            device_free[dev] = t_end
            start[idx] = st
            ev_end[idx] = t_end
            ev_order.append(idx)
            heappush(events, (t_end, seq, idx))
            seq += 1
            return

    # Seed: zero-dep tasks are runnable at 0; control chains that are
    # complete from the outset collapse immediately.
    dirty: set[int] = set()
    for i in g.zero_dep:
        promote(i, 0.0, dirty)
    for dev in sorted(dirty):
        dispatch(dev, 0.0)

    while events:
        now = events[0][0]
        dirty = set()
        # Drain every completion at this instant before any device picks,
        # so simultaneous releases/readiness are all visible to the pick.
        while events and events[0][0] <= now + _TIME_EPS:
            _, _, idx = heappop(events)
            finish(idx, now, dirty)
        for dev in sorted(dirty):
            dispatch(dev, now)

    if remaining > 0:
        raise RuntimeError(
            f"deadlock: {remaining} tasks cannot run; check deps and "
            "in-flight limits"
        )
    return CompiledSim(start=start, end=end, ev_end=ev_end,
                       ev_order=ev_order, makespan=max(end, default=0.0),
                       restarts=tuple(restarts) if faults is not None else (),
                       peak_inflight=peak)


def materialize_timeline(graph: CompiledGraph, sim: CompiledSim) -> Timeline:
    """The :class:`Timeline` of one simulation, events in dispatch order.

    ``meta`` dicts are *copied* per event: a cached graph serves many
    timelines, so a consumer annotating one timeline's events must never
    reach another's — or the graph's own dicts.
    """
    tl = Timeline(graph.num_devices)
    for i in sim.ev_order:
        tl.add(TimelineEvent(graph.device[i], graph.kind[i], sim.start[i],
                             sim.ev_end[i], graph.label[i],
                             dict(graph.meta[i])))
    return tl


@dataclass
class SimulationResult:
    """Output of a pipeline simulation."""

    timeline: Timeline
    start_times: dict[str, float]
    end_times: dict[str, float]
    makespan: float
    #: The lowered graph and its timing (what ``BubbleFiller`` fills).
    graph: CompiledGraph
    sim: CompiledSim
    #: Peak number of in-flight micro-batches seen per inflight key.
    peak_inflight: dict = field(default_factory=dict)

    def end_of(self, tid: str) -> float:
        return self.end_times[tid]


def simulate_tasks(tasks: list[Task], num_devices: int) -> SimulationResult:
    """Simulate a task graph and return the resulting timeline.

    Compiles the graph, runs :func:`simulate_compiled` on the tasks'
    durations, and materializes the timeline.  Raises ``ValueError`` on
    duplicate task ids and ``RuntimeError`` on unknown deps or deadlock.
    """
    graph = compile_graph(tasks, num_devices)
    sim = simulate_compiled(graph, None,
                            task_durs=[t.duration for t in tasks])
    tids = [t.tid for t in tasks]
    return SimulationResult(
        timeline=materialize_timeline(graph, sim),
        start_times=dict(zip(tids, sim.start)),
        end_times=dict(zip(tids, sim.end)),
        makespan=sim.makespan,
        graph=graph,
        sim=sim,
        peak_inflight={key: p for key, p in
                       zip(graph.inflight_keys, sim.peak_inflight) if p},
    )
