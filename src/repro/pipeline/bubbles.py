"""Bubble accounting over simulated timelines."""

from __future__ import annotations

from repro.profiler.timeline import Timeline

#: Kinds that occupy the device for bubble purposes.  OVERHEAD is a host
#: wait, not device occupancy — PipeFisher may fill it with K-FAC kernels.
OCCUPYING_KINDS = {
    "forward",
    "backward",
    "backward_input",
    "backward_weight",
    "recompute",
    "curvature",
    "inversion",
    "precondition",
    "sync_grad",
    "sync_curv",
}


def bubble_intervals(
    timeline: Timeline, device: int, window: tuple[float, float],
    min_duration: float = 0.0,
) -> list[tuple[float, float]]:
    """Idle (fillable) intervals on one device within ``window``."""
    return timeline.idle_intervals(
        device, window, kinds=OCCUPYING_KINDS, min_duration=min_duration
    )


def device_bubbles(
    graph, sim, device: int, span: float, min_bubble: float,
) -> list[tuple[float, float]]:
    """Idle intervals of one device in a compiled simulation.

    ``graph``/``sim`` are a :class:`~repro.pipeline.executor.CompiledGraph`
    and its :class:`~repro.pipeline.executor.CompiledSim`.  The result
    equals ``bubble_intervals`` over the materialized timeline with
    window ``(0, span)``: the occupying tasks sorted by (start, end),
    merged with the 1e-12 touch tolerance, complemented within
    ``(0, span)``, and bubbles <= ``min_bubble`` dropped.
    """
    start = sim.start
    ev_end = sim.ev_end
    evs = sorted((start[i], ev_end[i]) for i in graph.occupying_by_device[device])
    merged: list[tuple[float, float]] = []
    for s, e in evs:
        if merged and s <= merged[-1][1] + 1e-12:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    idle: list[tuple[float, float]] = []
    cursor = 0.0
    for b0, b1 in merged:
        if b0 >= span:
            break
        b0c = max(b0, 0.0)
        b1c = min(b1, span)
        if b0c > cursor:
            idle.append((cursor, b0c))
        cursor = max(cursor, b1c)
    if cursor < span:
        idle.append((cursor, span))
    return [(a, b) for a, b in idle if b - a > min_bubble]


def bubble_time(timeline: Timeline, window: tuple[float, float] | None = None) -> float:
    """Total idle seconds summed over devices."""
    if window is None:
        window = timeline.span
    total = 0.0
    for d in range(timeline.num_devices):
        for a, b in bubble_intervals(timeline, d, window):
            total += b - a
    return total


def bubble_fraction(timeline: Timeline, window: tuple[float, float] | None = None) -> float:
    """Idle fraction of the (devices x window) area."""
    if window is None:
        window = timeline.span
    t0, t1 = window
    if t1 <= t0:
        raise ValueError(f"empty window {window}")
    return bubble_time(timeline, window) / (timeline.num_devices * (t1 - t0))
