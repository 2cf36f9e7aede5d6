"""Seeded sampling of one replicate's perturbation, as pure data.

:func:`sample_perturbation` turns ``(model, seed, num_devices,
time_unit)`` into a :class:`Perturbation`: per-device duration factors
plus a :class:`~repro.pipeline.executor.DeviceFaults`-shaped failure trace.
Applying it is a pure transform over a compiled template's duration
arrays (:func:`perturbed_durations`), so each Monte Carlo replicate is a
re-timing pass through :func:`~repro.pipeline.executor.simulate_compiled` —
no graph rebuild per seed.

Determinism contract (pinned by ``tests/stochastic/test_perturb.py``):

* the RNG stream depends only on the replicate ``seed`` (namespaced
  Mersenne Twister), never on the model or the schedule — so schedules
  compared under one seed see *common random numbers*, the classic
  variance-reduction for "which degrades least?" questions;
* draws happen in a fixed order — jitter factors (one lognormal per
  device, only when ``jitter_sigma > 0``), then the straggler sample
  (only when ``straggler_count > 0``; drawn even at slowdown 1.0 so the
  choice of straggler is invariant across slowdown values), then
  per-device Poisson failure chains (only when ``preemption_rate > 0``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.pipeline.executor import DeviceFaults
from repro.stochastic.model import StochasticModel

#: Failure times are sampled out to this many nominal steps; a replicate
#: whose perturbed span outruns the horizon simply sees no further
#: failures (preemption_rate * HORIZON is the expected per-device count).
FAILURE_HORIZON_STEPS = 8.0


def replicate_rng(seed: int) -> random.Random:
    """The namespaced, model-independent RNG stream for one replicate."""
    return random.Random(f"repro.stochastic:{seed}")


@dataclass(frozen=True)
class Perturbation:
    """One sampled replicate: device factors + failure/restart trace."""

    seed: int
    #: Multiplicative duration factor per device (1.0 = nominal).
    device_factor: tuple
    #: Ascending absolute failure instants per device (seconds).
    failure_times: tuple
    restart_delay: float
    checkpoint_every: float

    @property
    def has_faults(self) -> bool:
        return any(self.failure_times)

    def faults(self) -> DeviceFaults | None:
        """The executor-facing fault plan (None when fault-free)."""
        if not self.has_faults:
            return None
        return DeviceFaults(failure_times=self.failure_times,
                            restart_delay=self.restart_delay,
                            checkpoint_every=self.checkpoint_every)


def sample_perturbation(
    model: StochasticModel,
    seed: int,
    num_devices: int,
    time_unit: float,
) -> Perturbation:
    """Draw one replicate's perturbation from the documented stream order.

    ``time_unit`` is the nominal step span in seconds — the scale the
    model's rate/fraction knobs are expressed in.
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if not time_unit > 0.0:
        raise ValueError(f"time_unit must be > 0, got {time_unit!r}")
    rng = replicate_rng(seed)

    factor = [1.0] * num_devices
    if model.jitter_sigma > 0.0:
        sigma = model.jitter_sigma
        for d in range(num_devices):
            factor[d] = rng.lognormvariate(0.0, sigma)
    if model.straggler_count > 0:
        count = min(model.straggler_count, num_devices)
        for d in rng.sample(range(num_devices), count):
            factor[d] *= model.straggler_slowdown

    fails: list[tuple] = [()] * num_devices
    if model.preemption_rate > 0.0:
        rate = model.preemption_rate / time_unit  # failures per second
        horizon = FAILURE_HORIZON_STEPS * time_unit
        for d in range(num_devices):
            times: list[float] = []
            t = rng.expovariate(rate)
            while t < horizon:
                times.append(t)
                t += rng.expovariate(rate)
            fails[d] = tuple(times)

    return Perturbation(
        seed=seed,
        device_factor=tuple(factor),
        failure_times=tuple(fails),
        restart_delay=model.restart_delay_frac * time_unit,
        checkpoint_every=model.checkpoint_interval_frac * time_unit,
    )


def table_durations(graph, durs: tuple) -> list:
    """Expand a duration-code table to per-task durations (the identity
    re-timing: ``simulate_compiled(g, durs)`` computes exactly these)."""
    return [durs[c] for c in graph.dur_code]


def perturbed_durations(graph, task_durs: list, p: Perturbation) -> list:
    """Apply per-device factors to a per-task duration array.

    Control tasks (``device is None``) keep their durations — barriers
    stay zero-width; everything a device executes scales by that device's
    factor.
    """
    factor = p.device_factor
    device = graph.device
    return [
        d if device[i] is None else d * factor[device[i]]
        for i, d in enumerate(task_durs)
    ]
