"""The ``kfac`` workload: ``KFAC.step`` over the BERT-Base encoder topology.

72 linears, 12 blocks of ``[4 x (d, d), (d, 4d), (4d, d)]``, at a sixth
of BERT-Base's width (d = 128): half width peaks at 2.8 GB and takes
about 6 s per refresh cycle on a 2-core box, so a run would see two.
Curvature refreshes every step and inverses every second step, from 8
captured micro-batches of rows per layer.  Weights,
captures and gradients come from the seed and are generated before
timing; each step re-installs them, untimed, so every step does the
same work.

A step's latency sample is the mean step time of one refresh cycle (an
inversion step plus a plain step), so every sample includes a refresh.
"""

from __future__ import annotations

import ast
import os
import random
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

from common import ROOT, Outcome, peak_rss_mb, probe_setup, setup_medians
from tracing import TRACE_PAIRS, Tracer, layer_metrics, overhead_pct

WIDTH = 128
BLOCKS = 12
MICRO_BATCHES = 8
ROWS = 128
DAMPING = 0.03
INVERSE_INTERVAL = 2
#: Cycles per untraced or traced block of a traced run.
TRACE_CYCLES = 2
#: Layers whose preconditioned gradients are re-derived in float64.
CHECK_LAYERS = 6
#: The tolerance test file that pins batched preconditioning.
_TOL_SOURCE = os.path.join(ROOT, "tests", "kfac", "test_batched_equivalence.py")


def precond_tol() -> dict:
    """``PRECOND_TOL`` as the K-FAC equivalence tests define it."""
    with open(_TOL_SOURCE) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["PRECOND_TOL"]):
            call = node.value
            return {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    raise LookupError(f"PRECOND_TOL not found in {_TOL_SOURCE}")


def build(seed: int):
    """The layers, inner optimizer and ``KFAC`` (the workload's start-up)."""
    from repro.kfac import KFAC
    from repro.nn import Linear
    from repro.optim import SGD

    rng = np.random.default_rng(seed)
    d = WIDTH
    shapes = [(d, d)] * 4 + [(d, 4 * d), (4 * d, d)]
    layers = [(f"block{b}.linear{j}", Linear(i, o, rng=rng))
              for b in range(BLOCKS) for j, (i, o) in enumerate(shapes)]
    params = [p for _, lin in layers for p in (lin.weight, lin.bias)]
    kfac = KFAC(layers, SGD(params, lr=1e-4), damping=DAMPING,
                curvature_interval=1, inverse_interval=INVERSE_INTERVAL)
    return layers, kfac


def make_inputs(layers, seed: int) -> list:
    """Per layer: captured input rows, output-grad rows, weight/bias grads.

    Output-grad rows are scaled by 1e-3 so the output factor ``B`` is near
    the identity; the gradients stay at unit scale, so the preconditioned
    gradients are too and ``PRECOND_TOL``'s rtol, not its atol, decides.
    """
    rng = np.random.default_rng([seed, 1])
    out = []
    for _, lin in layers:
        xs = [rng.standard_normal((ROWS, lin.in_features), dtype=np.float32)
              for _ in range(MICRO_BATCHES)]
        gs = [rng.standard_normal((ROWS, lin.out_features), dtype=np.float32)
              * np.float32(1e-3) for _ in range(MICRO_BATCHES)]
        gw = rng.standard_normal((lin.out_features, lin.in_features),
                                 dtype=np.float32)
        gb = rng.standard_normal(lin.out_features, dtype=np.float32)
        out.append((xs, gs, gw, gb))
    return out


def _install(layers, inputs) -> None:
    """What one forward/backward would leave behind, without computing it."""
    for (_, lin), (xs, gs, gw, gb) in zip(layers, inputs):
        lin.captured_inputs = list(xs)
        lin.captured_output_grads = list(gs)
        lin.weight.grad = gw
        lin.bias.grad = gb


def _cycles(kfac, layers, inputs, n: int | None, seconds: float) -> list:
    """Step times of whole refresh cycles, for ``n`` cycles or ``seconds``."""
    times = []
    spent = 0.0
    while (len(times) < n * INVERSE_INTERVAL if n is not None
           else not times or spent < seconds):
        for _ in range(INVERSE_INTERVAL):
            _install(layers, inputs)
            t0 = perf_counter()
            kfac.step()
            times.append(perf_counter() - t0)
            spent += times[-1]
    return times


def _reference(xs, gs, gw, gb) -> tuple:
    """Float64 ``B^-1 [G | g] A^-1`` from the raw rows."""
    from repro.kfac.inverse import pi_damping

    x = np.concatenate(xs).astype(np.float64)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    g = np.concatenate(gs).astype(np.float64)
    a = x.T @ x / x.shape[0]
    b = g.T @ g * g.shape[0]
    da, db = pi_damping(a, b, DAMPING)
    a_inv = np.linalg.inv(a + da * np.eye(a.shape[0]))
    b_inv = np.linalg.inv(b + db * np.eye(b.shape[0]))
    grad = np.hstack([gw.astype(np.float64), gb.astype(np.float64)[:, None]])
    nat = b_inv @ grad @ a_inv
    return nat[:, :-1], nat[:, -1]


def _close(got, want, rtol: float, atol: float) -> tuple:
    err = np.abs(got.astype(np.float64) - want)
    ok = bool(np.all(err <= atol + rtol * np.abs(want)))
    return ok, float(err.max())


def _check(out: Outcome, kfac, layers, inputs, seed: int) -> None:
    """A refresh step's preconditioned gradients vs the float64 reference."""
    tol = precond_tol()
    while kfac.step_count % INVERSE_INTERVAL:
        _install(layers, inputs)
        kfac.step()
    _install(layers, inputs)
    kfac.step()
    picks = random.Random(f"perfbench-kfac-check:{seed}").sample(
        range(len(layers)), CHECK_LAYERS)
    for i in sorted(picks):
        name, lin = layers[i]
        want_w, want_b = _reference(*inputs[i])
        ok_w, err_w = _close(lin.weight.grad, want_w, **tol)
        ok_b, err_b = _close(lin.bias.grad, want_b, **tol)
        out.check(f"{name} preconditioned grad within PRECOND_TOL {tol}",
                  ok_w and ok_b, f"max abs err {max(err_w, err_b):.3e}")


@contextmanager
def _traced(kfac, tracer: Tracer):
    """Wrap the K-FAC phases as instance attributes; removing them on exit
    restores the class methods."""
    wrapped = [(kfac, "update_curvature", "kfac.curvature"),
               (kfac, "update_inverses", "kfac.inversion"),
               (kfac, "precondition", "kfac.precondition"),
               (kfac.inner, "step", "kfac.inner_step"),
               (kfac, "step", "kfac.step")]
    for owner, attr, span in wrapped:
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr)))
    try:
        yield
    finally:
        for owner, attr, _ in wrapped:
            delattr(owner, attr)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    setup = probe_setup("kfac")
    out = Outcome()
    layers, kfac = build(seed)
    inputs = make_inputs(layers, seed)
    _cycles(kfac, layers, inputs, 1, 0.0)  # warm-up: workspaces, first faults
    if not trace:
        times = _cycles(kfac, layers, inputs, None, seconds)
        out.peak_rss_mb = peak_rss_mb()
    else:
        # Untraced and traced blocks of the same cycles, in turn; the
        # per-step split covers every traced block.
        tracer = Tracer()
        walls: dict = {False: [], True: []}
        times = []
        for traced in (False, True) * TRACE_PAIRS:
            with _traced(kfac, tracer) if traced else nullcontext():
                block = _cycles(kfac, layers, inputs, TRACE_CYCLES, 0.0)
            walls[traced].append(sum(block))
            if traced:
                times += block
        out.details.update({"untraced_wall_s": walls[False],
                            "traced_wall_s": walls[True],
                            "spans": tracer.summary()})
        out.tracer = tracer
    out.ops = len(times)
    out.wall_s = sum(times)
    out.latencies_s = [sum(times[i:i + INVERSE_INTERVAL]) / INVERSE_INTERVAL
                       for i in range(0, len(times), INVERSE_INTERVAL)]
    out.details.update({"steps": len(times), "width": WIDTH,
                        "step_s": times})
    _check(out, kfac, layers, inputs, seed)
    out.setup = setup_medians(setup + probe_setup("kfac"))
    if trace:
        out.layers = layer_metrics(
            tracer, steps=len(times), setup=out.setup,
            overhead_pct=overhead_pct(walls[False], walls[True]))
    return out
