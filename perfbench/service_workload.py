"""The ``service`` workload: ``repro serve`` over HTTP under a closed loop.

The server runs as its own process (``python -m repro.cli serve``, an
in-memory store, the default engine pool).  One client process keeps two
keep-alive connections busy in a closed loop, because planner callers
wait for each reply.  The seeded request mix is about 50% cold inline
``/sweep`` grids of 4 ``pipefisher`` points, 35% byte-identical repeats
of earlier grids (sent only once the first answer is back), and 15%
``/plan`` calls.  The first ``WARM_REQUESTS`` are sent untimed, after
which the server's peak memory is read, so ``peak_rss_mb`` covers a
fixed amount of work.

A traced run hosts two ``ServiceServer`` instances in this process
instead, one plain and one whose handlers and engine-pool slot locks
are wrapped, and sends the same slices of the mix to each in turn.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import socket
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from time import perf_counter

from common import (ROOT, SETUP_HALF, Outcome, child_env, probe_setup,
                    setup_medians)
from tracing import (TRACE_PAIRS, Tracer, engine_totals, instrument,
                     layer_metrics, overhead_pct)

SCHEDULES = ("1f1b", "chimera", "gpipe", "interleaved", "zb1f1b")
ARCHS = ("BERT-Base", "BERT-Large", "T5-Base", "T5-Large", "OPT-125M",
         "OPT-350M")
HARDWARE = ("P100", "V100", "RTX3090")
DEPTHS = (4, 8)
FACTORS = (1, 2)
B_MICROS = tuple(range(1, 257))
BUDGETS_GB = (8, 12, 16, 24, 32)
#: Requests per second the timed window is sized for, ~12x what the
#: service answers today; a run whose window outlasts the mix fails.
RATE_CEILING = 500
#: Untimed requests first, so the server's start-up burst of template
#: builds is over before timing (a planner serves long after start-up);
#: the server's peak memory is read once they are answered.
WARM_REQUESTS = 200
#: Requests per untraced or traced block of a traced run.
TRACE_BLOCK = 134
CONNECTIONS = 2
#: Completed requests re-derived by the reference paths, per kind.
COLD_CHECKS = 24
PLAN_CHECKS = 10


def mix_length(seconds: float) -> int:
    """Requests a run may send: the warm-up plus the timed window at
    ``RATE_CEILING``, or the traced run's blocks."""
    timed = max(math.ceil(seconds * RATE_CEILING), TRACE_BLOCK * TRACE_PAIRS)
    return WARM_REQUESTS + timed


def request_mix(seed: int, length: int) -> list:
    """``[(kind, path, body bytes, index of the original or None)]``; a
    longer mix extends a shorter one of the same seed."""
    rng = random.Random(f"perfbench-service:{seed}")
    used: set = set()
    cold: list = []
    out: list = []
    for i in range(length):
        r = rng.random()
        if r >= 0.85:
            body = {"arch": rng.choice(ARCHS),
                    "hardware": rng.choice(HARDWARE),
                    "budget_gb": rng.choice(BUDGETS_GB)}
            out.append(("plan", "/plan", json.dumps(body).encode(), None))
        elif r >= 0.5 and cold:
            orig = rng.choice(cold)
            out.append(("repeat", "/sweep", out[orig][2], orig))
        else:
            out.append(("cold", "/sweep", _cold_grid(rng, used), None))
            cold.append(i)
    return out


def _cold_grid(rng: random.Random, used: set) -> bytes:
    """A 2x2 grid over hardware x b_micro whose 4 points are all new."""
    for _ in range(1000):
        fixed = {"schedule": rng.choice(SCHEDULES), "arch": rng.choice(ARCHS),
                 "depth": rng.choice(DEPTHS),
                 "n_micro_factor": rng.choice(FACTORS)}
        hws = rng.sample(HARDWARE, 2)
        bs = rng.sample(B_MICROS, 2)
        points = {(*fixed.values(), h, b) for h in hws for b in bs}
        if points & used:
            continue
        used |= points
        return json.dumps({
            "kind": "pipefisher", "fixed": fixed,
            "grid": {"hardware": hws, "b_micro": bs},
            "inline": True}).encode()
    raise RuntimeError("no new 2x2 grids left; the mix is too long")


def _connect(host: str, port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection(host, port, timeout=60)
    conn.connect()
    # http.client writes headers and body separately; without this the
    # client itself would stall each request on Nagle + delayed ACK.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class ClosedLoop:
    """``CONNECTIONS`` client threads sending the mix in order.

    :meth:`run` sends the next slice of the mix; the warm-up and the
    timed phase share one loop, so repeats can follow earlier answers.
    """

    def __init__(self, host: str, port: int, mix: list) -> None:
        self.host, self.port = host, port
        self.mix = mix
        self.tracer: Tracer | None = None
        self.responses: dict = {}  #: index -> (status, body bytes, latency)
        self.done = [threading.Event() for _ in mix]
        self._next = 0
        self._lock = threading.Lock()

    def _take(self, deadline: float, stop: int) -> int | None:
        with self._lock:
            i = self._next
            if i >= stop or perf_counter() >= deadline:
                return None
            self._next += 1
            return i

    def _send(self, conn, i: int):
        """Send request ``i``; returns the connection to reuse, or None."""
        kind, path, body, orig = self.mix[i]
        if orig is not None:
            self.done[orig].wait(60)
        headers = {"Content-Type": "application/json"}
        span = (nullcontext() if self.tracer is None else
                self.tracer.span("service.request", request_id=str(i)))
        t0 = perf_counter()
        try:
            with span as sid:
                if sid is not None:
                    headers["X-Request-Id"] = str(i)
                    headers["X-Parent-Span"] = str(sid)
                if conn is None:
                    conn = _connect(self.host, self.port)
                conn.request("POST", path, body, headers)
                resp = conn.getresponse()
                data = resp.read()
            self.responses[i] = (resp.status, data, perf_counter() - t0)
            return conn
        except (OSError, http.client.HTTPException) as exc:
            self.responses[i] = (0, str(exc).encode(), perf_counter() - t0)
            if conn is not None:
                conn.close()
            return None
        finally:
            self.done[i].set()

    def _worker(self, deadline: float, stop: int) -> None:
        conn = None
        while (i := self._take(deadline, stop)) is not None:
            conn = self._send(conn, i)
        if conn is not None:
            conn.close()

    def run(self, seconds: float, stop: int) -> tuple:
        """Send requests up to index ``stop`` or for ``seconds``; returns
        the indices sent and the phase's wall seconds."""
        first = self._next
        t0 = perf_counter()
        threads = [threading.Thread(target=self._worker,
                                    args=(t0 + seconds, stop))
                   for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return range(first, self._next), perf_counter() - t0


# -- the server -------------------------------------------------------------------


def _launch_server() -> tuple:
    """Start ``repro serve`` on a free port; returns (proc, host, port, s)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
         "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if "serving on http://" not in line:
        _stop(proc)
        raise RuntimeError(f"service did not start: {line!r}")
    host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
    return proc, host, int(port), ready


def _stop(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _vm_hwm_mb(pid: int) -> float:
    """A live process's peak resident set size so far (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise LookupError(f"no VmHWM for process {pid}")


def _launch_and_stop(times: int) -> list:
    """Spawn-to-listening seconds of ``times`` servers started in turn."""
    readies = []
    for _ in range(times):
        proc, _, _, ready = _launch_server()
        _stop(proc)
        readies.append(ready)
    return readies


# -- correctness ------------------------------------------------------------------


def _check(out: Outcome, loop: ClosedLoop, seed: int) -> None:
    from repro.campaign import CampaignRunner, CampaignSpec, canonical_json
    from repro.service.planner import plan
    from repro.sweep.engine import SweepEngine

    engine = SweepEngine()
    rng = random.Random(f"perfbench-service-check:{seed}")
    ok = _answered(out, loop, "service")
    body = {i: json.loads(r[1]) for i, r in ok.items()}
    by_kind: dict = {}
    for i in ok:
        by_kind.setdefault(loop.mix[i][0], []).append(i)

    cold = by_kind.get("cold", [])
    for i in sorted(rng.sample(cold, min(COLD_CHECKS, len(cold)))):
        req = json.loads(loop.mix[i][2])
        spec = CampaignSpec(
            name="perfbench-service-check", title="service check",
            kind=req["kind"], fixed=tuple(sorted(req["fixed"].items())),
            grid=tuple((a, tuple(v)) for a, v in req["grid"].items()))
        ref = CampaignRunner(engine=engine).run(spec)
        want = [[u.key, u.kind, u.params_dict(), ref.records[u.key]["value"]]
                for u in spec.units()]
        got = [[r["key"], r["kind"], r["params"], r["value"]]
               for r in body[i]["units"]]
        out.check(f"cold sweep {i} == CampaignRunner on a fresh engine",
                  canonical_json(want) == canonical_json(got)
                  and body[i]["executed"] == len(want))
    for i in by_kind.get("repeat", []):
        orig = loop.mix[i][3]
        same = (orig in body and body[i]["executed"] == 0
                and json.dumps(body[i]["units"])
                == json.dumps(body[orig]["units"]))
        out.check(f"repeat {i} == first answer {orig}, executed 0", same)
    plans = by_kind.get("plan", [])
    for i in sorted(rng.sample(plans, min(PLAN_CHECKS, len(plans)))):
        req = json.loads(loop.mix[i][2])
        want = plan(req["arch"], req["hardware"], budget_gb=req["budget_gb"],
                    engine=engine).to_dict()
        got = {k: v for k, v in body[i].items() if k != "cost_units"}
        out.check(f"plan {i} == plan()",
                  canonical_json(json.loads(json.dumps(want)))
                  == canonical_json(got))


def _answered(out: Outcome, loop: ClosedLoop, who: str) -> dict:
    """Count non-200 answers as failed; returns the 200 ones by index."""
    ok = {i: r for i, r in loop.responses.items() if r[0] == 200}
    errors = len(loop.responses) - len(ok)
    out.check(f"{who} answered every request with 200", errors == 0,
              f"{errors} errors", ops=0)
    out.failed += errors
    return ok


def _fill(out: Outcome, loop: ClosedLoop, sent, wall_s: float) -> None:
    out.ops = len(sent)
    out.wall_s = wall_s
    out.latencies_s = [loop.responses[i][2] for i in sent]
    kinds = [loop.mix[i][0] for i in sent]
    out.details.update({k: kinds.count(k) for k in ("cold", "repeat",
                                                     "plan")})


# -- traced run -------------------------------------------------------------------


class _TimedLock:
    """A slot lock whose acquisitions are ``service.slot_wait`` spans."""

    def __init__(self, lock, tracer: Tracer) -> None:
        self._lock = lock
        self._tracer = tracer

    def __enter__(self):
        with self._tracer.span("service.slot_wait"):
            self._lock.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


def _trace_service(service, server, tracer: Tracer) -> None:
    """Wrap the handlers and slot locks of one in-process service."""
    service.sweep = tracer.wrap("service.handler", service.sweep)
    service.plan = tracer.wrap("service.handler", service.plan)
    for slot in service.pool.slots:
        slot.lock = _TimedLock(slot.lock, tracer)
    handler = server.httpd.RequestHandlerClass  # this server's own subclass
    do_post = handler.do_POST

    def traced_post(self):
        parent = self.headers.get("X-Parent-Span")
        with tracer.adopt(int(parent) if parent else None,
                          self.headers.get("X-Request-Id")):
            do_post(self)

    handler.do_POST = traced_post


def _engine_totals(service) -> dict:
    return engine_totals(s.engine.stats() for s in service.pool.slots)


def _traced_run(out: Outcome, mix: list, seed: int) -> None:
    """Two in-process servers, one plain and one traced, each warmed up;
    then the same ``TRACE_BLOCK`` requests to each in turn, TRACE_PAIRS
    times.  The per-layer split covers the traced server's blocks."""
    from repro.service import PlanningService, ServiceServer

    tracer = Tracer()
    services = [PlanningService(), PlanningService()]
    walls: dict = {False: [], True: []}
    with ServiceServer(services[0]) as plain_server, \
            ServiceServer(services[1]) as traced_server:
        plain = ClosedLoop(plain_server.host, plain_server.port, mix)
        loop = ClosedLoop(traced_server.host, traced_server.port, mix)
        plain.run(float("inf"), WARM_REQUESTS)
        loop.run(float("inf"), WARM_REQUESTS)
        before = _engine_totals(services[1])
        _trace_service(services[1], traced_server, tracer)
        loop.tracer = tracer
        stop = WARM_REQUESTS
        for _ in range(TRACE_PAIRS):
            stop += TRACE_BLOCK
            walls[False].append(plain.run(float("inf"), stop)[1])
            with instrument(tracer):
                walls[True].append(loop.run(float("inf"), stop)[1])
        after = _engine_totals(services[1])
    sent = range(WARM_REQUESTS, stop)
    _fill(out, loop, sent, sum(walls[True]))
    answers = [json.loads(loop.responses[i][1]) for i in sent
               if loop.mix[i][0] != "plan" and loop.responses[i][0] == 200]
    out.layers = layer_metrics(
        tracer, {k: after[k] - before[k] for k in after}, requests=len(sent),
        executed=sum(a["executed"] for a in answers),
        cached=sum(a["cached"] for a in answers),
        setup=out.setup,
        overhead_pct=overhead_pct(walls[False], walls[True]))
    out.details.update({"untraced_wall_s": walls[False],
                        "traced_wall_s": walls[True],
                        "spans": tracer.summary()})
    out.tracer = tracer
    _answered(out, plain, "plain in-process service")
    _check(out, loop, seed)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    mix = request_mix(seed, mix_length(seconds))
    if trace:
        ready = statistics.median(_launch_and_stop(SETUP_HALF))
        out = Outcome(setup={**setup_medians(probe_setup("service")),
                             "server_ready_s": ready})
        _traced_run(out, mix, seed)
        return out

    # Servers started before and after the timed window time set-up; the
    # last one started before it serves the run.
    readies = _launch_and_stop(SETUP_HALF - 1)
    proc, host, port, ready = _launch_server()
    readies.append(ready)
    out = Outcome()
    try:
        loop = ClosedLoop(host, port, mix)
        loop.run(float("inf"), WARM_REQUESTS)
        out.peak_rss_mb = _vm_hwm_mb(proc.pid)
        sent, wall = loop.run(seconds, len(mix))
    finally:
        _stop(proc)
    readies += _launch_and_stop(SETUP_HALF)
    ready = statistics.median(readies)
    out.setup = {"setup_s": ready, "server_ready_s": ready,
                 "samples": readies}
    _fill(out, loop, sent, wall)
    out.check("the request mix outlasted the timed window",
              sent.stop < len(mix),
              f"{len(sent)} requests in {wall:.2f} s; raise RATE_CEILING",
              ops=0)
    _check(out, loop, seed)
    return out
