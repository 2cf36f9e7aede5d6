"""Shared plumbing for the layered benchmark: paths, set-up probes, the
environment fingerprint, and the per-workload outcome record."""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Run DBs, traces and result files; ignored by git.
OUT_DIR = os.path.join(HERE, "_out")

#: Fresh interpreters timed per run for ``setup_s``, half before the timed
#: region and half after it, so one slow spell of the host does not catch
#: them all; the median is reported.
SETUP_REPEATS = 4
SETUP_HALF = SETUP_REPEATS // 2


def child_env() -> dict:
    """Environment for child interpreters: the in-tree package, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def scratch_dir(prefix: str) -> str:
    """A fresh directory under the benchmark's output dir."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size so far (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Operations attempted in the timed region (units, requests, steps).
    ops: int = 0
    #: Operations that raised, returned an error, or failed a check.
    failed: int = 0
    #: Wall seconds of the timed region.
    wall_s: float = 0.0
    #: Per-operation latency samples in seconds (the op_p* metrics).
    latencies_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: ``(check name, passed, detail)`` triples from the correctness gate.
    checks: list = field(default_factory=list)
    #: Set-up medians from fresh interpreters (``setup_s`` and its parts).
    setup: dict = field(default_factory=dict)
    #: Per-layer metric values (traced runs only).
    layers: dict = field(default_factory=dict)
    #: Extra facts for the result file (sample counts, passes, ...).
    details: dict = field(default_factory=dict)
    #: The span recorder of a traced run, exported at the end.
    tracer: object = None

    def check(self, name: str, passed: bool, detail: str = "",
              ops: int = 1) -> None:
        """Record one correctness check; a failure fails its ``ops``."""
        self.checks.append((name, bool(passed), detail))
        if not passed:
            self.failed += ops

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# -- set-up probes ----------------------------------------------------------------


def probe_setup(workload: str, repeats: int = SETUP_HALF) -> list:
    """Time ``repeats`` fresh interpreters from spawn to ready.

    Each probe runs ``probe.py``, which does the workload's start-up and
    prints one JSON line with its parts when it is ready to serve the
    first unit; the wall time from spawn to that line is one ``setup_s``
    sample.  Returns the samples; :func:`setup_medians` reduces them.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), workload],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        if rc != 0 or not line.strip():
            raise RuntimeError(f"set-up probe for {workload} failed (rc={rc})")
        samples.append({"setup_s": wall, **json.loads(line)})
    return samples


def setup_medians(samples: list) -> dict:
    """The median of each set-up part over ``samples``, plus the walls."""
    return {**{k: statistics.median(s[k] for s in samples)
               for k in samples[0]},
            "samples": [s["setup_s"] for s in samples]}


# -- environment fingerprint ------------------------------------------------------


def _blas_info() -> dict:
    import numpy as np

    info: dict = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        info = {"name": "unknown"}
    info["threads"] = _blas_threads(np)
    return info


def _blas_threads(np) -> int | None:
    """OpenBLAS's thread count, read through its own getter when present."""
    import ctypes
    import glob

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """The checkout's commit, without searching directories above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    """The machine and build a result set came from."""
    import platform

    import numpy as np

    from repro.sweep.native import native_status

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "native": native_status(),
        "commit": _git_commit(),
        "platform": platform.platform(),
    }
