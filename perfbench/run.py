"""The repository's layered benchmark: one command, three workloads.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same work untraced and then traced, and reports
the per-layer metrics plus the tracing overhead.  Every run checks the
program's outputs outside the timed region and exits non-zero when a
check fails.  The last line of standard output is the result JSON; the
line before it is the environment fingerprint with the check details.
Result files and Chrome traces are written under ``perfbench/_out/``.
See ``perfbench/README.md`` for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

import common

WORKLOADS = ("mc", "service", "kfac")

#: Every end-to-end metric with its unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _workload_module(name: str):
    if name == "mc":
        import mc_workload

        return mc_workload.run
    if name == "service":
        import service_workload

        return service_workload.run
    import kfac_workload

    return kfac_workload.run


def end_to_end(out: common.Outcome) -> dict:
    lat = out.latencies_s
    return {
        "setup_s": out.setup["setup_s"],
        "ops_per_s": out.ops / out.wall_s,
        "op_p50_ms": 1e3 * np.percentile(lat, 50),
        "op_p90_ms": 1e3 * np.percentile(lat, 90),
        "peak_rss_mb": out.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no package source under {common.SRC}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    # Temporary files (the C compiler's included) stay inside the checkout;
    # child interpreters inherit this.
    tmp = os.path.join(common.OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp

    out = _workload_module(args.workload)(args.seed, args.seconds,
                                          bool(args.trace))
    if args.trace:
        from tracing import LAYER_METRICS as units

        values = out.layers
    else:
        units, values = END_TO_END, end_to_end(out)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = common.fingerprint()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    if out.tracer is not None:
        out.tracer.write_chrome(
            os.path.join(common.OUT_DIR, f"trace-{tag}.json"),
            {"workload": args.workload, "seed": args.seed, "env": env})
    attempted = max(out.ops, 1)
    result = {
        "correct": out.correct,
        "attempted": attempted,
        "failed": min(out.failed, attempted),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setup": out.setup, "details": out.details,
              "samples": len(out.latencies_s),
              "checks": [{"name": n, "passed": ok, "detail": d}
                         for n, ok, d in out.checks],
              "result": result}
    with open(os.path.join(common.OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    for name, ok, detail in out.checks:
        if not ok:
            print(f"CHECK FAILED: {name} {detail}", file=sys.stderr)
    print(json.dumps({"env": env, "samples": len(out.latencies_s),
                      "checks": len(out.checks),
                      "checks_failed": [n for n, ok, _ in out.checks
                                        if not ok]}))
    print(json.dumps(result))
    return 0 if out.correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
