"""Set-up probe: one fresh interpreter from start to ready-to-serve.

Run as ``python3 perfbench/probe.py <workload>`` with ``src`` on the
path.  It imports the package, loads the campaign registry and the
native core, then does the workload's own start-up, and prints one JSON
line with the parts' seconds.  The parent times spawn-to-line.
"""

from __future__ import annotations

import json
import sys
import time


def main(workload: str) -> int:
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.campaign import load_builtin_campaigns

    load_builtin_campaigns()
    t1 = time.perf_counter()
    from repro.sweep import native

    native.available()
    t2 = time.perf_counter()
    if workload == "mc":
        from repro.campaign import CampaignRunner
        from repro.sweep.engine import SweepEngine

        CampaignRunner(engine=SweepEngine(), run_dir=None)
    elif workload == "kfac":
        import kfac_workload

        kfac_workload.build(seed=0)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "native_load_s": t2 - t1,
                      "ready_s": t3 - t2}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
