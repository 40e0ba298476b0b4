"""One benchmark pass in a fresh interpreter, as a CLI call or a new library
session would see it: module-level caches start cold and the peak RSS is
this pass's own.

Times `import kloostercodes` (set-up), then runs one workload's job list
(wall time), optionally under the span tracer, and checks every result
afterwards.  Reads the pass spec as JSON on stdin and prints the pass result
as one JSON line on stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

_start = time.perf_counter()
import kloostercodes  # noqa: E402

SETUP_S = time.perf_counter() - _start

import json  # noqa: E402
import resource  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main():
    if not os.path.abspath(kloostercodes.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported kloostercodes from %s, not from %s"
                 % (kloostercodes.__file__, SRC))
    spec = json.load(sys.stdin)
    result = {"setup_s": SETUP_S}
    if spec.get("workload") is None:
        print(json.dumps(result))
        return
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as f:
        reference = json.load(f)
    trace = tracer.Tracer() if spec["trace"] else None
    if trace is not None:
        trace.install()
    log = workloads.JobLog()
    run = workloads.WORKLOADS[spec["workload"]]
    start = time.perf_counter()
    run(log, spec["fields"])
    wall_s = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["wall_s"] = wall_s
    bad = workloads.check(spec["workload"], spec["fields"], log.jobs, reference)
    result["attempted"] = len(log.jobs)
    result["failed"] = len(bad)
    result["failures"] = sorted(bad.values())[:10]
    if trace is not None:
        layers = trace.summary(wall_s)
        layers["cli.stdout_bytes"] = sum(len(j.result[1].encode()) for j in log.jobs
                                         if j.kind == "cli" and j.error is None)
        result["layers"] = layers
        result["spans"] = trace.export(start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
