"""Benchmark of the kloostercodes pipeline.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload's job list again and again, one pass at a time in a closed
loop with one client, each pass in a fresh single-threaded interpreter
(perfbench/worker.py), until --seconds have passed.  Inputs (irreducible
moduli and character arguments) are drawn from --seed here, outside every
timed region; the program sees only the generated moduli and arguments.
Every job's result goes through a correctness gate.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it reports the per-layer
metrics, taken from the traced pass with the median wall time, and writes
that run's spans to .perfbench_out/<workload>.spans.jsonl.  --smoke runs one
untraced and one traced pass of every workload at r <= 2 and checks that
every metric in BENCHMARK.json is emitted.  See perfbench/DESIGN.md.
"""

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time

import tracer  # imports nothing from kloostercodes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# r values of each workload, at full size and in smoke mode, and how many of
# the seeded moduli of each field one pass uses
WORKLOADS = {
    "verify-sweep": {"rs": (1, 2, 3, 4, 5), "smoke_rs": (1, 2), "per_pass": 1},
    "high-moment": {"rs": (1, 2), "smoke_rs": (1, 2), "per_pass": 1},
    "large-field": {"rs": (7, 8), "smoke_rs": (1, 2), "per_pass": 2},
}
POOL = 4  # seeded moduli per field; passes cycle through them
GAUSS_A = 3  # seeded character arguments a per modulus
MIN_PASSES = {False: 3}  # untraced passes per --trace 0 run
MIN_TRACED_PASSES = {False: 2, True: 2}  # untraced and traced passes per --trace 1 run
SETUP_EVERY_S = 2  # --trace 0 keeps one set-up sample per 2 s of run
STOP_STARTING_S = 100  # no pass starts later, so a run ends well inside 180 s
CHILD_LIMIT_S = 170

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    tuple((name + ".s", "s", "lower") for name in tracer.SPAN_NAMES)
    + tuple((name + ".calls", "count", "lower") for name in tracer.SPAN_NAMES)
    + tuple((layer + ".self_s", "s", "lower") for layer in tracer.LAYERS)
    + tuple((layer + ".errors", "count", "lower") for layer in tracer.LAYERS)
    + tuple((name, unit, "lower") for name, unit in tracer.COUNTERS)
    + (
        ("charsums.k_table.hit_ratio", "ratio", "higher"),
        ("cli.stdout_bytes", "bytes", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.unspanned_s", "s", "lower"),
        ("wall_samples", "count", "higher"),
        ("failed_frac", "frac", "lower"),
    )
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


# -- seeded inputs ---------------------------------------------------------------

def _poly_rem(a, b):
    """a mod b over GF(3), coefficient tuples low degree first, b monic."""
    a = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        c = a[shift + len(b) - 1]
        if c:
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % 3
    return a[: len(b) - 1]


def is_irreducible(m):
    """Whether the monic m has no monic factor of degree 1..deg(m)/2."""
    r = len(m) - 1
    return all(any(_poly_rem(m, low + (1,)))
               for d in range(1, r // 2 + 1)
               for low in itertools.product(range(3), repeat=d))


def irreducible_moduli(rng, r, count):
    """count distinct random monic irreducible polynomials of degree r over
    GF(3), low degree first (all of them when fewer exist)."""
    if 3 ** r <= 81:
        found = [low + (1,) for low in itertools.product(range(3), repeat=r)
                 if is_irreducible(low + (1,))]
        rng.shuffle(found)
        return found[:count]
    found = []
    while len(found) < count:
        m = tuple(rng.randrange(3) for _ in range(r)) + (1,)
        if m not in found and is_irreducible(m):
            found.append(m)
    return found


def plan(workload, seed, smoke=False):
    """spec(k, traced): the input of the k-th pass of one kind."""
    cfg = WORKLOADS[workload]
    rs = cfg["smoke_rs"] if smoke else cfg["rs"]
    rng = random.Random(seed)
    pools = {}
    for r in rs:
        pools[r] = [(m, [rng.randrange(1, 3 ** r) for _ in range(GAUSS_A)])
                    for m in irreducible_moduli(rng, r, POOL)]

    def spec(k, traced):
        fields = []
        for r in rs:
            for i in range(cfg["per_pass"]):
                modulus, a_values = pools[r][(k * cfg["per_pass"] + i) % len(pools[r])]
                fields.append([r, modulus, a_values])
        return {"workload": workload, "trace": traced, "fields": fields}

    return spec


# -- passes ----------------------------------------------------------------------

def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("KLOOSTERCODES_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec, timeout):
    """One worker process; returns its result, after it has exited."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              cwd=ROOT, env=_child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("worker did not finish within %.0f s" % exc.timeout) from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError("worker exited with status %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def measure(spec, seconds, minimum, setup_every=None):
    """Passes until `seconds` have passed and each kind has its minimum count.

    minimum maps traced (bool) to the least number of passes of that kind;
    kinds alternate, untraced first.  With setup_every, import-only workers
    after each pass keep one set-up sample per setup_every seconds, so the
    samples span the whole run.  Returns {traced: [pass results]} and the
    set-up samples of every worker."""
    passes = {traced: [] for traced in minimum}
    setup = []
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        short = any(len(passes[t]) < n for t, n in minimum.items())
        if elapsed > STOP_STARTING_S or not (
                short or elapsed + statistics.median(durations) <= seconds):
            break
        traced = min(passes, key=lambda t: (len(passes[t]), t))
        began = time.perf_counter()
        result = run_child(spec(len(passes[traced]), traced), CHILD_LIMIT_S - elapsed)
        passes[traced].append(result)
        setup.append(result["setup_s"])
        while setup_every and len(setup) < (time.perf_counter() - start) / setup_every:
            setup.append(run_child({}, CHILD_LIMIT_S)["setup_s"])
        durations.append(time.perf_counter() - began)
    return passes, setup


# -- metrics ---------------------------------------------------------------------

def end_to_end(untraced, setup):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(untraced, traced, attempted, failed):
    mid = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    out = dict(mid["layers"])
    for layer in tracer.LAYERS:
        out[layer + ".errors"] = sum(p["layers"][layer + ".errors"] for p in traced)
    base = statistics.median(p["wall_s"] for p in untraced)
    out["trace.wall_s"] = mid["wall_s"]
    out["trace.untraced_wall_s"] = base
    out["trace.overhead_frac"] = mid["wall_s"] / base - 1
    out["wall_samples"] = len(untraced)
    out["failed_frac"] = failed / attempted
    return out


def _with_units(values, declared):
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}


def _tally(passes):
    done = [p for kind in passes.values() for p in kind]
    return (sum(p["attempted"] for p in done), sum(p["failed"] for p in done),
            [f for p in done for f in p["failures"]])


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def write_spans(workload, seed, traced):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, workload + ".spans.jsonl"), "w") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "columns": ["pass", "name", "start_s", "end_s", "parent", "error"]}) + "\n")
        for k, p in enumerate(traced):
            for span in p["spans"]:
                f.write(json.dumps([k] + span) + "\n")


def report(header, metrics, attempted, failed, failures):
    print(header)
    for name, m in metrics.items():
        print("%-40s %r %s" % (name, m["value"], m["unit"]))
    for reason in failures[:10]:
        print("FAILED: " + reason, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def benchmark(workload, seed, seconds, trace):
    spec = plan(workload, seed)
    if trace:
        passes, setup = measure(spec, seconds, MIN_TRACED_PASSES)
        write_spans(workload, seed, passes[True])
    else:
        passes, setup = measure(spec, seconds, MIN_PASSES, SETUP_EVERY_S)
    attempted, failed, failures = _tally(passes)
    untraced = passes[False]
    if trace:
        metrics = _with_units(per_layer(untraced, passes[True], attempted, failed), PER_LAYER)
    else:
        metrics = _with_units(end_to_end(untraced, setup), END_TO_END)
    walls = [p["wall_s"] for p in untraced]
    q1, q2, q3 = _quartiles(walls)
    header = ("perfbench workload=%s seed=%d trace=%d untraced_passes=%d traced_passes=%d "
              "setup_samples=%d wall_s_quartiles=%.4f/%.4f/%.4f"
              % (workload, seed, trace, len(untraced), len(passes.get(True, [])),
                 len(setup), q1, q2, q3))
    report(header, metrics, attempted, failed, failures)
    return 0


def smoke(seed):
    """One untraced and one traced pass of every workload at r <= 2."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    # the two declaration checks count as jobs
    attempted = 2
    failures = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if theirs != list(ours):
            failures.append("BENCHMARK.json %s differs from the metrics run.py emits" % key)
    failed = len(failures)
    metrics = {}
    for workload in WORKLOADS:
        spec = plan(workload, seed, smoke=True)
        passes, setup = measure(spec, 0, {False: 1, True: 1})
        a, f, why = _tally(passes)
        attempted, failed, failures = attempted + a, failed + f, failures + why
        values = dict(end_to_end(passes[False], setup))
        values.update(per_layer(passes[False], passes[True], a, f))
        for name, m in _with_units(values, END_TO_END + PER_LAYER).items():
            metrics["%s/%s" % (workload, name)] = m
    report("perfbench smoke seed=%d" % seed, metrics, attempted, failed, failures)
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of each kind per workload at r <= 2, then check every metric name")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "kloostercodes", "__init__.py")):
        print("perfbench: no kloostercodes sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        return smoke(args.seed) if args.smoke else benchmark(
            args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
