"""Job lists and correctness gates of the three benchmark workloads.

A workload function runs one pass of jobs against the kloostercodes public
API and records each job in a JobLog; it is the only code inside the timed
region.  Library functions are looked up on their module at every call, so
the span wrappers installed by the tracer see every call.  The check
functions run after the timed region and name every job that failed a gate.
"""

import contextlib
import hashlib
import io
from collections import defaultdict, namedtuple

from kloostercodes import charsums, cli, gauss, gf3r, moments, ogroups
from kloostercodes.ogroups import GroupId

# Passed wherever `--limit-ops 100000000` would pass it: the direct moments
# and the delta(2) convolution at r = 8 cost about q^2/2 = 2.2e7 operations,
# above the library default of 5e6.
LIMIT_OPS = 100_000_000

SWEEP_H_MAX = 10
HIGH_H_MAX = 80
PLESS_H = 20
SK_H_MAX = 20

# group id, half-rank n and variant of the matching gauss_sum_closed request
GROUPS = (("so2", GroupId.SO2, 1, "so"), ("o2", GroupId.O2, 1, "o"), ("so4", GroupId.SO4, 2, "so"))


Job = namedtuple("Job", "kind key result error")


class JobLog:
    """The jobs of one pass, in the order they ran."""

    def __init__(self):
        self.jobs = []

    def call(self, kind, key, fn, *args, **kwargs):
        """Run one job; an exception fails the job, not the pass."""
        try:
            result, error = fn(*args, **kwargs), None
        except (Exception, SystemExit) as exc:
            result, error = None, exc
        self.jobs.append(Job(kind, key, result, error))
        return result


def run_cli(argv):
    """One CLI invocation as `kloostercodes <argv>` makes it, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_command(argv)
    return code, out.getvalue()


def verify_argv(r, modulus, h_max):
    return ["verify", "--r", str(r), "--poly", ",".join(map(str, modulus)),
            "--h-max", str(h_max), "--format", "json"]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sk_digest(values):
    return digest(",".join(str(v) for v in values))


# -- workloads: the timed job lists ------------------------------------------

def verify_sweep(log, fields):
    for f, (r, modulus, _) in enumerate(fields):
        log.call("cli", (f, r, SWEEP_H_MAX), run_cli, verify_argv(r, modulus, SWEEP_H_MAX))


def high_moment(log, fields):
    for f, (r, modulus, _) in enumerate(fields):
        log.call("cli", (f, r, HIGH_H_MAX), run_cli, verify_argv(r, modulus, HIGH_H_MAX))
        ctx = log.call("field", (f, r), gf3r.field_create, r, tuple(modulus))
        if ctx is None:
            continue
        for name, gid, _, _ in GROUPS:
            log.call("pless", (f, name), moments.pless_check, ctx, gid, PLESS_H)


def large_field(log, fields):
    for f, (r, modulus, a_values) in enumerate(fields):
        ctx = log.call("field", (f, r), gf3r.field_create, r, tuple(modulus))
        if ctx is None:
            continue
        for h in range(1, SK_H_MAX + 1):
            log.call("sk", (f, h), charsums.sk_moment, ctx, h, ops_limit=LIMIT_OPS)
        for name, gid, _, _ in GROUPS:
            log.call("hist", (f, name), ogroups.histogram_closed_form, ctx, gid,
                     ops_limit=LIMIT_OPS)
        for a in a_values:
            for name, _, n, variant in GROUPS:
                log.call("gauss", (f, name, a), gauss.gauss_sum_closed, ctx,
                         gauss.GaussSumRequest(n=n, variant=variant, a=a))


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "high-moment": high_moment,
    "large-field": large_field,
}


# -- gates: run after the timed region ----------------------------------------

def _group_order(name, q):
    """|SO-(2,q)| = q + 1, |O-(2,q)| = 2(q + 1), |SO-(4,q)| = q^2 (q^4 - 1)."""
    return {"so2": q + 1, "o2": 2 * (q + 1), "so4": q * q * (q ** 4 - 1)}[name]


def _trace_character_sum(traces, counts):
    """sum_beta n(beta) omega^{tr(a beta)} from a trace histogram, given
    traces[beta] = tr(a beta), or None when the sum is not real.  With
    omega^2 = -1 - omega the sum is (n0 - n2) + (n1 - n2) omega."""
    acc = [0, 0, 0]
    for t, n in zip(traces, counts):
        acc[t] += n
    return acc[0] - acc[2] if acc[1] == acc[2] else None


def check(workload, fields, jobs, reference):
    """{job index: reason} for every job that raised, exited non-zero or
    failed a correctness gate."""
    bad = {i: "raised %s: %s" % (type(j.error).__name__, j.error)
           for i, j in enumerate(jobs) if j.error is not None}
    by_field = defaultdict(list)
    for i, job in enumerate(jobs):
        if job.error is None:
            by_field[job.key[0]].append(i)
    for f, idxs in by_field.items():
        r = fields[f][0]
        for i in idxs:
            job = jobs[i]
            if job.kind == "cli":
                code, out = job.result
                want = reference["verify"].get("%d/%d" % (r, job.key[2]))
                if code != 0:
                    bad[i] = "exit status %d" % code
                elif digest(out) != want:
                    bad[i] = "verify stdout at r=%d h_max=%d differs from the reference" % (r, job.key[2])
            elif job.kind == "field" and job.result.q != 3 ** r:
                bad[i] = "field_create(%d) gave q=%d" % (r, job.result.q)
            elif job.kind == "pless" and job.result.lhs != job.result.rhs:
                bad[i] = "pless_check %s at r=%d: lhs != rhs" % (job.key[1], r)
        if workload == "large-field":
            _check_large_field(r, [(i, jobs[i]) for i in idxs], reference, bad)
    return bad


def _check_large_field(r, indexed, reference, bad):
    ctx = next((j.result for _, j in indexed if j.kind == "field"), None)
    sk = [(i, j) for i, j in indexed if j.kind == "sk"]
    if sk_digest([j.result for _, j in sk]) != reference["sk"].get(str(r)) or len(sk) != SK_H_MAX:
        for i, _ in sk:
            bad[i] = "SK^1..SK^%d at r=%d differ from the reference" % (SK_H_MAX, r)
    hists = {}
    for i, j in indexed:
        if j.kind == "hist":
            name = j.key[1]
            if sum(j.result.counts) != _group_order(name, ctx.q):
                bad[i] = "%s histogram at r=%d does not total the group order" % (name, r)
            else:
                hists[name] = j.result.counts
    traces = {}
    for i, j in indexed:
        if j.kind != "gauss":
            continue
        _, name, a = j.key
        if name not in hists:
            bad[i] = "no %s histogram to cross-check against" % name
            continue
        if a not in traces:
            traces[a] = [ctx.trace(ctx.mul(a, beta)) for beta in range(ctx.q)]
        if j.result != _trace_character_sum(traces[a], hists[name]):
            bad[i] = "gauss_sum_closed %s at r=%d a=%d disagrees with the histogram sum" % (name, r, a)
