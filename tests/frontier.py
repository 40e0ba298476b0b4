"""The paper's identities past the shipped sizes, r = 10..14, where |SO-(4,q)|
passes 2^63: `PYTHONPATH=src python -m pytest -q tests/frontier.py`.  Each
check runs in a fresh interpreter under its timeout; an RSS bound is on the
growth of that interpreter's peak RSS over a baseline taken inside it.
Tier-1 does not collect this module (its name does not match test_*.py),
but test_frontier.py runs each check in process at r <= 5."""

import contextlib
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from kloostercodes import DomainError, charsums, field_create, kloosterman, sk_moment, verify_report

from oracles import kloosterman_per_a

# r -> the moduli the tests build on past the shipped r <= 8, coefficients
# from low degree up (r = 9..11: the least monic irreducible in index order;
# r = 13's second: the greatest, under which verify prints the same bytes)
MODULI = {
    9: [(1, 0, 1, 2, 0, 0, 0, 0, 0, 1)],
    10: [(1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1)],
    11: [(2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)],
    12: [(2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)],
    13: [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1), (2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)],
    14: [(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)],
}


def modulus(r, i=0):
    """MODULI[r][i]; None, the shipped modulus, at r <= 8."""
    return MODULI[r][i] if r in MODULI else None


@contextlib.contextmanager
def peak_rss_growth_below(mb):
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    yield
    growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024
    assert mb is None or growth < mb, "peak RSS grew by %.0f MB, bound %d MB" % (growth, mb)


# The checks, with the growth measured at the frontier.  The test modules
# read MODULI, so a check imports them when it runs.
def spot_values(r, points, rss_mb=None):
    # K(a) off the K table and f(a) = K(a^2) off the delta(1) transform, each
    # against the oracle's own O(q) count (r = 13: about 100 MB)
    with peak_rss_growth_below(rss_mb):
        ctx = field_create(r, modulus(r))
        f = charsums._delta_one_sums(ctx)
        got = [kloosterman(ctx, a, ops_limit=10 ** 8) for a in points] + [int(f[a]) for a in points]
        assert got == kloosterman_per_a(ctx, [*points, *(ctx.mul(a, a) for a in points)])


def verify_matches(r, rss_mb=None):
    # the field and verify, every moment matching (r = 14: about 210 MB)
    import test_moments
    with peak_rss_growth_below(rss_mb):
        test_moments.test_verify_report_past_the_shipped_moduli(r, modulus(r), ops_limit=10 ** 8)


def subfield_lift(r, divisors):
    # the K table at r = 14 costs q*r + q = 71744535 operations
    import test_charsums
    for d in divisors:
        test_charsums.test_kloosterman_on_a_subfield_is_the_hasse_davenport_lift(r, d, ops_limit=10 ** 8)


def so4_histogram(r, ops_limit, rss_mb=None):
    # delta(2) costs (2r + 2) q operations; at r = 14 its second sum, below
    # 2 sum f^2 = 4 q (q - 2) < 2^63, runs in int64 (about 197 MB over the field)
    import test_ogroups
    ctx = field_create(r, modulus(r))
    with peak_rss_growth_below(rss_mb):
        test_ogroups.so4_counts(ctx, ops_limit)


def sk_moment_refusal():
    import test_charsums
    test_charsums.test_sk_moment_at_the_largest_shipped_field()


def integer_rule():
    # run under -O, so it raises rather than asserts: at numpy.int64(80) every
    # row matches (in int64 the Pless sums would wrap), and a bool is refused
    if not all(report.all_match for report in verify_report(field_create(2), np.int64(80))):
        raise SystemExit("verify_report at numpy.int64(80) has a row that does not match")
    with pytest.raises(DomainError):
        sk_moment(field_create(2), True)


# body, its arguments here and at r <= 5, timeout (s), interpreter flags
CHECKS = [
    (spot_values, (13, (1, 2, 1234567), 128), (5, (1, 2, 100)), 60, ()),
    (verify_matches, (14, 265), (5,), 120, ()),
    (subfield_lift, (14, (2, 7)), (4, (2,)), 60, ()),
    (so4_histogram, (12, 10 ** 8), (5, 10 ** 8), 60, ()),
    (so4_histogram, (14, 10 ** 12, 246), (5, 10 ** 12), 60, ()),
    (sk_moment_refusal, (), (), 20, ()),
    (integer_rule, (), (), 30, ("-O",)),
]
TESTS = pathlib.Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))


@pytest.mark.parametrize("check", CHECKS, ids=[" ".join(map(str, [c[0].__name__, *c[1][:1]])) for c in CHECKS])
def test_check(check):
    body, args, _, timeout, flags = check
    call = "import frontier; frontier.%s%r" % (body.__name__, args)
    subprocess.run([sys.executable, *flags, "-c", call], env=ENV, timeout=timeout, check=True)


def verify_args(r, limit=None, i=0):
    poly = ["--poly", ",".join(map(str, modulus(r, i)))] if r in MODULI else []
    return ["verify", "--r", str(r), *poly, "--h-max", "10", *(["--limit-ops", str(limit)] if limit else [])]


# the field tables cost q*r = 6377292 operations at r = 12, the K table
# q*r + q = 22320522 at r = 13; every modulus of r gives the same stdout
@pytest.mark.parametrize("r, limit, timeout", [(10, None, None), (12, 10 ** 7, 30), (13, 3 * 10 ** 7, 60)])
def test_cli_verify(r, limit, timeout):
    outs = {subprocess.run([sys.executable, "-m", "kloostercodes", *verify_args(r, limit, i)], env=ENV,
                           timeout=timeout, check=True, stdout=subprocess.PIPE).stdout
            for i in range(len(MODULI[r]))}
    assert len(outs) == 1
