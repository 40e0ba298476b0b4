import json
import random
from math import factorial

import pytest

from kloostercodes import (
    CapacityError,
    ConsistencyError,
    DomainError,
    GroupId,
    codeword_weight_formula,
    field_create,
    pless_check,
    recursive_moments,
    sk_moment,
    sk_recursive_chain,
    verify_report,
    weight_prefix,
)
from kloostercodes import charsums
from kloostercodes.cli import run_command
from kloostercodes.moments import _pless_inner, _pless_sums
from kloostercodes.ogroups import group_order

from oracles import pless_inner_literal, sk_chain_difference_table, trinomial

C3_Q9_PREFIX = (
    1,
    13284,
    68921113626,
    21983095182588912,
    5912117869558982080230,
    1254884868290098179930909204,
)


def trinomial_by_factorials(c, a, b):
    if a + b > c:
        return 0
    return factorial(c) // (factorial(a) * factorial(b) * factorial(c - a - b))


def test_trinomial_examples():
    assert trinomial(3, 1, 1) == 6
    assert trinomial(2, 1, 0) == 2
    assert trinomial(1, 1, 1) == 0
    assert trinomial(0, 0, 0) == 1


def test_trinomial_matches_factorials_up_to_30():
    for c in range(31):
        for a in range(c + 2):
            for b in range(c + 2):
                assert trinomial(c, a, b) == trinomial_by_factorials(c, a, b)


def test_trinomial_huge_class_sizes():
    # class sizes reach q^5; the helper must stay exact there
    n = 3 ** 10
    assert trinomial(n, 1, 1) == n * (n - 1)
    assert trinomial(n, 2, 0) == n * (n - 1) // 2


def _prefix(ctx, gid, j_max):
    return weight_prefix(gid, ctx, j_max)


def test_pless_q3_rank2(f3):
    chk = pless_check(f3, GroupId.SO2, 1)
    assert (chk.lhs, chk.rhs, chk.match) == (4, 4, True)
    chk0 = pless_check(f3, GroupId.SO2, 0)
    assert (chk0.lhs, chk0.rhs) == (3, 3)


@pytest.mark.parametrize("gid", list(GroupId))
def test_pless_check_refuses_negative_h(f3, gid):
    with pytest.raises(DomainError):
        pless_check(f3, gid, -1)


def test_pless_q3_rank4(f3):
    chk = pless_check(f3, GroupId.SO4, 1)
    assert (chk.lhs, chk.rhs) == (1260, 1260)
    deep = pless_check(f3, GroupId.SO4, 6)
    assert deep.lhs == deep.rhs == 125047004418000000


@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
@pytest.mark.parametrize("h", range(7))
def test_pless_all_codes_q3(f3, gid, h):
    assert pless_check(f3, gid, h).match


@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2])
@pytest.mark.parametrize("h", range(7))
def test_pless_rank2_q9(f9, gid, h):
    assert pless_check(f9, gid, h).match


@pytest.fixture(scope="module")
def f6561():
    return field_create(8)


@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_pless_at_the_largest_shipped_field(f6561, gid):
    # the left side sums over the value histogram of the one K table, under the default limit
    chk = pless_check(f6561, gid, 2)
    assert chk.match
    assert chk.lhs > 0


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_pless_lhs_matches_the_per_a_weight_sum(r):
    ctx = field_create(r)
    for gid in GroupId:
        weights = [codeword_weight_formula(ctx, gid, a) for a in range(1, ctx.q)]
        for h in range(7):
            assert pless_check(ctx, gid, h).lhs == sum(w ** h for w in weights) + (h == 0)


def test_pless_and_verify_honour_ops_limit(f27):
    # the weight prefix at q = 27 costs 81 + (distinct weights) * (j+1)^2
    with pytest.raises(CapacityError) as exc:
        weight_prefix(GroupId.O2, f27, 10, ops_limit=400)
    assert "weight prefix" in str(exc.value)
    with pytest.raises(CapacityError) as exc:
        pless_check(f27, GroupId.O2, 10, ops_limit=400)
    assert "weight prefix" in str(exc.value)
    assert pless_check(f27, GroupId.O2, 10, ops_limit=10 ** 4).match
    with pytest.raises(CapacityError) as exc:
        verify_report(f27, 10, ops_limit=400)
    assert "weight prefix" in str(exc.value)


def test_pless_check_admits_both_sides_under_its_limit():
    # at r = 12 the weight prefix (q*r + (j+1)^2) and the K table (q*r + q)
    # are both estimated above the default limit of 5e6
    ctx = field_create(12, (2, 0, 1) + (0,) * 9 + (1,))
    with pytest.raises(CapacityError) as exc:
        pless_check(ctx, GroupId.SO2, 2)
    assert "limit 5000000" in str(exc.value) and "--limit-ops" in str(exc.value)
    chk = pless_check(ctx, GroupId.SO2, 2, ops_limit=10 ** 7)
    assert chk.match and chk.lhs > 0


def test_sk_recursive_q3_hand_values(f3):
    prefix = _prefix(f3, GroupId.SO2, 4)
    assert sk_recursive_chain(f3, GroupId.SO2, 2, prefix)[1:] == [-1, 1]
    prefix2 = _prefix(f3, GroupId.O2, 8)
    assert sk_recursive_chain(f3, GroupId.O2, 1, prefix2)[1] == -1


def test_sk2_recursive_q3(f3):
    # the rank-4 chain holds SK^0, SK^2, SK^4
    prefix = _prefix(f3, GroupId.SO4, 5)
    assert sk_recursive_chain(f3, GroupId.SO4, 2, prefix)[1:] == [1, 1]


def test_sk2_recursive_q9_matches_direct(f9):
    prefix = _prefix(f9, GroupId.SO4, 5)
    assert prefix == C3_Q9_PREFIX
    chain = sk_recursive_chain(f9, GroupId.SO4, 5, prefix)
    assert chain[0] == sk_moment(f9, 0) == 4
    for h in range(1, 6):
        assert chain[h] == sk_moment(f9, 2 * h)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2])
def test_rank2_chains_match_direct(r, gid):
    ctx = field_create(r)
    n = group_order(gid, ctx.q)
    chain = sk_recursive_chain(ctx, gid, 10, _prefix(ctx, gid, min(n, 10)))
    for h in range(11):
        assert chain[h] == sk_moment(ctx, h)


def test_recursion_validation(f3):
    prefix = _prefix(f3, GroupId.SO2, 4)
    with pytest.raises(DomainError):
        sk_recursive_chain(f3, GroupId.SO2, -1, prefix)
    assert sk_recursive_chain(f3, GroupId.SO2, 0, prefix) == [sk_moment(f3, 0)] == [1]
    short = _prefix(f3, GroupId.SO2, 2)
    with pytest.raises(DomainError):
        sk_recursive_chain(f3, GroupId.SO2, 3, short)  # needs j <= min(N, h) = 3
    with pytest.raises(DomainError):
        _pless_sums(short, group_order(GroupId.SO2, 3), 1, 3)[3]  # the right side of pless_check


def test_verify_report_refuses_h_max_zero(f3):
    with pytest.raises(DomainError, match="h_max must be positive"):
        verify_report(f3, 0)


def test_corrupted_prefix_is_detected(f3):
    # a wrong weight count makes the result non-integral, which is trapped
    bad = (1, 5, 6, 8, 8)
    with pytest.raises(ConsistencyError):
        sk_recursive_chain(f3, GroupId.SO2, 1, bad)
    bad3 = (1, 181, 412290)
    with pytest.raises(ConsistencyError):
        sk_recursive_chain(f3, GroupId.SO4, 1, bad3)


def test_chain_asserts_the_weight_offset_exact(monkeypatch, f9):
    # s = -d and b = (N - z)/s from the delta form (c, z, d): a G(0) = z off
    # by one with G(1) = z + d kept gives s = 2 and N - z = q for SO-(2,q),
    # so the division that gives b must fail
    from kloostercodes import moments

    prefix = _prefix(f9, GroupId.SO2, 4)
    real = moments.delta_form

    def skewed(gid, q):
        c, z, d = real(gid, q)
        return c, z + 1, d - 1

    monkeypatch.setattr(moments, "delta_form", skewed)
    with pytest.raises(ConsistencyError, match="9/2"):
        sk_recursive_chain(f9, GroupId.SO2, 4, prefix)


def test_two_path_consistency(f3):
    # the closed-form prefix closes both the power moment identity and the recursion
    prefix = _prefix(f3, GroupId.SO2, 4)
    for h in range(5):
        assert pless_check(f3, GroupId.SO2, h).match
    chain = sk_recursive_chain(f3, GroupId.SO2, 4, prefix)
    assert chain == [1, -1, 1, -1, 1]


def test_verify_report_q3(f3):
    reports = verify_report(f3, 10)
    assert [rep.code for rep in reports] == ["so2", "o2", "so4"]
    for rep in reports:
        assert rep.all_match
    so2 = reports[0]
    assert [row.recursive for row in so2.rows] == [(-1) ** h for h in range(1, 11)]
    so4 = reports[2]
    assert [row.h for row in so4.rows] == [2, 4, 6, 8, 10]
    assert all(row.recursive == 1 for row in so4.rows)


@pytest.mark.parametrize("r, modulus", [(9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1)),
                                        (10, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1))])
def test_verify_report_past_the_shipped_moduli(r, modulus):
    # the least monic irreducibles of degree 9 and 10, passed explicitly
    reports = verify_report(field_create(r, modulus), 10)
    assert [rep.code for rep in reports] == ["so2", "o2", "so4"]
    assert all(row.match for rep in reports for row in rep.rows)


@pytest.mark.parametrize("r", range(1, 10))
def test_verify_report_meets_the_closed_low_moments(r):
    # both columns at h = 1, 2 against closed forms that read no table:
    # SK^1 = (1 + (-1)^r q)/2, half of sum_{a != 0} K(a) = 1 plus
    # sum_{a != 0} chi(a) K(a) = G(chi)^2 = chi(-1) q, chi(-1) = (-1)^r;
    # SK^2 = (q^2 - 2q - 1)/2 is pinned as measured at r = 1..9 (half of
    # sum K(a)^2 = q^2 - q - 1 plus sum chi(a) K(a)^2, measured as -q)
    ctx = field_create(r, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1) if r == 9 else None)
    q = ctx.q
    closed = {1: (1 + (-1) ** r * q) // 2, 2: (q * q - 2 * q - 1) // 2}
    reports = verify_report(ctx, 2)
    rows = [row for rep in reports for row in rep.rows]
    assert [(rep.code, [row.h for row in rep.rows]) for rep in reports] == [
        ("so2", [1, 2]), ("o2", [1, 2]), ("so4", [2])]
    assert [(row.direct, row.recursive) for row in rows] == [(closed[row.h],) * 2 for row in rows]


def test_verify_report_runs_one_delta_one_transform_per_field(monkeypatch):
    # the three codes share f's value histogram, kept on the context
    expected = [(rep.code, rep.rows) for rep in verify_report(field_create(3), 10)]
    real, calls = charsums._delta_one, []

    def counted(ctx):
        calls.append(ctx.q)
        return real(ctx)

    monkeypatch.setattr("kloostercodes.charsums._delta_one", counted)
    ctx = field_create(3)
    for _ in range(2):
        assert [(rep.code, rep.rows) for rep in verify_report(ctx, 10)] == expected
    assert calls == [27]


def test_verify_report_shape(capsys):
    # the CLI alone shapes a report; elapsed_ms only under --timing
    for timing, extra in (([], set()), (["--timing"], {"elapsed_ms"})):
        assert run_command(["verify", "--r", "2", "--h-max", "4", "--format", "json"] + timing) == 0
        report = json.loads(capsys.readouterr().out)[0]
        assert set(report) == {"q", "r", "code", "rows"} | extra
        assert (report["q"], report["r"], report["code"]) == (9, 2, "so2")
        assert report["rows"][0] == {"h": 1, "direct": "5", "recursive": "5", "match": True}


def test_pless_sum_spot_values(f3):
    # SO-(2,3): N = 4, C = (1, 4, ...); h = 1 keeps t = 1 only:
    # 1! S(1,1) 3^0 (C_0 2 C(4,1) - C_1 C(3,0)) = 8 - 4
    prefix = _prefix(f3, GroupId.SO2, 4)
    assert prefix[:2] == (1, 4)
    assert _pless_sums(prefix, 4, 1, 1)[1] == 4
    # h = 0 counts the q dual words
    assert _pless_sums(prefix, 4, 1, 0)[0] == 3
    # h = 3 > r needs the 3^c scaling and still lands on an integer
    assert _pless_sums(prefix, 4, 1, 3)[3] == pless_check(f3, GroupId.SO2, 3).lhs


def test_pless_sum_traps_a_non_multiple_of_3():
    # r = 1, h = 2: c = 1 and the C_2 term carries no factor 3, so an
    # off-by-one C_2 leaves a total that 3 does not divide
    good = _pless_sums((1, 4, 6), 4, 1, 2)[2]
    with pytest.raises(ConsistencyError):
        _pless_sums((1, 4, 7), 4, 1, 2)[2]
    assert good == 8


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("gid", list(GroupId))
def test_pless_sums_match_the_direct_weight_sums(r, gid):
    # every P_h for h <= 30, against sum_a w(a)^h over all q dual words
    # (w(0) = 0 and 0^0 = 1): the coefficients t! S(h,t) are checked up to h = 30
    ctx = field_create(r)
    n = group_order(gid, ctx.q)
    prefix = weight_prefix(gid, ctx, min(n, 30))
    weights = [0] + [codeword_weight_formula(ctx, gid, a) for a in range(1, ctx.q)]
    assert _pless_sums(prefix, n, r, 30) == [sum(w ** h for w in weights) for h in range(31)]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_recursive_moments_pipeline(r, gid):
    ctx = field_create(r)
    e = gid.n
    chain = recursive_moments(ctx, gid, 6)
    assert chain == [sk_moment(ctx, e * h) for h in range(7)]


def test_recursive_moments_reaches_high_h(f9):
    # h = 40 runs far past N = 10 and 20 for the rank-2 codes
    for gid in (GroupId.SO2, GroupId.O2):
        assert recursive_moments(f9, gid, 40) == [sk_moment(f9, h) for h in range(41)]


@pytest.mark.parametrize("r", [1, 2])
def test_recursive_moments_reach_the_high_moment_bounds(r):
    # SK^{2h} up to h = 40 from SO-(4,q), SK^h up to h = 80 from the rank-2 codes
    ctx = field_create(r)
    assert recursive_moments(ctx, GroupId.SO4, 40) == [sk_moment(ctx, 2 * h) for h in range(41)]
    direct = [sk_moment(ctx, h) for h in range(81)]
    for gid in (GroupId.SO2, GroupId.O2):
        assert recursive_moments(ctx, gid, 80) == direct


@pytest.mark.parametrize("r, gid, top", [(1, GroupId.SO2, 4), (2, GroupId.SO4, 30), (3, GroupId.SO4, 20)])
def test_pless_inner_matches_the_literal_double_sum(r, gid, top):
    # top = N for SO-(2,3), whose N = 4 caps t; top far below N for SO-(4,q)
    ctx = field_create(r)
    n = group_order(gid, ctx.q)
    prefix = weight_prefix(gid, ctx, top)
    assert _pless_inner(prefix, n, top) == pless_inner_literal(prefix, n, top)


def test_chain_builds_the_inner_sums_once(monkeypatch, f9):
    # D_t does not depend on h: one pass over the prefix serves the whole chain
    from kloostercodes import moments

    prefix = _prefix(f9, GroupId.SO2, 10)
    expected = sk_recursive_chain(f9, GroupId.SO2, 40, prefix)
    calls = []
    real = moments._pless_inner

    def counted(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(moments, "_pless_inner", counted)
    assert sk_recursive_chain(f9, GroupId.SO2, 40, prefix) == expected
    assert calls == [(10, 10)]  # N = q + 1 = 10 caps t
    assert expected == [sk_moment(f9, h) for h in range(41)]


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_chain_matches_the_difference_table(r, gid):
    # the affine Pless step against X_h and its inverse binomial transform,
    # at the high-moment bounds: h = 80 on the rank-2 codes, 40 on SO-(4,q)
    ctx = field_create(r)
    h_max = 80 // gid.n
    prefix = weight_prefix(gid, ctx, h_max)
    chain = sk_recursive_chain(ctx, gid, h_max, prefix)
    assert chain == sk_chain_difference_table(ctx, gid, h_max, prefix)


def test_corrupted_prefixes_fail_both_chains():
    # C_j off by delta first moves S_j (and 3^j P_j) by j! 3^r (-1)^j delta,
    # and with delta in {+-1, +-2, +-3} that is not divisible by the 2^(j+1)
    # of 2 (2s)^j (s is odd), so SK^{ej} is non-integral on both sides
    rng = random.Random(20)
    prefixes = {}
    for _ in range(500):
        r, gid = rng.choice((1, 2)), rng.choice(list(GroupId))
        ctx = field_create(r)
        h_max = 80 // gid.n
        if (r, gid) not in prefixes:
            prefixes[r, gid] = weight_prefix(gid, ctx, h_max)
        bad = list(prefixes[r, gid])
        j = rng.randint(1, min(group_order(gid, ctx.q), h_max))
        bad[j] += rng.choice((-3, -2, -1, 1, 2, 3))
        with pytest.raises(ConsistencyError):
            sk_recursive_chain(ctx, gid, h_max, tuple(bad))
        with pytest.raises(ConsistencyError):
            sk_chain_difference_table(ctx, gid, h_max, tuple(bad))
