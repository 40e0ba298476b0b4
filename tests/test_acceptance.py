"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

from kloostercodes import (
    GaussSumRequest,
    GroupId,
    codeword_weight_formula,
    delta_count,
    enumerate_group,
    field_create,
    gauss_sum_closed,
    histogram_closed_form,
    kloosterman,
    pless_check,
    sk_moment,
    sk_recursive_chain,
    weight_prefix,
)

from oracles import (
    OmegaSum,
    build_code_spec,
    codeword_weight,
    full_scan,
    gauss_sum_enumerated,
    kloosterman_per_a,
    pair_scan,
)


class criterion:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print("[criterion %d] %-20s %s" % (self.num, self.label + ":", status))
        return False


def test_criterion_1_group_orders():
    with criterion(1, "group orders"):
        f3 = field_create(1)
        f9 = field_create(2)
        assert len(enumerate_group(f3, GroupId.SO2).elements) == 4
        assert len(enumerate_group(f3, GroupId.O2).elements) == 8
        assert len(enumerate_group(f9, GroupId.SO2).elements) == 10
        assert len(enumerate_group(f9, GroupId.O2).elements) == 20
        fresh = field_create(1)  # fresh context defeats the enumeration cache
        start = time.perf_counter()
        assert len(enumerate_group(fresh, GroupId.SO4).elements) == 720
        assert time.perf_counter() - start < 300


def test_criterion_2_histogram_identity():
    with criterion(2, "trace histograms"):
        for r in (1, 2, 3, 4):
            ctx = field_create(r)
            for gid in (GroupId.SO2, GroupId.O2):
                assert enumerate_group(ctx, gid).histogram == \
                    histogram_closed_form(ctx, gid)
        f3 = field_create(1)
        hist = enumerate_group(f3, GroupId.SO4).histogram
        assert hist.as_dict() == {0: 90, 1: 315, 2: 315}
        assert hist == histogram_closed_form(f3, GroupId.SO4)


def test_criterion_3_gauss_sums():
    with criterion(3, "gauss sums"):
        for r in (1, 2, 3, 4):
            ctx = field_create(r)
            for a in range(1, ctx.q):
                assert gauss_sum_closed(ctx, GaussSumRequest(1, "so", a)) == \
                    gauss_sum_enumerated(ctx, GroupId.SO2, a)
                assert gauss_sum_closed(ctx, GaussSumRequest(1, "o", a)) == \
                    gauss_sum_enumerated(ctx, GroupId.O2, a)
        f3 = field_create(1)
        assert gauss_sum_closed(f3, GaussSumRequest(2, "so", 1)) == -225
        for a in (1, 2):
            assert gauss_sum_closed(f3, GaussSumRequest(2, "so", a)) == \
                gauss_sum_enumerated(f3, GroupId.SO4, a)


def test_criterion_4_moment_recursions():
    with criterion(4, "moment recursions"):
        start = time.perf_counter()
        for r in (1, 2, 3):
            ctx = field_create(r)
            direct = [sk_moment(ctx, h) for h in range(11)]
            for gid in (GroupId.SO2, GroupId.O2):
                prefix = weight_prefix(gid, ctx, 10)
                chain = sk_recursive_chain(ctx, gid, 10, prefix)
                assert chain == direct[:11]
            prefix3 = weight_prefix(GroupId.SO4, ctx, 5)
            chain3 = sk_recursive_chain(ctx, GroupId.SO4, 5, prefix3)
            assert chain3 == [direct[2 * h] for h in range(6)]
            if ctx.q == 3:
                assert chain3 == [1] * 6
                assert [sk_moment(ctx, h) for h in range(1, 11)] == \
                    [(-1) ** h for h in range(1, 11)]
        assert time.perf_counter() - start < 120


def test_criterion_5_pless_identity():
    with criterion(5, "power moment identity"):
        f3 = field_create(1)
        f9 = field_create(2)
        # dual weights by both routes first
        for ctx, gids in ((f3, (GroupId.SO2, GroupId.O2, GroupId.SO4)),
                          (f9, (GroupId.SO2, GroupId.O2))):
            for gid in gids:
                spec = build_code_spec(ctx, gid)
                for a in range(1, ctx.q):
                    assert codeword_weight(spec, a) == \
                        codeword_weight_formula(ctx, gid, a)
        for h in range(7):
            for gid in (GroupId.SO2, GroupId.O2, GroupId.SO4):
                assert pless_check(f3, gid, h).match
            for gid in (GroupId.SO2, GroupId.O2):
                assert pless_check(f9, gid, h).match


def test_criterion_6_oracle_equivalence():
    with criterion(6, "weight oracles"):
        f3 = field_create(1)
        f9 = field_create(2)
        for ctx, gid in ((f3, GroupId.SO2), (f3, GroupId.O2), (f9, GroupId.SO2)):
            spec = build_code_spec(ctx, gid)
            scan = full_scan(spec, spec.length)
            prefix = weight_prefix(gid, ctx, spec.length)
            assert prefix == scan
        spec4 = build_code_spec(f3, GroupId.SO4)
        pair = pair_scan(spec4, 2)
        prefix4 = weight_prefix(GroupId.SO4, f3, 2)
        assert pair == prefix4
        assert pair[1] == 180


def test_criterion_7_character_sum_sanity():
    with criterion(7, "character sums"):
        for r in (1, 2, 3, 4, 5):
            ctx = field_create(r)
            bound = math.isqrt(4 * ctx.q)
            # the oracle asserts every exponent count real
            assert kloosterman_per_a(ctx) == [kloosterman(ctx, a) for a in range(1, ctx.q)]
            for a in range(1, ctx.q):
                assert abs(kloosterman(ctx, a)) <= bound
        for r in (1, 2, 3):
            ctx = field_create(r)
            d1 = delta_count(ctx, 1)
            for a in range(1, ctx.q):
                acc = [0, 0, 0]
                for beta in range(ctx.q):
                    acc[ctx.trace(ctx.mul(a, beta))] += d1[beta]
                assert OmegaSum(*acc).value() == kloosterman(ctx, ctx.mul(a, a))
            ksq = {a: kloosterman(ctx, ctx.mul(a, a)) for a in range(1, ctx.q)}
            for m in range(5):
                table = delta_count(ctx, m)
                for beta in range(ctx.q):
                    coeff = [0, 0, 0]
                    for a in range(1, ctx.q):
                        coeff[ctx.trace(ctx.mul(ctx.neg(a), beta))] += ksq[a] ** m
                    assert coeff[1] == coeff[2]
                    assert coeff[0] - coeff[2] == ctx.q * table[beta] - (ctx.q - 1) ** m


def test_criterion_8_modulus_independence():
    with criterion(8, "modulus independence"):
        first = field_create(2, (1, 0, 1))
        second = field_create(2, (2, 2, 1))
        for h in range(7):
            assert sk_moment(first, h) == sk_moment(second, h)
