import gc
import random
import weakref

import numpy as np
import pytest

from kloostercodes import (
    CapacityError,
    ConsistencyError,
    DomainError,
    GaussSumRequest,
    GroupId,
    codeword_weight_formula,
    delta_count,
    enumerate_group,
    field_create,
    gauss_sum_closed,
    group_order,
    histogram_closed_form,
    o_minus_order,
    pless_check,
    recursive_moments,
    sk_moment,
    so_minus_order,
)
from kloostercodes import ogroups
from kloostercodes.charsums import DEFAULT_OPS_LIMIT
from kloostercodes.ogroups import _dets, j_form

from frontier import modulus
from oracles import delta_convolution, delta_eps, delta_form_pinned, mat_det, mat_mul, mat_trace, satisfies_relation

G2_HIST_Q9 = {0: 10, 1: 1, 2: 1, 4: 2, 5: 2, 7: 2, 8: 2}
# the SO-(4,3) column search: the Gram table, 4 q^8, and three candidate
# masks of at most |O-(4,q)| frames by q^4 vectors each
SO4_Q3_COST = 4 * 3 ** 8 + 3 * 1440 * 3 ** 4


def test_order_formulas():
    assert so_minus_order(1, 3) == 4
    assert o_minus_order(1, 3) == 8
    assert so_minus_order(2, 3) == 720
    assert so_minus_order(2, 9) == 81 * (9 ** 4 - 1)
    assert group_order(GroupId.O2, 9) == 20


@pytest.mark.parametrize("gid, n, variant, order_q3", [
    (GroupId.SO2, 1, "so", 4), (GroupId.O2, 1, "o", 8), (GroupId.SO4, 2, "so", 720),
])
def test_group_id_names_rank_and_variant(f3, gid, n, variant, order_q3):
    # every per-group fact reads (n, variant); the order is |SO-(2n,q)|, doubled for O-
    assert (gid.n, gid.variant) == (n, variant)
    for q in (3, 9, 27):
        assert group_order(gid, q) == (2 if variant == "o" else 1) * so_minus_order(n, q)
    assert group_order(gid, 3) == order_q3 == len(enumerate_group(f3, gid).elements)


@pytest.mark.parametrize("call", [
    lambda ctx: group_order("so2", ctx.q),
    lambda ctx: histogram_closed_form(ctx, "so2"),
    lambda ctx: enumerate_group(ctx, "so2"),
    lambda ctx: recursive_moments(ctx, "so2", 2),
    lambda ctx: pless_check(ctx, "so2", 2),
    lambda ctx: codeword_weight_formula(ctx, "so2", 1),
], ids=["group_order", "histogram_closed_form", "enumerate_group", "recursive_moments",
        "pless_check", "codeword_weight_formula"])
def test_a_bare_group_name_is_refused(f3, call):
    # the value of a GroupId is not a GroupId: no entry point may treat it as one
    with pytest.raises(DomainError, match="unknown group 'so2'"):
        call(f3)


def test_so2_q3_elements(f3):
    enum = enumerate_group(f3, GroupId.SO2)
    assert enum.elements == ((0, 1, 2, 0), (0, 2, 1, 0), (1, 0, 0, 1), (2, 0, 0, 2))
    assert sorted(mat_trace(f3, w, 2) for w in enum.elements) == [0, 0, 1, 2]
    assert enum.histogram.as_dict() == {0: 2, 1: 1, 2: 1}


@pytest.mark.parametrize("r,gid,order", [
    (1, GroupId.SO2, 4), (1, GroupId.O2, 8),
    (2, GroupId.SO2, 10), (2, GroupId.O2, 20),
    (3, GroupId.SO2, 28), (3, GroupId.O2, 56),
    (4, GroupId.SO2, 82), (4, GroupId.O2, 164),
])
def test_rank2_orders(r, gid, order):
    ctx = field_create(r)
    assert len(enumerate_group(ctx, gid).elements) == order


def test_so4_q3_enumeration(f3):
    enum = enumerate_group(f3, GroupId.SO4)
    assert len(enum.elements) == 720
    assert enum.histogram.as_dict() == {0: 90, 1: 315, 2: 315}
    # identity is a member and the list is in canonical order
    ident = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert ident in enum.elements
    assert list(enum.elements) == sorted(enum.elements)


@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2])
def test_rank2_defining_relation(f9, gid):
    neg_one = f9.neg(1)
    for w in enumerate_group(f9, gid).elements:
        assert satisfies_relation(f9, w, 1)
        det = mat_det(f9, w, 2)
        if gid is GroupId.SO2:
            assert det == 1
        else:
            assert det in (1, neg_one)


def test_so4_defining_relation_and_det(f3):
    els = enumerate_group(f3, GroupId.SO4).elements
    rng = random.Random(7)
    for w in rng.sample(els, 40):
        assert satisfies_relation(f3, w, 2)
        assert mat_det(f3, w, 4) == 1


@pytest.mark.parametrize("gid,dim", [(GroupId.SO2, 2), (GroupId.O2, 2), (GroupId.SO4, 4)])
def test_closure_spot_check(f3, gid, dim):
    els = enumerate_group(f3, gid).elements
    rng = random.Random(11)
    n = dim // 2
    for _ in range(25):
        w1, w2 = rng.choice(els), rng.choice(els)
        prod = mat_mul(f3, w1, w2, dim)
        assert satisfies_relation(f3, prod, n)
        if gid is not GroupId.O2:
            assert mat_det(f3, prod, dim) == 1
        assert prod in els


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_coset_elements_have_trace_zero(r):
    # the reflection coset accounts exactly for the extra q+1 zero traces
    ctx = field_create(r)
    so2 = enumerate_group(ctx, GroupId.SO2).histogram
    o2 = enumerate_group(ctx, GroupId.O2).histogram
    assert o2[0] - so2[0] == ctx.q + 1
    for beta in range(1, ctx.q):
        assert o2[beta] == so2[beta]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2])
def test_rank2_histogram_closed_form(r, gid):
    ctx = field_create(r)
    assert enumerate_group(ctx, gid).histogram == histogram_closed_form(ctx, gid)


def test_g2_closed_form_q9(f9):
    assert histogram_closed_form(f9, GroupId.O2).as_dict() == G2_HIST_Q9


def test_g2_parity_branches(f3, f9, f27):
    # r odd: the zero-trace count jumps to q + 3; r even: to q + 1
    assert histogram_closed_form(f3, GroupId.O2)[0] == 3 + 3
    assert histogram_closed_form(f27, GroupId.O2)[0] == 27 + 3
    assert histogram_closed_form(f9, GroupId.O2)[0] == 9 + 1


def test_so4_histogram_closed_form(f3):
    assert histogram_closed_form(f3, GroupId.SO4).as_dict() == {0: 90, 1: 315, 2: 315}
    assert enumerate_group(f3, GroupId.SO4).histogram == histogram_closed_form(f3, GroupId.SO4)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_closed_form_totals(r, gid):
    ctx = field_create(r)
    assert histogram_closed_form(ctx, gid).total == group_order(gid, ctx.q)


def test_histogram_total_is_summed_once(f27):
    hist = histogram_closed_form(f27, GroupId.SO4)
    assert hist.total == sum(hist.counts)
    assert hist.total is hist.total  # a property would sum again, to a new int
    fresh = ogroups.TraceHistogram(hist.counts)
    assert hist == fresh and hash(hist) == hash(fresh)


def _so4_histogram_reads_no_k(monkeypatch, ctx):
    # the delta side stays independent of the K values it is checked against
    def forbidden(*args, **kwargs):
        raise AssertionError("the SO-(4,q) histogram read a Kloosterman sum")

    with monkeypatch.context() as patch:
        for target in ("kloostercodes.charsums.kloosterman",
                       "kloostercodes.charsums._kloosterman_table"):
            patch.setattr(target, forbidden)
        hist = histogram_closed_form(ctx, GroupId.SO4)
    assert hist.total == group_order(GroupId.SO4, ctx.q)
    # sum_beta n(beta) omega^{tr(a beta)} is the closed-form group character sum
    for a in (1, 2, 5):
        traces = (ctx._functional[ctx._mul_vec(a, np.arange(ctx.q))] % 3).tolist()
        acc = [0, 0, 0]
        for t, n in zip(traces, hist.counts):
            acc[t] += n
        assert acc[1] == acc[2]
        assert acc[0] - acc[2] == gauss_sum_closed(ctx, GaussSumRequest(n=2, variant="so", a=a))


def test_so4_histogram_never_reads_kloosterman(monkeypatch, f243):
    _so4_histogram_reads_no_k(monkeypatch, f243)


@pytest.mark.parametrize("gid", list(GroupId))
def test_closed_form_grouping_is_checked(monkeypatch, f9, gid):
    # one delta(n) entry off by one moves the gathered counts off |G|, and
    # the check names the code
    from kloostercodes import charsums

    if gid.n == 1:
        real = type(f9)._chi_sq_minus_one
        target = (type(f9), "_chi_sq_minus_one")
    else:
        real = charsums._delta_table
        target = (charsums, "_delta_table")

    def damaged(*args, **kwargs):
        table = real(*args, **kwargs).copy()
        table[1] += 1
        return table

    monkeypatch.setattr(*target, damaged)
    with pytest.raises(ConsistencyError, match="closed-form histogram for %s" % gid.value):
        histogram_closed_form(f9, gid)


def so4_counts(ctx, ops_limit=DEFAULT_OPS_LIMIT):
    """The SO-(4,q) closed-form counts: they total |G|, equal ones one int."""
    counts = histogram_closed_form(ctx, GroupId.SO4, ops_limit=ops_limit).counts
    assert sum(counts) == group_order(GroupId.SO4, ctx.q)
    assert len({id(c) for c in counts[1:]}) == len(set(counts[1:]))
    return counts


@pytest.mark.parametrize("r", [6, 7, 8])
def test_closed_form_counts_share_one_int_per_value(r):
    # each distinct delta(2) value gives one Python int, placed by reference
    # (beta = 0 carries z on top of its own)
    ctx = field_create(r)
    counts = so4_counts(ctx)
    assert len(set(counts[1:])) == len(set(delta_count(ctx, 2)[1:]))


def test_so4_histogram_past_the_shipped_moduli(monkeypatch):
    # r = 9 through the least monic irreducible of degree 9, passed explicitly
    _so4_histogram_reads_no_k(monkeypatch, field_create(9, modulus(9)))


@pytest.mark.parametrize("r", [2, 3, 4])
def test_so4_histogram_when_the_sums_carry_python_ints(monkeypatch, r):
    # the second character sum of delta(m) can carry Python ints while the
    # table still fits int64 (q = 3 at m = 61 and 62, q = 27 at m = 13); here
    # every sum is forced to them
    ctx = field_create(r)
    real = type(ctx).character_sums
    monkeypatch.setattr(type(ctx), "character_sums",
                        lambda self, *parts: real(self, *parts).astype(object))
    hist = histogram_closed_form(ctx, GroupId.SO4)
    c, z, d = delta_form_pinned(GroupId.SO4, ctx.q)
    assert hist.counts == tuple(c + d * x + (z if beta == 0 else 0)
                                for beta, x in enumerate(delta_convolution(ctx, 2)))


@pytest.mark.parametrize("gid", list(GroupId))
@pytest.mark.parametrize("damage", [lambda k: k == 1, lambda k: k],
                         ids=["off_at_k1", "linear_term"])
def test_delta_form_is_checked_against_the_gauss_sum(monkeypatch, f9, gid, damage):
    # delta_form asserts z + d k^n = G(k) at k = 0..n: a G off at k = 1 only,
    # or with an extra k term (the middle term of SO-(4,q)'s quadratic in k),
    # stops every reader of the form
    from kloostercodes import weight_prefix

    real = ogroups.gauss_sum_of_k
    monkeypatch.setattr(ogroups, "gauss_sum_of_k",
                        lambda q, n, variant, k: real(q, n, variant, k) + damage(k))
    for read in (lambda: weight_prefix(gid, f9, 4), lambda: histogram_closed_form(f9, gid),
                 lambda: recursive_moments(f9, gid, 4)):
        with pytest.raises(ConsistencyError, match="delta form of %s" % gid.value):
            read()


@pytest.mark.parametrize("gid", list(GroupId))
@pytest.mark.parametrize("r", range(1, 15))
def test_delta_form_matches_the_pinned_triples(gid, r):
    # delta_form reads (c, z, d) off the group character sum; the triples
    # written down from each group's structure check it in integers alone,
    # so no field is built and r runs past the shipped moduli
    q = 3 ** r
    assert ogroups.delta_form(gid, q) == delta_form_pinned(gid, q)


def test_delta_form_refuses_a_gauss_sum_with_other_terms(monkeypatch):
    # O-(4,3) has G = -9k^2 + 90k - 216: a k term that z + d k^2 cannot
    # carry, so read in place of SO-(4,3)'s G it is refused, not handed on
    # as z = -216, d = 81
    real = ogroups.gauss_sum_of_k
    assert [real(3, 2, "o", k) for k in range(3)] == [-216, -135, -72]
    monkeypatch.setattr(ogroups, "gauss_sum_of_k", lambda q, n, variant, k: real(q, n, "o", k))
    with pytest.raises(ConsistencyError, match="delta form of so4 over GF\\(3\\) sums to 108 at K = 2"):
        ogroups.delta_form(GroupId.SO4, 3)


def test_so4_capacity_error(f9):
    with pytest.raises(CapacityError) as exc:
        enumerate_group(f9, GroupId.SO4)
    assert "histogram_closed_form" in str(exc.value)


def test_so4_refusal_survives_a_cached_enumeration():
    ctx = field_create(1)
    assert len(enumerate_group(ctx, GroupId.SO4).elements) == 720
    with pytest.raises(CapacityError) as exc:
        enumerate_group(ctx, GroupId.SO4, ops_limit=SO4_Q3_COST - 1)
    assert "limit %d" % (SO4_Q3_COST - 1) in str(exc.value)


@pytest.mark.parametrize("gid, cost", [
    (GroupId.SO2, 9 * 2 + 9),  # one digitwise pass over the q values of a, q r + q
    (GroupId.O2, 9 * 2 + 9),
    (GroupId.SO4, SO4_Q3_COST),
])
def test_enumeration_cost_estimates_admit_themselves(gid, cost):
    ctx = field_create(1 if gid is GroupId.SO4 else 2)
    with pytest.raises(CapacityError) as exc:
        enumerate_group(ctx, gid, ops_limit=cost - 1)
    assert "about %d operations" % cost in str(exc.value)
    assert len(enumerate_group(ctx, gid, ops_limit=cost).elements) == group_order(gid, ctx.q)


@pytest.mark.parametrize("r", [7, 8])
def test_rank2_enumeration_at_the_largest_shipped_fields(r):
    # one pass over a, admitted by the default limit
    ctx = field_create(r)
    for gid in (GroupId.SO2, GroupId.O2):
        enum = enumerate_group(ctx, gid)
        assert len(enum.elements) == group_order(gid, ctx.q)
        assert list(enum.elements) == sorted(set(enum.elements))
        assert enum.histogram == histogram_closed_form(ctx, gid)


def test_enumerated_elements_are_python_ints(f3, f9):
    for ctx, gid in ((f9, GroupId.SO2), (f9, GroupId.O2), (f3, GroupId.SO4)):
        els = enumerate_group(ctx, gid).elements
        assert all(type(x) is int for w in els for x in w)


def test_cached_tables_live_and_die_with_the_context():
    refs = []
    for _ in range(50):
        ctx = field_create(3)
        sk_moment(ctx, 2)
        assert enumerate_group(ctx, GroupId.SO2) == enumerate_group(ctx, GroupId.SO2)
        refs.append(weakref.ref(ctx))
    del ctx
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_j_form_shape(f3, f9):
    assert j_form(f3, 1) == delta_eps(f3)
    j = j_form(f9, 2)
    eps = f9.epsilon
    assert j == (0, 1, 0, 0,
                 1, 0, 0, 0,
                 0, 0, 1, 0,
                 0, 0, 0, f9.neg(eps))


def test_o4_q3_is_so4_and_its_reflection_coset(f3):
    # O-(4,3) = SO-(4,3) u SO-(4,3) diag(1, 1, 1, -1), built by matrix products
    reflection = (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2)
    so4 = enumerate_group(f3, GroupId.SO4).elements
    o4 = set(so4) | {mat_mul(f3, w, reflection, 4) for w in so4}
    assert len(o4) == o_minus_order(2, 3) == 1440
    assert all(satisfies_relation(f3, w, 2) for w in o4)
    for a in (1, 2):
        acc = [0, 0, 0]
        for w in o4:
            acc[f3.trace(f3.mul(a, mat_trace(f3, w, 4)))] += 1
        assert acc[1] == acc[2]
        assert acc[0] - acc[2] == gauss_sum_closed(f3, GaussSumRequest(2, "o", a)) == -315
    # the vectorised Leibniz sum against the cofactor expansion
    mats = np.array(sorted(o4)).reshape(-1, 4, 4)
    assert _dets(f3, mats).tolist() == [mat_det(f3, w, 4) for w in sorted(o4)]


def test_dets_match_the_cofactor_expansion_on_random_2x2(f9):
    rng = random.Random(5)
    flats = [tuple(rng.randrange(9) for _ in range(4)) for _ in range(200)]
    flats.append((0, 0, 0, 0))
    mats = np.array(flats).reshape(-1, 2, 2)
    assert _dets(f9, mats).tolist() == [mat_det(f9, w, 2) for w in flats]


@pytest.mark.parametrize("damage", ["duplicate", "missing"])
def test_enumeration_checks_order_and_distinctness(monkeypatch, damage):
    build = ogroups._so2_elements

    def damaged(ctx):
        rows = build(ctx)
        return np.concatenate([rows[:-1], rows[:1]]) if damage == "duplicate" else rows[:-1]

    monkeypatch.setattr(ogroups, "_so2_elements", damaged)
    with pytest.raises(ConsistencyError, match="expected 10"):
        enumerate_group(field_create(2), GroupId.SO2)
