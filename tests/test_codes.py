import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloostercodes import (
    CapacityError,
    ConsistencyError,
    DomainError,
    GroupId,
    codeword_weight_formula,
    delta_count,
    enumerate_group,
    field_create,
    histogram_closed_form,
    recursive_moments,
    verify_report,
    weight_prefix,
)
from kloostercodes.cli import run_command
from kloostercodes.codes import dual_weights
from oracles import (
    build_code_spec,
    codeword_weight,
    dual_codeword,
    full_scan,
    is_irreducible_trial,
    macwilliams_product_prefix,
    pair_counts,
    pair_scan,
    weight_prefix_dp,
)

C1_Q3 = (1, 4, 6, 8, 8)
C2_Q3 = (1, 12, 62, 184, 360, 512, 544, 384, 128)
C1_Q9 = (1, 0, 26, 80, 428, 848, 1520, 1664, 1340, 532, 122)


def test_trace_vector_canonical_order(f3):
    spec = build_code_spec(f3, GroupId.SO2)
    # canonical ascending element order fixes the coordinates
    assert spec.trace_vector == (0, 0, 2, 1)
    assert spec.length == 4


def test_dual_codewords_q3(f3):
    spec = build_code_spec(f3, GroupId.SO2)
    assert dual_codeword(spec, 0) == (0, 0, 0, 0)
    assert dual_codeword(spec, 1) == (0, 0, 2, 1)
    assert dual_codeword(spec, 2) == (0, 0, 1, 2)  # 2 * previous word mod 3
    with pytest.raises(DomainError):
        dual_codeword(spec, 3)


def test_dual_codeword_linearity(f9):
    spec = build_code_spec(f9, GroupId.O2)
    for a in range(9):
        for b in range(9):
            s = f9.add(a, b)
            wa, wb, ws = dual_codeword(spec, a), dual_codeword(spec, b), dual_codeword(spec, s)
            assert ws == tuple((x + y) % 3 for x, y in zip(wa, wb))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_dual_code_has_q_distinct_words(r, gid):
    # kernel triviality via the closed-form histogram: some trace class with
    # members must detect every nonzero a
    ctx = field_create(r)
    hist = histogram_closed_form(ctx, gid)
    for a in range(1, ctx.q):
        assert any(
            hist[beta] and ctx.trace(ctx.mul(a, beta)) != 0 for beta in range(ctx.q)
        ), "a=%d would collapse onto the zero word" % a


def test_codeword_weights_q3(f3):
    for gid in (GroupId.SO2, GroupId.O2):
        spec = build_code_spec(f3, gid)
        assert codeword_weight(spec, 1) == 2
        assert codeword_weight_formula(f3, gid, 1) == 2
    spec3 = build_code_spec(f3, GroupId.SO4)
    assert codeword_weight(spec3, 1) == 630
    assert codeword_weight_formula(f3, GroupId.SO4, 1) == 630


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2])
def test_weight_modes_agree_rank2(r, gid):
    ctx = field_create(r)
    spec = build_code_spec(ctx, gid)
    for a in range(1, ctx.q):
        assert codeword_weight(spec, a) == codeword_weight_formula(ctx, gid, a)


def test_weight_modes_agree_rank4(f3):
    spec = build_code_spec(f3, GroupId.SO4)
    for a in (1, 2):
        assert codeword_weight(spec, a) == codeword_weight_formula(f3, GroupId.SO4, a)


def test_weight_validation(f3):
    spec = build_code_spec(f3, GroupId.SO2)
    with pytest.raises(DomainError):
        codeword_weight(spec, 0)
    with pytest.raises(DomainError):
        codeword_weight_formula(f3, GroupId.SO2, 0)


def test_dp_q3_rank2(f3):
    h1 = histogram_closed_form(f3, GroupId.SO2)
    assert weight_prefix_dp(h1, f3, 4) == C1_Q3
    h2 = histogram_closed_form(f3, GroupId.O2)
    assert weight_prefix_dp(h2, f3, 8) == C2_Q3


def test_dp_against_full_scan_q3(f3):
    for gid, frozen in ((GroupId.SO2, C1_Q3), (GroupId.O2, C2_Q3)):
        spec = build_code_spec(f3, gid)
        scan = full_scan(spec, spec.length)
        assert scan == frozen
        dp = weight_prefix_dp(enumerate_group(f3, gid).histogram, f3, spec.length)
        assert dp == scan


def test_dp_against_full_scan_q9(f9):
    spec = build_code_spec(f9, GroupId.SO2)
    scan = full_scan(spec, 10)
    assert scan == C1_Q9
    dp = weight_prefix_dp(histogram_closed_form(f9, GroupId.SO2), f9, 10)
    assert dp == C1_Q9


def test_dp_against_pair_scan_so4(f3):
    spec = build_code_spec(f3, GroupId.SO4)
    pair = pair_scan(spec, 2)
    assert pair == (1, 180, 412290)
    dp = weight_prefix_dp(histogram_closed_form(f3, GroupId.SO4), f3, 2)
    assert dp == pair
    # single nonzero entry must sit at a zero-trace coordinate
    assert pair[1] == 2 * histogram_closed_form(f3, GroupId.SO4)[0]


def test_pair_scan_matches_full_scan(f3):
    # the two brute-force strategies agree where both apply
    spec = build_code_spec(f3, GroupId.O2)
    full = full_scan(spec, 2)
    pair = pair_scan(spec, 2)
    assert full[:3] == pair


def test_bruteforce_capacity(f3):
    spec = build_code_spec(f3, GroupId.SO4)
    with pytest.raises(CapacityError):
        full_scan(spec, 5)


def test_negation_symmetry(f9):
    # u and -u weigh the same, so every count past j=0 is even here
    dp = weight_prefix(GroupId.O2, f9, 12)
    assert dp[0] == 1
    assert all(c % 2 == 0 for c in dp[1:])


def test_dp_uses_parity_correct_histogram(f9, f27):
    # q=9 (even exponent) has no weight-1 words in the rank-2 codes, while
    # q=27 (odd exponent) has plenty: the zero-trace class sizes differ
    even = weight_prefix(GroupId.SO2, f9, 1)
    assert even[1] == 0
    odd = weight_prefix(GroupId.SO2, f27, 1)
    assert odd[1] == 2 * histogram_closed_form(f27, GroupId.SO2)[0] > 0


def test_dp_counts_grow_with_histogram(f27):
    # a quick cross-check of the rank-4 DP at q=27 against the pair scan
    # formulas derived from the histogram itself
    hist = histogram_closed_form(f27, GroupId.SO4)
    dp = weight_prefix_dp(hist, f27, 2)
    assert dp[1] == 2 * hist[0]
    assert dp == pair_counts(hist, f27)


# -- the library prefix (MacWilliams transform of the histogram) ------------

@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_prefix_matches_dp(r, gid):
    ctx = field_create(r)
    hist = histogram_closed_form(ctx, gid)
    assert weight_prefix(gid, ctx, 10) == weight_prefix_dp(hist, ctx, 10)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
@pytest.mark.parametrize("j_max", [0, 1, 40, 80])
def test_prefix_matches_the_macwilliams_product(r, gid, j_max):
    # the three-term rows against the O(j^2) product of two binomial rows,
    # whose dual weights come from the K table instead of delta(1)
    ctx = field_create(r)
    assert weight_prefix(gid, ctx, j_max) == macwilliams_product_prefix(gid, ctx, j_max)


def test_prefix_pads_past_code_length(f3):
    # j_max beyond N: the counts stop at N and the rest are zero
    assert weight_prefix(GroupId.SO2, f3, 12) == C1_Q3 + (0,) * 8
    # the work stops at j = N whatever j_max asks for
    far = weight_prefix(GroupId.SO2, f3, 10 ** 5, ops_limit=100)
    assert far[:5] == C1_Q3 and not any(far[5:])


def _irreducible_moduli(r):
    from itertools import product

    return [low + (1,) for low in product(range(3), repeat=r) if is_irreducible_trial(low + (1,))]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(r, m) for r in (1, 2, 3) for m in _irreducible_moduli(r)]),
       st.sampled_from(list(GroupId)), st.integers(0, 10))
def test_prefix_matches_dp_random_moduli(field, gid, j_max):
    r, modulus = field
    ctx = field_create(r, modulus)
    hist = histogram_closed_form(ctx, gid)
    assert weight_prefix(gid, ctx, j_max) == weight_prefix_dp(hist, ctx, j_max)


@pytest.mark.parametrize("gid", [GroupId.SO2, GroupId.O2, GroupId.SO4])
def test_prefix_matches_pair_counts_r7(gid):
    # SO-(4, 3^7) has a 67-bit order: the transform must stay exact there
    ctx = field_create(7)
    hist = histogram_closed_form(ctx, gid)
    if gid is GroupId.SO4:
        assert hist.total.bit_length() == 67
    assert weight_prefix(gid, ctx, 2) == pair_counts(hist, ctx)


def test_prefix_never_reads_kloosterman(monkeypatch, f27):
    # the recursion side must stay independent of the K values it is checked against
    expected = {gid: weight_prefix(gid, f27, 10) for gid in GroupId}

    def forbidden(*args, **kwargs):
        raise AssertionError("weight_prefix read a Kloosterman sum")

    for target in ("kloostercodes.charsums.kloosterman", "kloostercodes.codes.kloosterman",
                   "kloostercodes.kloosterman", "kloostercodes.gauss.kloosterman",
                   "kloostercodes.charsums._kloosterman_table",
                   "kloostercodes.charsums.kloosterman_histogram"):
        monkeypatch.setattr(target, forbidden)
    for gid in GroupId:
        assert weight_prefix(gid, f27, 10) == expected[gid]


def test_recursion_never_reads_the_k_table_or_its_histogram(monkeypatch, f27):
    # the whole pipeline histogram -> prefix -> chain, on a fresh context,
    # reads neither the K table nor its value histogram, which the direct side reads
    expected = {gid: recursive_moments(f27, gid, 10) for gid in GroupId}
    # unpatched, the three chains and delta(3) leave both unset on a fresh context
    fresh = field_create(3)
    for gid in GroupId:
        recursive_moments(fresh, gid, 10)
    delta_count(fresh, 3)
    assert fresh._k_table is None and fresh._k_histogram is None

    def forbidden(*args, **kwargs):
        raise AssertionError("the recursion side read the K table")

    for target in ("kloostercodes.charsums._kloosterman_table",
                   "kloostercodes.charsums.kloosterman_histogram",
                   "kloostercodes.charsums.sk_moments",
                   "kloostercodes.charsums.kloosterman", "kloostercodes.codes.kloosterman",
                   "kloostercodes.kloosterman", "kloostercodes.gauss.kloosterman"):
        monkeypatch.setattr(target, forbidden)
    for gid in GroupId:
        assert recursive_moments(field_create(3), gid, 10) == expected[gid]


def test_prefix_after_so4_histogram_runs_no_second_delta_one(monkeypatch):
    # delta(2)'s transform of delta(1) keeps f's checked histogram on the
    # context, and the weight prefix reads it from there (every module's
    # name for delta(1) is counted)
    from kloostercodes import charsums

    expected = weight_prefix(GroupId.SO4, field_create(3), 10)
    real, calls = charsums._delta_one, []

    def counted(ctx):
        calls.append(ctx.q)
        return real(ctx)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kloostercodes" and hasattr(module, "_delta_one"):
            monkeypatch.setattr(module, "_delta_one", counted)
    ctx = field_create(3)
    histogram_closed_form(ctx, GroupId.SO4)
    assert weight_prefix(GroupId.SO4, ctx, 10) == expected
    assert calls == [27]


def test_verify_and_weights_build_no_histogram(monkeypatch, capsys):
    # the dual weights come from the delta form: neither verify nor weights
    # materialises a trace histogram or a delta(m) table, and both keep their output
    argv = ["weights", "--code", "so4", "--r", "3"]
    expected = [(rep.code, rep.rows) for rep in verify_report(field_create(3), 10)]
    assert run_command(argv) == 0
    weights = capsys.readouterr().out

    def forbidden(*args, **kwargs):
        raise AssertionError("a trace histogram or a delta(m) table was built")

    for name, module in list(sys.modules.items()):
        for attr in ("histogram_closed_form", "delta_count"):
            if name.split(".")[0] == "kloostercodes" and hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    assert [(rep.code, rep.rows) for rep in verify_report(field_create(3), 10)] == expected
    assert run_command(argv) == 0
    assert capsys.readouterr().out == weights


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dual_weights_keep_the_papers_constants(r):
    # w = 2(N - z - d k^e)/3 from the delta form is the paper's
    # (2/3) s (k^e + b) at every value k a Kloosterman sum K(a^2) can take:
    # k = -1 mod 3, k^2 <= 4q
    q = 3 ** r
    constants = {GroupId.SO2: (1, q + 1), GroupId.O2: (1, q + 1),
                 GroupId.SO4: (q * q, q ** 4 + q ** 3 - q - 1)}
    bound = math.isqrt(4 * q)
    values = [k for k in range(-bound, bound + 1) if k % 3 == 2]
    assert values[0] < 0 < values[-1]
    for gid, (s, b) in constants.items():
        expected = []
        for k in values:
            num = 2 * s * (k ** gid.n + b)
            assert num % 3 == 0
            expected.append(num // 3)
        assert dual_weights(gid, q, values) == expected


def test_prefix_work_limit(f27):
    # the price q*r + D(q) (j+1)^2 admits itself exactly; D(q) counts w = 0
    # and one weight per k = -1 mod 3 with k^2 <= 4q, an upper bound on the
    # distinct dual weights
    possible = 1 + len([k for k in range(-10, 11) if k % 3 == 2 and k * k <= 4 * 27])
    distinct = len({0} | {codeword_weight_formula(f27, GroupId.O2, a) for a in range(1, 27)})
    assert distinct <= possible == 8
    cost = 27 * 3 + possible * 11 ** 2
    assert weight_prefix(GroupId.O2, f27, 10, ops_limit=cost) == weight_prefix(GroupId.O2, f27, 10)
    with pytest.raises(CapacityError) as exc:
        weight_prefix(GroupId.O2, f27, 10, ops_limit=cost - 1)
    message = str(exc.value)
    assert "about %d operations" % cost in message
    assert "limit %d" % (cost - 1) in message and "--limit-ops" in message


def test_prefix_refused_before_transform(monkeypatch):
    # the whole price q*r + D(q) (j+1)^2 is known before the transform, so a
    # limit one below it refuses without running the transform (patched on a
    # context of its own)
    ctx = field_create(3)

    def forbidden(*args, **kwargs):
        raise AssertionError("the transform ran before the limit was checked")

    monkeypatch.setattr(ctx, "character_sums", forbidden)
    with pytest.raises(CapacityError) as exc:
        weight_prefix(GroupId.O2, ctx, 10, ops_limit=27 * 3 + 8 * 11 ** 2 - 1)
    assert "about %d operations" % (27 * 3 + 8 * 11 ** 2) in str(exc.value)


def test_prefix_validation(f3):
    with pytest.raises(DomainError):
        weight_prefix(GroupId.SO2, f3, -1)


def test_corrupted_dual_weight_is_detected(monkeypatch):
    # f(3) = 2 at q = 9: off by -3 it moves one dual weight by 2, which
    # breaks the exact division by q (f(1) and f(2) would be caught first by
    # their Hasse-Davenport lift); f(1) = K(1) = 5 off by +3 breaks the Weil
    # bound (each patched on a context of its own, as f's histogram is kept on it)
    for a, shift, match in ((3, -3, "not divisible by q=9"), (1, 3, "Weil bound")):
        ctx = field_create(2)
        real = ctx.character_sums

        def skewed(*args, a=a, shift=shift):
            sums = real(*args)
            sums[a] += shift
            return sums

        monkeypatch.setattr(ctx, "character_sums", skewed)
        with pytest.raises(ConsistencyError, match=match):
            weight_prefix(GroupId.O2, ctx, 2)
