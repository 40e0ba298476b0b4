import cmath
import math
import time

import pytest

from kloostercodes import (
    CapacityError,
    ConsistencyError,
    DomainError,
    GroupId,
    delta_count,
    field_create,
    kloosterman,
    sk_moment,
    weight_prefix,
)
from kloostercodes import charsums
from kloostercodes.charsums import DEFAULT_OPS_LIMIT, _kloosterman_table, kloosterman_histogram, sk_moments

from frontier import modulus
from oracles import OmegaSum, delta_convolution, hasse_davenport_lift, kloosterman_per_a

# frozen over the default modulus x^2 + 1 for GF(9)
K9 = {1: 5, 2: 2, 3: -1, 4: -4, 5: 2, 6: -1, 7: -4, 8: 2}
SK9 = [4, 5, 31, 131, 643, 3155, 15691, 78251, 390883, 1953635, 9766651]


def kloosterman_float(ctx, a):
    """Independent oracle: the literal complex-exponential sum."""
    w = cmath.exp(2j * cmath.pi / 3)
    total = sum(w ** ((ctx.trace(x) + ctx.trace(ctx.mul(a, ctx.inv(x)))) % 3)
                for x in range(1, ctx.q))
    assert abs(total.imag) < 1e-9
    return round(total.real)


def test_omega_reduce_examples():
    assert OmegaSum(1, 4, 4).reduce() == (-3, 0)
    assert OmegaSum(1, 4, 4).value() == -3
    assert OmegaSum(5, 0, 0).reduce() == (5, 0)
    assert OmegaSum(5, 0, 0).value() == 5
    assert OmegaSum(0, 1, 0).reduce() == (0, 1)
    with pytest.raises(ConsistencyError):
        OmegaSum(0, 1, 0).value()


def test_omega_sum_addition():
    s = OmegaSum(1, 2, 3) + OmegaSum(0, 1, 0)
    assert s == OmegaSum(1, 3, 3)
    assert s.value() == -2


def test_kloosterman_small_values(f3, f9):
    assert kloosterman(f3, 1) == -1
    assert kloosterman(f3, 2) == 2
    for a, k in K9.items():
        assert kloosterman(f9, a) == k


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kloosterman_matches_complex_oracle(r):
    ctx = field_create(r)
    for a in range(1, ctx.q):
        assert kloosterman(ctx, a) == kloosterman_float(ctx, a)


def test_kloosterman_rejects_zero(f9):
    for a in (0, 9, -1):
        with pytest.raises(DomainError):
            kloosterman(f9, a)
    # the argument is checked before any work is admitted
    with pytest.raises(DomainError):
        kloosterman(f9, 0, ops_limit=0)


def test_kloosterman_honours_ops_limit():
    ctx = field_create(2)
    with pytest.raises(CapacityError) as exc:
        kloosterman(ctx, 1, ops_limit=26)
    assert "about 27 operations" in str(exc.value)
    assert kloosterman(ctx, 1, ops_limit=27) == K9[1]
    # a kept table is no way round the limit
    with pytest.raises(CapacityError):
        kloosterman(ctx, 1, ops_limit=26)


def test_every_k_reader_shares_one_transform(monkeypatch):
    ctx = field_create(4)
    real = ctx.character_sums
    calls = []

    def counted(*parts):
        calls.append(1)
        return real(*parts)

    monkeypatch.setattr(ctx, "character_sums", counted)
    values = [kloosterman(ctx, a) for a in range(1, ctx.q)]
    moments = [sk_moment(ctx, h) for h in range(1, 21)]
    assert len(calls) == 1
    assert values == kloosterman_per_a(ctx)
    assert [kloosterman(ctx, a) for a in ctx.squares()] == [values[a - 1] for a in ctx.squares()]
    assert moments[1] == sum(values[a - 1] ** 2 for a in ctx.squares())


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_weil_bound_and_realness(r):
    ctx = field_create(r)
    bound = math.isqrt(4 * ctx.q)
    # the oracle asserts every exponent count real
    assert kloosterman_per_a(ctx) == [kloosterman(ctx, a) for a in range(1, ctx.q)]
    for a in range(1, ctx.q):
        assert abs(kloosterman(ctx, a)) <= bound


def test_sk_moment_q3(f3):
    assert sk_moment(f3, 0) == 1
    assert sk_moment(f3, 1) == -1
    assert sk_moment(f3, 4) == 1


def test_sk_moment_q9(f9):
    for h, v in enumerate(SK9):
        assert sk_moment(f9, h) == v


def test_sk_moment_validation(f9):
    with pytest.raises(DomainError):
        sk_moment(f9, -1)
    with pytest.raises(CapacityError):
        sk_moment(f9, 2, ops_limit=10)
    # h = 0 is free of charge regardless of the limit
    assert sk_moment(f9, 0, ops_limit=0) == 4


@pytest.mark.parametrize("r", [1, 2, 3])
def test_full_square_sum_is_twice_sk(r):
    # a -> a^2 covers each nonzero square exactly twice
    ctx = field_create(r)
    for h in (1, 2, 3):
        total = sum(kloosterman(ctx, ctx.mul(a, a)) ** h for a in range(1, ctx.q))
        assert total == 2 * sk_moment(ctx, h)


def test_delta_tables_q3(f3):
    assert delta_count(f3, 1) == (0, 1, 1)
    assert delta_count(f3, 2) == (2, 1, 1)
    d0 = delta_count(f3, 0)
    assert d0 == (1, 0, 0)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_delta_totals(r, m):
    ctx = field_create(r)
    table = delta_count(ctx, m)
    expected = 1 if m == 0 else (ctx.q - 1) ** m
    assert sum(table) == expected


@pytest.mark.parametrize("r", [1, 2, 3])
def test_delta_one_square_class_split(r):
    ctx = field_create(r)
    d1 = delta_count(ctx, 1)
    for beta in range(ctx.q):
        s = ctx.sub(ctx.mul(beta, beta), 1)
        if s == 0:
            assert d1[beta] == 1
        elif ctx.is_square(s):
            assert d1[beta] == 2
        else:
            assert d1[beta] == 0


def test_delta_one_cross_check_traps_a_wrong_count(monkeypatch):
    # the root counts of x^2 - beta x + 1 must match 1 + chi(beta^2 - 1)
    ctx = field_create(2)
    real = ctx._chi_sq_minus_one

    def skewed():
        chi = real()
        chi[4] = -chi[4] if chi[4] else 1
        return chi

    monkeypatch.setattr(ctx, "_chi_sq_minus_one", skewed)
    for m in (1, 2):
        with pytest.raises(ConsistencyError):
            delta_count(ctx, m)
    # the weight prefix reads f from the same cross-checked delta(1)
    with pytest.raises(ConsistencyError, match="square-class"):
        weight_prefix(GroupId.SO2, ctx, 2)


@pytest.mark.parametrize("r", [1, 2])
def test_delta_convolution_matches_direct_tuples(r):
    ctx = field_create(r)
    direct = [0] * ctx.q
    for x in range(1, ctx.q):
        for y in range(1, ctx.q):
            s = ctx.add(ctx.add(x, ctx.inv(x)), ctx.add(y, ctx.inv(y)))
            direct[s] += 1
    assert list(delta_count(ctx, 2)) == direct


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_dual_weight_transform_identity(r):
    # sum_beta delta(1,q;beta) omega^{tr(a beta)} reduces to K(a^2)
    ctx = field_create(r)
    d1 = delta_count(ctx, 1)
    for a in range(1, ctx.q):
        acc = [0, 0, 0]
        for beta in range(ctx.q):
            acc[ctx.trace(ctx.mul(a, beta))] += d1[beta]
        assert OmegaSum(*acc).value() == kloosterman(ctx, ctx.mul(a, a))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_square_kloosterman_delta_identity(r, m):
    # sum_{a != 0} omega^{tr(-a beta)} K(a^2)^m = q delta(m,q;beta) - (q-1)^m
    ctx = field_create(r)
    table = delta_count(ctx, m)
    ksq = {a: kloosterman(ctx, ctx.mul(a, a)) for a in range(1, ctx.q)}
    for beta in range(ctx.q):
        coeff = [0, 0, 0]
        for a in range(1, ctx.q):
            coeff[ctx.trace(ctx.mul(ctx.neg(a), beta))] += ksq[a] ** m
        value = coeff[0] - coeff[2]
        assert coeff[1] == coeff[2]
        assert value == ctx.q * table[beta] - (ctx.q - 1) ** m


def test_delta_validation(f9):
    with pytest.raises(DomainError):
        delta_count(f9, -1)
    with pytest.raises(CapacityError):
        delta_count(f9, 2, ops_limit=3)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_kloosterman_table_matches_per_a_loop(r):
    ctx = field_create(r)
    table = _kloosterman_table(ctx)
    per_a = kloosterman_per_a(ctx)
    assert table[1:].tolist() == per_a
    assert sum(per_a) == 1
    assert sum(k * k for k in per_a) == ctx.q ** 2 - ctx.q - 1
    assert [kloosterman(ctx, a) for a in ctx.squares()] == [per_a[a - 1] for a in ctx.squares()]


@pytest.mark.parametrize("r, d", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5)])
def test_kloosterman_on_a_subfield_is_the_hasse_davenport_lift(r, d, ops_limit=DEFAULT_OPS_LIMIT):
    # the nonzero elements of GF(3^d) inside GF(3^r) are g^(k (q - 1)/(3^d - 1));
    # their K values, as a multiset, are the lifts of the K table of a
    # separately built GF(3^d) (isomorphic to the subfield, so the multisets agree)
    big, small = field_create(r, modulus(r)), field_create(d)
    subfield = big._np_exp[::(big.q - 1) // (small.q - 1)]
    assert len(subfield) == small.q - 1
    lifts = [hasse_davenport_lift(k, d, r // d) for k in _kloosterman_table(small)[1:].tolist()]
    assert sorted(_kloosterman_table(big, ops_limit)[subfield].tolist()) == sorted(lifts)


@pytest.mark.parametrize("shift", [(1, 0), (0, 1)])
def test_corrupted_kloosterman_table_is_detected(monkeypatch, shift):
    # one value of the sum off by 1 breaks the sum check; one input value
    # off by omega makes the sum non-real
    ctx = field_create(2)
    real = ctx.character_sums

    def skewed(a_part, b_part):
        b_part = b_part.copy()
        b_part[5] += shift[1]
        k = real(a_part, b_part)
        k[5] += shift[0]
        return k

    monkeypatch.setattr(ctx, "character_sums", skewed)
    match = "not real" if shift[1] else None
    with pytest.raises(ConsistencyError, match=match):
        [kloosterman(ctx, a) for a in ctx.squares()]
    with pytest.raises(ConsistencyError, match=match):
        sk_moment(ctx, 2)


@pytest.mark.parametrize("skew, message", [
    (1, "not -1 mod 3"),  # off by 1 at a square
    (3 * 81, "Weil bound"),  # still -1 mod 3, far beyond 2 sqrt(q)
])
def test_corrupted_kloosterman_values_are_detected(monkeypatch, skew, message):
    ctx = field_create(4)
    a = ctx.squares()[3]
    real = ctx.character_sums

    def skewed(a_part, b_part):
        k = real(a_part, b_part)
        k[a] += skew
        return k

    monkeypatch.setattr(ctx, "character_sums", skewed)
    with pytest.raises(ConsistencyError, match=message):
        sk_moment(ctx, 2)
    with pytest.raises(ConsistencyError, match=message):
        kloosterman_histogram(ctx)


@pytest.mark.parametrize("r", range(1, 9))
def test_sk_moments_match_per_square_powers(r):
    ctx = field_create(r)
    values = [kloosterman(ctx, a) for a in ctx.squares()]
    histogram = kloosterman_histogram(ctx)
    assert sorted(set(values)) == [k for k, _ in histogram]
    # the values are -1 mod 3 and at most isqrt(4q) in modulus
    assert len(histogram) <= 2 * math.isqrt(4 * ctx.q) // 3 + 1
    for h in range(1, 21):
        assert sk_moment(ctx, h) == sum(k ** h for k in values)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_delta_matches_convolution_oracle(r, m):
    ctx = field_create(r)
    assert list(delta_count(ctx, m)) == delta_convolution(ctx, m)


@pytest.mark.parametrize("r, m", [
    (2, 19),  # 2 * 9 * 8^19 < 2^63: f^19 has negative entries, so its L1 bound is q max
    (2, 20),  # 2 sum f^20, about 2^61: the largest m carried in int64 at q = 9
    (3, 14),  # 2 sum f^14, about 2^67: Python ints
])
def test_delta_at_the_int64_bound(r, m):
    ctx = field_create(r)
    values = delta_count(ctx, m)
    assert list(values) == delta_convolution(ctx, m)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("m", [
    10,  # 8^10 = 2^30: f^m in int32 at q = 9
    11,  # 8^11 = 2^33: f^m in int64
])
def test_delta_at_the_int32_power_bound(m):
    ctx = field_create(2)
    assert list(delta_count(ctx, m)) == delta_convolution(ctx, m)


def _sum_words(monkeypatch, ctx):
    """Patch ctx's character sum to record the word of each of its results,
    in call order."""
    real, words = ctx.character_sums, []

    def recorded(*parts):
        sums = real(*parts)
        words.append(str(sums.dtype))
        return sums

    monkeypatch.setattr(ctx, "character_sums", recorded)
    return words


@pytest.mark.parametrize("r, m, dtype", [
    (2, 19, "int64"),
    (2, 20, "int64"),  # 8^20 = 2^60, and 2 sum f^20 is about 2^61: int64 throughout
    (2, 21, "object"),  # 8^21 = 2^63
    (1, 61, "object"),  # 2^61; the second sum's bound 2 * 3 * 2^61 is past 2^63
    (1, 62, "object"),  # 2^62; 2 sum f^62 = 2 (2^62 + 2) is past 2^63
    (1, 63, "object"),  # 2^63
    (3, 13, "object"),  # 26^13 < 2^62; 2 * 27 * 26^13 is past 2^63
    (3, 14, "object"),  # 26^14 is past 2^63, each of its 27 entries is not
])
def test_delta_table_keeps_its_sums_word(monkeypatch, r, m, dtype):
    # the array behind delta_count is g // q in the word of the second sum g:
    # Python ints at (q, m) = (3, 61), (3, 62), (27, 13) and (27, 14) too,
    # though every entry there fits int64 (ogroups casts before it bins)
    ctx = field_create(r)
    words = _sum_words(monkeypatch, ctx)
    table = charsums._delta_table(ctx, m, charsums.DEFAULT_OPS_LIMIT)
    assert table.dtype == words[1] == dtype
    assert table.tolist() == delta_convolution(ctx, m)
    if (ctx.q, m) == (27, 14):
        assert max(table.tolist()) < 2 ** 63


@pytest.mark.parametrize("r", range(1, 11))
def test_pipeline_sums_run_in_their_words(monkeypatch, r):
    # the K table and delta(1) sum in int32 (through r = 18); delta(2)'s
    # second sum, bounded by 2 sum f^2 = 4 q (q - 2), in int32 through r = 9
    # (the large fields r = 7, 8 included) and in int64 from r = 10, and the
    # delta(2) table keeps that word
    ctx = field_create(r, modulus(r))
    words = _sum_words(monkeypatch, ctx)
    _kloosterman_table(ctx, 10 ** 9)
    table = charsums._delta_table(ctx, 2, 10 ** 9)
    word = "int32" if r <= 9 else "int64"
    assert words == ["int32", "int32", word]
    assert table.dtype == word


@pytest.mark.parametrize("r", range(1, 10))
def test_k_and_f_are_frobenius_invariant(r):
    # a -> a^3 permutes the nonzero a and fixes every trace, so
    # K(a^3) = K(a) and f(a^3) = f(a), read through exp[3 log a mod (q - 1)];
    # it maps the equation of delta(m; beta) to that of delta(m; beta^3), so
    # delta(m; beta^3) = delta(m; beta) too (m = 1, 2 through r = 8)
    ctx = field_create(r, modulus(r))
    cube = ctx._np_exp[3 * ctx._np_log[1:] % (ctx.q - 1)]
    k, f = _kloosterman_table(ctx), charsums._delta_one_sums(ctx)
    assert k[cube].tolist() == k[1:].tolist()
    assert f[cube].tolist() == f[1:].tolist()
    for m in (1, 2) if r <= 8 else ():
        delta = delta_count(ctx, m)
        assert [delta[b] for b in cube.tolist()] == list(delta[1:])


@pytest.mark.parametrize("r", range(1, 10))
def test_f_histogram_doubles_the_k_histogram(r):
    # f(a) = K(a^2) and a -> a^2 maps the nonzero a two to one onto the
    # nonzero squares, so f's value histogram is K's over the squares with
    # every multiplicity doubled; the two come from independent transforms
    ctx = field_create(r, modulus(r))
    doubled = [(k, 2 * m) for k, m in kloosterman_histogram(ctx)]
    assert list(charsums._delta_one_histogram(ctx)) == doubled


@pytest.mark.parametrize("r, m, word, before", [
    (1, 0, "int32", None), (1, 29, "int64", "int32"), (1, 61, "object", "int64"),
    (2, 0, "int32", None), (2, 9, "int64", "int32"), (2, 21, "object", "int64"),
    (3, 0, "int32", None), (3, 7, "int64", "int32"), (3, 13, "object", "int64"),
])
def test_delta_at_the_first_m_of_each_word(monkeypatch, r, m, word, before):
    # delta(m)'s second sum runs in word from this m on (in before at m - 1),
    # and the table matches the convolution oracle there
    ctx = field_create(r)
    words = _sum_words(monkeypatch, ctx)
    assert list(delta_count(ctx, m)) == delta_convolution(ctx, m)
    if before is not None:
        delta_count(ctx, m - 1)
    assert words[1::2] == [word] + ([before] if before else [])


def _skew_call(monkeypatch, ctx, call, index, skew):
    """Patch ctx's character sum so that its call-th result (1 = the first)
    is off by skew at index."""
    real, calls = ctx.character_sums, []

    def skewed(*parts):
        sums = real(*parts)
        calls.append(None)
        if len(calls) == call:
            sums[index] += skew
        return sums

    monkeypatch.setattr(ctx, "character_sums", skewed)


@pytest.mark.parametrize("skew, message", [
    (1, "not q times an integer table"),
    (9, "table totals 65, expected 64"),
], ids=["off_by_one", "off_by_q"])
def test_delta_table_refuses_a_skewed_second_sum(monkeypatch, skew, message):
    # the second sum q delta(2; t) off by 1 is not divisible by q; off by q
    # it moves one entry by 1, and the table no longer totals (q - 1)^2
    ctx = field_create(2)
    _skew_call(monkeypatch, ctx, 2, 1, skew)
    with pytest.raises(ConsistencyError, match=message):
        delta_count(ctx, 2)


def test_delta_table_checks_f(monkeypatch):
    # f(1) = K(1) = 5 at q = 9; off by +1 it is inside the Weil bound but not
    # -1 mod 3, and f's own check stops delta(2) before the second sum
    ctx = field_create(2)
    _skew_call(monkeypatch, ctx, 1, 1, 1)
    with pytest.raises(ConsistencyError, match="K = 6 over GF\\(9\\) is not -1 mod 3"):
        delta_count(ctx, 2)
    assert ctx._f_histogram is None


@pytest.mark.parametrize("job, cost", [
    # two transforms of r stages and m pointwise products: (2r + m) q,
    # for every m
    (lambda ctx, limit: delta_count(ctx, 3, ops_limit=limit), (2 * 3 + 3) * 27),
    (lambda ctx, limit: delta_count(ctx, 0, ops_limit=limit), (2 * 3 + 0) * 27),
    (lambda ctx, limit: delta_count(ctx, 1, ops_limit=limit), (2 * 3 + 1) * 27),
    # one transform for the K table: q r + q
    (lambda ctx, limit: sk_moment(ctx, 3, ops_limit=limit), 27 * 3 + 27),
], ids=["delta_count", "delta_count_m0", "delta_count_m1", "sk_moment"])
def test_table_cost_estimates_admit_themselves(f27, job, cost):
    assert job(f27, cost) == job(f27, 10 ** 9)
    with pytest.raises(CapacityError) as exc:
        job(f27, cost - 1)
    assert "about %d operations" % cost in str(exc.value)


@pytest.mark.parametrize("r", range(1, 11))
def test_k_and_f_at_one_and_two_match_the_hasse_davenport_lift(r):
    # K(1), K(2) and f(1) = f(2) = K(1) against the lift of K_1(1) = -1 and
    # K_1(2) = 2 from GF(3); at r <= 6 also against one literal sum per a, and
    # at r = 10 against the values measured when the lift was first checked
    ctx = field_create(r, modulus(r))
    lifted = (charsums._lifted(r, -1), charsums._lifted(r, 2))
    assert (kloosterman(ctx, 1), kloosterman(ctx, 2)) == lifted
    f = charsums._delta_one_sums(ctx)
    assert (f[1], f[2]) == (lifted[0],) * 2
    if r <= 6:
        assert tuple(kloosterman_per_a(ctx, (1, 2))) == lifted
    if r == 10:
        assert lifted == (-475, 482)


@pytest.mark.parametrize("table", ["K", "f"])
def test_a_swapped_value_at_one_fails_the_lift(monkeypatch, table):
    # K(1) swapped with K(b) at a nonzero square b keeps the sum, the square
    # sum and the value histogram over the squares, and f(1) swapped with
    # f(b) keeps f's histogram: the lift alone sees either
    ctx, other = field_create(3), field_create(3)
    k = _kloosterman_table(other) if table == "K" else charsums._delta_one_sums(other)
    b = next(b for b in ctx.squares() if k[b] != k[1])
    real = ctx.character_sums

    def swapped(*args):
        sums = real(*args)
        if len(args) == (2 if table == "K" else 1):
            sums[[1, b]] = sums[[b, 1]]
        return sums

    monkeypatch.setattr(ctx, "character_sums", swapped)
    with pytest.raises(ConsistencyError, match="%s\\(1\\), %s\\(2\\) over GF\\(27\\)" % (table, table)):
        _kloosterman_table(ctx) if table == "K" else charsums._delta_one_sums(ctx)
    assert ctx._k_table is None and ctx._f_histogram is None


@pytest.mark.parametrize("r", range(1, 9))
def test_sk_moments_match_sk_moment(r):
    ctx = field_create(r)
    assert sk_moments(ctx, 100) == [sk_moment(ctx, h) for h in range(101)]


def test_sk_moments_at_the_largest_shipped_field_and_high_h():
    # 81 values of K at r = 8, |k| <= isqrt(4q) = 162 (8 bits): h = 3000 costs
    # 3000 * 81 * (3000 * 8 // 64 + 1) = 91368000 operations, past the
    # default limit; just at its price it runs, and just below it is refused
    price = 3000 * 81 * 376
    f6561 = field_create(8)
    with pytest.raises(CapacityError) as exc:
        sk_moments(f6561, 3000, ops_limit=price - 1)
    assert "about %d operations" % price in str(exc.value) and "--limit-ops" in str(exc.value)
    with pytest.raises(CapacityError):
        sk_moments(f6561, 3000)
    found = sk_moments(f6561, 3000, ops_limit=price)
    assert [found[h] for h in (0, 1, 2, 1000, 3000)] == \
        [sk_moment(f6561, h) for h in (0, 1, 2, 1000, 3000)]


def test_sk_moment_is_priced_by_h(f9):
    # after the K table (27 at q = 9), K's 3 values each raised to h = 100:
    # bits(100) = 7 square-and-multiply steps on W = 100 * bits(isqrt(36)) // 64 + 1
    # = 5 words, 3 * 5 * 7 = 105 operations
    assert sk_moment(f9, 100, ops_limit=105) == sk_moment(f9, 100, ops_limit=10 ** 9)
    with pytest.raises(CapacityError) as exc:
        sk_moment(f9, 100, ops_limit=104)
    assert "about 105 operations" in str(exc.value) and "--limit-ops" in str(exc.value)


def test_sk_moment_at_the_largest_shipped_field():
    # 81 values of K at r = 8, bits(isqrt(4q)) = 8: h = 20 costs
    # 81 * (20 * 8 // 64 + 1) * bits(20) = 1215, below the K table's 59049,
    # and h = 3000 costs 81 * 376 * 12 = 365472, both under the default
    # limit; h = 10^6 costs 81 * 125001 * 20 = 202501620, refused before any
    # power
    f6561 = field_create(8)
    assert sk_moment(f6561, 20, ops_limit=59049) == sum(m * k ** 20 for k, m in
                                                        kloosterman_histogram(f6561))
    assert sk_moment(f6561, 3000) == sk_moment(f6561, 3000, ops_limit=365472)
    with pytest.raises(CapacityError) as exc:
        sk_moment(f6561, 3000, ops_limit=365471)
    assert "about 365472 operations" in str(exc.value)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as exc:
        sk_moment(f6561, 10 ** 6)
    assert time.perf_counter() - start < 1
    assert "about 202501620 operations" in str(exc.value) and "--limit-ops" in str(exc.value)


def test_sk_moments_validation(f9):
    assert sk_moments(f9, 10) == SK9
    with pytest.raises(DomainError):
        sk_moments(f9, -1)
