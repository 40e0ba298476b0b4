import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kloostercodes import (
    DomainError,
    FieldConstructionError,
    field_create,
    load_modulus_config,
    verify_report,
)
from kloostercodes.gf3r import DEFAULT_MODULI, _l1_bound, format_poly
from frontier import modulus
from oracles import digit_add, field_tables_reference, is_irreducible_trial


def test_default_contexts_construct():
    for r in range(1, 9):
        ctx = field_create(r)
        assert ctx.q == 3 ** r
        assert len(ctx.modulus) == r + 1 and ctx.modulus[-1] == 1


def test_prime_field_is_plain_mod3(f3):
    assert f3.q == 3
    assert f3.add(2, 2) == 1
    assert f3.inv(2) == 2
    assert f3.mul(2, 2) == 1
    assert f3.neg(1) == 2


def test_reducible_modulus_rejected():
    # x^2 + 2 = (x - 1)(x + 1) over GF(3)
    with pytest.raises(FieldConstructionError) as exc:
        field_create(2, (2, 0, 1))
    assert "x^2 + 2" in str(exc.value)


def test_field_builds_exactly_on_the_irreducible_moduli():
    # every monic polynomial of degree 1..7, 3,279 of them, against trial division
    for r in range(1, 8):
        for tail in itertools.product(range(3), repeat=r):
            modulus = tail + (1,)
            if is_irreducible_trial(modulus):
                assert field_create(r, modulus).modulus == modulus
            else:
                with pytest.raises(FieldConstructionError, match="is reducible"):
                    field_create(r, modulus)


def test_irreducibility_at_r12():
    # x^12 + x^11 + x^8 + 1 is irreducible; x^12 + 1 = (x^4 + 1)^3 is not
    ctx = field_create(12, (1,) + (0,) * 7 + (1, 0, 0, 1, 1))
    assert ctx.q == 3 ** 12
    with pytest.raises(FieldConstructionError) as exc:
        field_create(12, (1,) + (0,) * 11 + (1,))
    assert "x^12 + 1 is reducible" in str(exc.value)


def test_reducible_modulus_refused_before_any_field_sized_array():
    # x^14 + 1 has the factor x^2 + 1; the half-width addition table of
    # GF(3^14) alone takes 9.6 MB
    field_create(2)  # numpy's allocations on first use stay out of the count
    tracemalloc.start()
    try:
        with pytest.raises(FieldConstructionError, match="x\\^14 \\+ 1 is reducible"):
            field_create(14, (1,) + (0,) * 13 + (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_product_of_two_half_degree_irreducibles_refused():
    # a product of two irreducibles of degree 6: no factor of low degree, and
    # the slowest refusal found at r = 12, as the generator search scans
    # the most candidates before the first one passes
    modulus = (1, 2, 1, 0, 2, 2, 2, 1, 2, 0, 2, 1, 1)
    assert not is_irreducible_trial(modulus)
    with pytest.raises(FieldConstructionError, match="is reducible"):
        field_create(12, modulus)


@pytest.mark.parametrize("r, modulus, named", [
    (2.5, None, "2.5"), (2.0, None, "2.0"), ("2", None, "'2'"), (None, None, "None"),
    (True, (1, 1), "True"), (2, (1, 0, 1.5), "(1, 0, 1.5)"), (2, (1, 0, True), "(1, 0, True)"),
    (2, "101", "('1', '0', '1')"),
])
def test_non_integer_input_refused(r, modulus, named):
    # a 1.5 is not truncated, nor a bool read as an integer: the value is named
    with pytest.raises(FieldConstructionError, match="integer") as exc:
        field_create(r, modulus)
    assert named in str(exc.value)


def test_numpy_integer_input_accepted():
    ctx = field_create(np.int64(2), np.array([1, 0, 1]))
    assert (type(ctx.r), type(ctx.q), ctx.modulus) == (int, int, (1, 0, 1))
    assert ctx.squares() == field_create(2).squares()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda r: st.tuples(st.just(r), st.lists(st.integers(0, 2), min_size=r, max_size=r))))
def test_random_modulus_builds_exactly_when_irreducible(case):
    # when it builds, verify's rows equal those of the default modulus: every
    # moment is invariant under the choice of modulus
    r, tail = case
    modulus = tuple(tail) + (1,)
    if not is_irreducible_trial(modulus):
        with pytest.raises(FieldConstructionError, match="is reducible"):
            field_create(r, modulus)
        return
    rows = [(rep.code, rep.rows) for rep in verify_report(field_create(r, modulus), 10)]
    assert rows == [(rep.code, rep.rows) for rep in verify_report(field_create(r), 10)]


def test_wrong_degree_modulus_rejected():
    with pytest.raises(FieldConstructionError):
        field_create(3, (1, 0, 1))
    with pytest.raises(FieldConstructionError):
        field_create(2, (1, 0, 2))  # not monic


def test_bad_r_rejected():
    with pytest.raises(FieldConstructionError):
        field_create(0)


def test_no_shipped_modulus_past_r8():
    with pytest.raises(FieldConstructionError, match="r=9"):
        field_create(9)


def test_custom_modulus_multiplication():
    # with modulus x^2 + 2x + 2, the class g of x satisfies g^2 = g + 1
    ctx = field_create(2, (2, 2, 1))
    g = 3
    assert ctx.mul(g, g) == ctx.add(g, 1) == 4


def test_trace_values():
    ctx = field_create(2, (2, 2, 1))
    assert ctx.trace(0) == 0
    assert ctx.trace(1) == 2  # r copies of 1
    assert ctx.trace(3) == 1  # g + g^3 = 3g + 1 = 1
    f27 = field_create(3)
    assert f27.trace(1) == 0  # 3 copies of 1


@pytest.mark.parametrize("r,count", [(1, 1), (2, 4), (3, 13)])
def test_square_counts(r, count):
    ctx = field_create(r)
    assert len(ctx.squares()) == count
    assert not ctx.is_square(0)


def test_q3_squares_and_epsilon(f3):
    assert f3.squares() == (1,)
    assert f3.epsilon == 2


def test_epsilon_is_least_nonsquare(f27):
    sq = set(f27.squares())
    assert f27.epsilon == min(x for x in range(1, 27) if x not in sq)
    # multiplying a square by epsilon always leaves the squares
    for s in f27.squares():
        assert not f27.is_square(f27.mul(f27.epsilon, s))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_trace_surjective_and_balanced(r):
    ctx = field_create(r)
    counts = [0, 0, 0]
    for x in range(ctx.q):
        counts[ctx.trace(x)] += 1
    assert all(c == ctx.q // 3 for c in counts)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_square_subgroup_size(r):
    ctx = field_create(r)
    assert len(ctx.squares()) == (ctx.q - 1) // 2
    assert sum(ctx.is_square(x) for x in range(1, ctx.q)) == (ctx.q - 1) // 2


def _irreducibles(r, step=1):
    """The monic irreducibles of degree r in index order, from the last one
    at step = -1."""
    for idx in range(3 ** r)[::step]:
        modulus = tuple((idx // 3 ** k) % 3 for k in range(r)) + (1,)
        if is_irreducible_trial(modulus):
            yield modulus


@pytest.mark.parametrize("r, modulus", [(r, None) for r in range(1, 9)]
                         + [(r, next(_irreducibles(r, -1))) for r in (2, 5, 7)])
def test_log_tables_use_the_least_generator(r, modulus):
    ctx = field_create(r, modulus)
    assert np.array_equal(np.sort(ctx._np_exp), np.arange(1, ctx.q))
    assert np.array_equal(ctx._np_exp[ctx._np_log[1:]], np.arange(1, ctx.q))
    # x has order (q - 1) / gcd(log x, q - 1): every candidate below g falls short
    g = int(ctx._np_exp[1])
    assert all(math.gcd(int(ctx._np_log[x]), ctx.q - 1) > 1 for x in range(2, g))


@pytest.mark.parametrize("r", range(1, 9))
def test_tables_match_the_list_reference(r):
    # the default modulus comes first in index order; r = 1 has only three
    moduli = list(itertools.islice(_irreducibles(r), 4))
    assert moduli[0] == DEFAULT_MODULI[r]
    for modulus in moduli:
        ctx = field_create(r, modulus)
        ref = field_tables_reference(ctx)
        # what the scalar methods read off exp, log and the addition table
        elems = range(ctx.q)
        assert [ctx.inv(x) for x in elems[1:]] == ref.pop("inv")[1:], modulus
        assert [ctx.neg(x) for x in elems] == ref.pop("neg"), modulus
        assert ctx.squares() == tuple(ref.pop("squares")), modulus
        assert [ctx.is_square(x) for x in elems] == ref.pop("is_square"), modulus
        assert [ctx.trace(x) for x in elems] == ref.pop("trace"), modulus
        for name, want in ref.items():
            got = getattr(ctx, name)
            assert type(got) is type(want), (modulus, name)
            if isinstance(want, np.ndarray):
                # the reference's index tables are int64; the field keeps its
                # indices in int32 while 2(q - 1) < 2^31
                index_dtype = np.int32 if 2 * (ctx.q - 1) < 2 ** 31 else np.int64
                assert got.dtype == (index_dtype if want.dtype == np.int64 else want.dtype), \
                    (modulus, name)
                assert np.array_equal(got, want), (modulus, name)
            else:
                assert got == want, (modulus, name)


@pytest.mark.parametrize("r", [1, 2, 5])
def test_scalar_methods_return_python_values(r):
    # for Python ints and for indices read out of an int32 table alike
    ctx = field_create(r)
    assert type(ctx.squares()) is tuple
    for index in (int, np.int32):
        x, y = index(ctx.q - 1), index(ctx.q // 2)
        for value in (ctx.add(x, y), ctx.neg(x), ctx.sub(x, y), ctx.mul(x, y), ctx.inv(x),
                      ctx.pow(x, 5), ctx.pow(x, -3), ctx.pow(index(0), 2), ctx.trace(x),
                      *ctx.squares()):
            assert type(value) is int, index
        assert {type(ctx.is_square(index(v))) for v in range(ctx.q)} == {bool}, index


@pytest.mark.parametrize("r", [1, 5, 8])
def test_field_keeps_only_its_four_tables(r):
    # exp, log, the half-width sums and the functional s: negation, inverses,
    # squares and the trace (digit 0 of s) are read off them, not kept
    ctx = field_create(r)
    tables = {name for name, value in vars(ctx).items() if isinstance(value, np.ndarray)}
    assert tables == {"_np_exp", "_np_log", "_add_half", "_functional"}
    assert all(getattr(ctx, name).size >= ctx.q - 1 for name in tables)


@pytest.mark.parametrize("r", range(1, 9))
def test_chi_sq_minus_one_from_the_shifts(r):
    # chi(beta - 1) chi(beta + 1) against chi of the digit sum beta^2 + (-1)
    ctx = field_create(r)
    beta = np.arange(ctx.q)
    is_square = np.zeros(ctx.q, dtype=bool)
    is_square[ctx._mul_vec(beta[1:], beta[1:])] = True
    s = ctx._add_vec(ctx._mul_vec(beta, beta), 2)
    chi = np.where(s == 0, 0, np.where(is_square[s], 1, -1))
    assert np.array_equal(ctx._chi_sq_minus_one(), chi)
    assert np.array_equal(ctx._sq_minus_one(), s)


def _digits(x, r):
    return [(x // 3 ** k) % 3 for k in range(r)]


def _conjugate_symmetric(ctx, pick):
    """Parts (A, B) of an f with f(-beta) = conj f(beta), so that every
    character sum of f is real: pick() draws (A, B) at one beta of each pair
    {beta, -beta}, conj(A + B omega) = (A - B) - B omega gives the other, and
    f(0) = (A, 0) is real."""
    a, b = [0] * ctx.q, [0] * ctx.q
    a[0] = pick()[0]
    for beta in range(1, ctx.q):
        if beta < ctx.neg(beta):
            a[beta], b[beta] = pick()
            a[ctx.neg(beta)], b[ctx.neg(beta)] = a[beta] - b[beta], -b[beta]
    return a, b


def _literal_sums(ctx, a, b):
    """sum_beta (A + B omega)(beta) omega^{tr(x beta)} for every x, term by
    term, with the omega part asserted zero."""
    out = []
    for x in range(ctx.q):
        acc = [0, 0, 0]  # coefficients of 1, omega, omega^2
        for beta in range(ctx.q):
            e = ctx.trace(ctx.mul(x, beta))
            acc[e] += a[beta]
            acc[(e + 1) % 3] += b[beta]
        assert acc[1] == acc[2]
        out.append(acc[0] - acc[2])
    return out


@pytest.mark.parametrize("r, modulus", [(1, None), (2, None), (3, None), (4, None),
                                        (4, next(_irreducibles(4, -1)))],
                         ids=["1", "2", "3", "4", "4-last"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
def test_transform_matches_literal_sum(r, modulus, dtype):
    ctx = field_create(r, modulus)
    rng = random.Random(r)
    a, b = _conjugate_symmetric(ctx, lambda: (rng.randint(-5, 5), rng.randint(-5, 5)))
    sums = ctx.character_sums(np.array(a, dtype=dtype), np.array(b, dtype=dtype))
    assert sums.tolist() == _literal_sums(ctx, a, b)
    # B omitted is B = 0; an even real f has real sums
    even = [a[x] + a[ctx.neg(x)] for x in range(ctx.q)]
    sums = ctx.character_sums(np.array(even, dtype=dtype))
    assert sums.tolist() == _literal_sums(ctx, even, [0] * ctx.q)


def _parts_at_the_bound(ctx, half, over, shape, rng):
    """Parts with every character sum real whose L1 bound L, as the
    transform takes it, is half - 1 (below) or half (over).  "flat" and
    "peaked": one real even part f >= 0 (f(-beta) = f(beta)) with
    sum f = L exactly, every entry about L / q, or f(0) about L and the rest
    at most 8, as f^2 has.  "signed": conjugate-symmetric A, B, both with
    negative entries, so L = q max|A| + q max|B|, scaled to the last
    multiple of it below half or the first at or past half."""
    q = ctx.q
    if shape == "signed":
        while True:
            a, b = _conjugate_symmetric(ctx, lambda: (rng.randint(-5, 5), rng.randint(-5, 5)))
            if min(a) < 0 and min(b) < 0:
                break
        unit = q * (max(map(abs, a)) + max(map(abs, b)))
        c = -(-half // unit) if over else (half - 1) // unit
        return [c * x for x in a], [c * x for x in b]
    norm = half if over else half - 1
    f = [0] * q
    c = 8 if shape == "peaked" else norm // q
    for beta in range(1, q):
        if beta < ctx.neg(beta):
            f[beta] = f[ctx.neg(beta)] = rng.randint(c // 2, c)
    f[0] = norm - sum(f)
    return f, [0] * q


def _check_word_at_the_bound(r, over, top, word, wider):
    """The sums against the literal ones for int64 parts of each shape whose
    bound 2 L sits just below top (in word) or at top (in wider)."""
    ctx = field_create(r)
    rng = random.Random(r)
    for shape in ("flat", "peaked", "signed"):
        a, b = _parts_at_the_bound(ctx, top // 2, over, shape, rng)
        parts = (a,) if shape != "signed" else (a, b)  # B omitted is B = 0
        sums = ctx.character_sums(*(np.array(p, dtype=np.int64) for p in parts))
        assert sums.dtype == (wider if over else word), shape
        assert sums.tolist() == _literal_sums(ctx, a, b), shape


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("over", [False, True], ids=["below", "above"])
def test_character_sums_exact_at_the_int64_bound(r, over):
    # int64 while 2 L < 2^63, L the bound on the L1 norm sum|A| + sum|B|:
    # the exact sum of a nonnegative part (the peaked one, f(0) near 2^62,
    # summed in chunks), q max|x| of a signed one
    _check_word_at_the_bound(r, over, 2 ** 63, np.int64, object)


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
def test_l1_bound_is_exact_for_a_nonnegative_part(dtype):
    # the int64 and object parts total past 2^63, where one int64 sum would
    # wrap and the chunks of (2^63 - 1) // max entries cannot; an int32 part
    # sums in int64; a part with a negative entry is bounded by size max|x|
    top = 2 ** 31 - 1 if dtype is np.int32 else 2 ** 62 + 1
    part = np.array([top, 0, top - 5, 1, top, 7] * 3, dtype=dtype)
    assert _l1_bound(part) == sum(part.tolist())
    part[1] = -2
    assert _l1_bound(part) == part.size * top


@pytest.mark.parametrize("dtype", [np.int32, np.int64, object])
def test_transform_reads_read_only_inputs(dtype):
    # parts that already have the chosen dtype are read as they are, never
    # written: read-only parts give the same sums and come back unchanged
    ctx = field_create(3)
    rng = random.Random(7)
    a, b = _conjugate_symmetric(ctx, lambda: (rng.randint(-5, 5), rng.randint(-5, 5)))
    even = [a[x] + a[ctx.neg(x)] for x in range(ctx.q)]
    parts = [np.array(v, dtype=dtype) for v in (a, b, even)]
    for part in parts:
        part.flags.writeable = False
    assert ctx.character_sums(*parts[:2]).tolist() == _literal_sums(ctx, a, b)
    assert ctx.character_sums(parts[2]).tolist() == _literal_sums(ctx, even, [0] * ctx.q)
    assert [part.tolist() for part in parts] == [a, b, even]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("over", [False, True], ids=["below", "above"])
def test_character_sums_exact_at_the_int32_bound(r, over):
    # int32 while 2 L < 2^31, from int64 parts
    _check_word_at_the_bound(r, over, 2 ** 31, np.int32, np.int64)


def test_field_build_memory_per_element():
    # no (q, r) digit array, no int64 index table and no table that the
    # four kept ones restate: at r = 10 the build peaks at <= 30 bytes per
    # element and keeps <= 15
    field_create(2)  # numpy's allocations on first use stay out of the count
    tracemalloc.start()
    try:
        ctx = field_create(10, modulus(10))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx._np_exp.dtype == np.int32
    assert peak <= 30 * ctx.q, peak / ctx.q
    assert kept <= 15 * ctx.q, kept / ctx.q


@pytest.mark.parametrize("bound, dtype", [(2, np.int32), (2 ** 20, np.int64)])
@pytest.mark.parametrize("with_b", [False, True], ids=["a", "a_b"])
def test_transform_memory(bound, dtype, with_b):
    # at r = 10 one transform holds its inputs (read in place here, as they
    # have the chosen dtype), four working arrays and the output, in that
    # dtype; 2^17 bytes cover numpy's buffer for the int32 index of the gather
    ctx = field_create(10, modulus(10))
    rng = np.random.default_rng(10)
    a = rng.integers(-bound, bound, ctx.q).astype(dtype)
    beta = np.arange(ctx.q)
    neg = ctx._add_vec(beta, beta)  # -beta = beta + beta
    a += a[neg]  # even and real, so every sum is real
    parts = (a, np.zeros(ctx.q, dtype)) if with_b else (a,)
    tracemalloc.start()
    try:
        sums = ctx.character_sums(*parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums.dtype == dtype
    assert peak <= 5 * np.dtype(dtype).itemsize * ctx.q + 2 ** 17, peak
    # the sum at a = 0 is the total, and a and -a give the same sum
    assert sums[0] == a.sum() and np.array_equal(sums, sums[neg])


@pytest.mark.parametrize("r, modulus", [(r, modulus(r)) for r in (10, 11)])
def test_half_table_addition_matches_the_digit_loop(r, modulus):
    # a + b through the table of half-width sums, at an even r and at an odd
    # one (whose high half is a digit shorter), against the scalar digit loop
    ctx = field_create(r, modulus)
    rng = np.random.default_rng(r)
    xs, ys = rng.integers(0, ctx.q, (2, 500)).astype(ctx._np_exp.dtype)
    got = ctx._add_vec(xs, ys)
    assert got.dtype == ctx._np_exp.dtype
    assert got.tolist() == [digit_add(int(x), int(y)) for x, y in zip(xs, ys)]
    # broadcasting, as the build's sum of the images of the two halves
    assert np.array_equal(ctx._add_vec(xs[:20, None], ys[None, :30]),
                          [[digit_add(int(x), int(y)) for y in ys[:30]] for x in xs[:20]])


@pytest.mark.parametrize("r", [*range(1, 9), 10, 11])
def test_scalar_add_neg_sub_match_the_digit_loop(r):
    # the scalar x + y reads the half-width table; every pair up to r = 4,
    # 500 random pairs past it, against the digit loop
    ctx = field_create(r, modulus(r))
    if r <= 4:
        pairs = list(itertools.product(range(ctx.q), repeat=2))
    else:
        pairs = np.random.default_rng(r).integers(0, ctx.q, (500, 2)).tolist()
    assert [ctx.add(x, y) for x, y in pairs] == [digit_add(x, y) for x, y in pairs]
    assert [ctx.neg(x) for x, _ in pairs] == [digit_add(x, x) for x, _ in pairs]
    assert [ctx.sub(x, y) for x, y in pairs] == [digit_add(x, digit_add(y, y)) for x, y in pairs]


def test_mul_vec_where_the_index_product_wraps():
    # x y is a multiple of 2^32 for each pair, so an int32 product of the
    # indices would wrap to 0: zeros are found factor by factor
    ctx = field_create(11, modulus(11))
    pairs = [(2 ** 16, 2 ** 16), (2 ** 16, 2 ** 17), (2 ** 17, 2 ** 17),
             (2 ** 15, 2 ** 17), (3 * 2 ** 15, 2 ** 17), (2 ** 17, 3 * 2 ** 15)]
    assert all(x < ctx.q and y < ctx.q and x * y % 2 ** 32 == 0 for x, y in pairs)
    xs, ys = np.array(pairs, dtype=ctx._np_exp.dtype).T
    assert xs.dtype == np.int32
    got = ctx._mul_vec(xs, ys).tolist()
    assert got == [ctx.mul(x, y) for x, y in pairs]
    assert 0 not in got


@pytest.mark.parametrize("r", [1, 2, 3])
def test_transform_index_maps(r):
    ctx = field_create(r)
    elems = np.arange(ctx.q)
    neg = ctx._add_vec(elems, elems)  # -x = x + x through the addition table
    for x in range(ctx.q):
        assert ctx.add(x, int(neg[x])) == 0
        s = _digits(int(ctx._functional[x]), r)
        for beta in range(ctx.q):
            dot = sum(u * v for u, v in zip(s, _digits(beta, r))) % 3
            assert ctx.trace(ctx.mul(x, beta)) == dot


_f27 = field_create(3)
elems = st.integers(min_value=0, max_value=26)


@given(x=elems, y=elems, z=elems)
@settings(max_examples=200, deadline=None)
def test_field_axioms(x, y, z):
    f = _f27
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, f.neg(x)) == 0
    if x:
        assert f.mul(x, f.inv(x)) == 1


@given(x=elems, y=elems)
@settings(max_examples=200, deadline=None)
def test_frobenius_is_additive(x, y):
    f = _f27
    cube = lambda t: f.mul(f.mul(t, t), t)
    assert cube(f.add(x, y)) == f.add(cube(x), cube(y))
    assert f.trace(cube(x)) == f.trace(x)


@given(x=elems)
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_mul(x):
    f = _f27
    acc = 1
    for e in range(6):
        assert f.pow(x, e) == acc
        acc = f.mul(acc, x)


def test_pow_edge_cases(f9):
    assert f9.pow(0, 0) == 1
    assert f9.pow(0, 5) == 0
    with pytest.raises(DomainError):
        f9.pow(0, -1)
    with pytest.raises(DomainError):
        f9.inv(0)
    with pytest.raises(DomainError):
        f9.add(9, 0)


@pytest.mark.parametrize("e", [1.5, True, "3"], ids=repr)
def test_pow_refuses_a_non_integer_exponent(f9, e):
    # the exponent has no lower bound (1/x = x^-1), but it is an integer:
    # 2^1.5 does not index the tables, 0^1.5 is not 0
    for x in (2, 0):
        with pytest.raises(DomainError, match="exponent") as exc:
            f9.pow(x, e)
        assert repr(e) in str(exc.value)


def test_pow_takes_any_integer_exponent(f9):
    for x in range(1, 9):
        assert f9.pow(x, -1) == f9.inv(x)
        for e in (np.int64(5), np.int32(-3), 2 ** 70):
            assert f9.pow(x, e) == _pow_by_mul(f9, x, int(e))


def _pow_by_mul(ctx, x, e):
    # x^e by repeated multiplication, e reduced mod q - 1 (x != 0)
    out = 1
    for _ in range(e % (ctx.q - 1)):
        out = ctx.mul(out, x)
    return out


@pytest.mark.parametrize("x", [True, False, 1.0, "1"])
def test_non_integer_element_index_refused(f9, x):
    # a bool would index the numpy tables as a mask, not as 0 or 1
    for method in (f9.add, f9.mul):
        with pytest.raises(DomainError, match="element index"):
            method(x, 1)
    with pytest.raises(DomainError, match="element index"):
        f9.trace(x)


def test_modulus_config_roundtrip(tmp_path):
    p = tmp_path / "moduli.json"
    p.write_text('{"2": [2, 2, 1], "3": [1, 2, 0, 1]}')
    table = load_modulus_config(p)
    assert table[2] == (2, 2, 1)
    ctx = field_create(2, table[2])
    assert ctx.q == 9

    t = tmp_path / "moduli.txt"
    t.write_text("# degree: coefficients, low first\n2: 2 2 1\n3 1 2 0 1\n")
    table = load_modulus_config(t)
    assert table[2] == (2, 2, 1)
    assert table[3] == (1, 2, 0, 1)


def test_format_poly():
    assert format_poly((1, 2, 0, 1)) == "x^3 + 2x + 1"
    assert format_poly((0, 1)) == "x"
    assert format_poly((0,)) == "0"


def test_shipped_moduli_table_is_frozen():
    assert DEFAULT_MODULI[2] == (1, 0, 1)
    assert DEFAULT_MODULI[8] == (2, 0, 1, 0, 0, 0, 0, 0, 1)
