"""The integer-argument rule (errors.integer) at every public entry that
takes an order, an element index or a field size q."""

import numpy as np
import pytest

from kloostercodes import (
    DomainError,
    GaussSumRequest,
    GroupId,
    codeword_weight_formula,
    delta_count,
    field_create,
    gauss_sum_closed,
    kloosterman,
    kloosterman_gl,
    pless_check,
    q_binomial,
    recursive_moments,
    sk_moment,
    sk_moments,
    sk_recursive_chain,
    so_minus_order,
    verify_report,
    weight_prefix,
)
from kloostercodes.errors import integer, is_integer
from kloostercodes.gauss import gauss_sum_of_k
from kloostercodes.ogroups import delta_form

# each entry with the integer argument under test as x, every other argument valid
ENTRIES = {
    "kloosterman a": lambda ctx, x: kloosterman(ctx, x),
    "sk_moment h": lambda ctx, x: sk_moment(ctx, x),
    "sk_moments h_max": lambda ctx, x: sk_moments(ctx, x),
    "delta_count m": lambda ctx, x: delta_count(ctx, x),
    "weight_prefix j_max": lambda ctx, x: weight_prefix(GroupId.SO2, ctx, x),
    "codeword_weight_formula a": lambda ctx, x: codeword_weight_formula(ctx, GroupId.SO2, x),
    "q_binomial n": lambda ctx, x: q_binomial(x, 1, ctx.q),
    "q_binomial r": lambda ctx, x: q_binomial(4, x, ctx.q),
    "q_binomial q": lambda ctx, x: q_binomial(4, 2, x),
    "so_minus_order q": lambda ctx, x: so_minus_order(2, x),
    "gauss_sum_of_k q": lambda ctx, x: gauss_sum_of_k(x, 2, "so", 1),
    "delta_form q": lambda ctx, x: delta_form(GroupId.SO4, x),
    "kloosterman_gl t": lambda ctx, x: kloosterman_gl(ctx, x, 1),
    "kloosterman_gl a": lambda ctx, x: kloosterman_gl(ctx, 2, x),
    "gauss_sum_closed n": lambda ctx, x: gauss_sum_closed(ctx, GaussSumRequest(x, "so", 1)),
    "gauss_sum_closed a": lambda ctx, x: gauss_sum_closed(ctx, GaussSumRequest(2, "so", x)),
    "sk_recursive_chain h_max": lambda ctx, x: sk_recursive_chain(
        ctx, GroupId.SO2, x, weight_prefix(GroupId.SO2, ctx, 10)),
    "pless_check h": lambda ctx, x: pless_check(ctx, GroupId.SO2, x),
    "verify_report h_max": lambda ctx, x: verify_report(ctx, x),
}


@pytest.mark.parametrize("value", [1.5, True, "3"], ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_integer_argument_refused(f9, entry, value):
    # a float is not truncated, a bool not read as 0 or 1 and a string not
    # compared: each is refused by the rule, which names the value
    with pytest.raises(DomainError) as exc:
        ENTRIES[entry](f9, value)
    assert repr(value) in str(exc.value)


@pytest.mark.parametrize("word", [np.int64, np.int32])
def test_numpy_integer_arguments_give_the_int_results(word):
    # a numpy order, q, n or K reaches the big-integer loops as a Python int:
    # in int64, N - t, the Pless steps, |SO-(4, 3^8)|, q^3 and G would wrap
    ctx = field_create(2)

    def rows(reports):
        return [(report.code, report.rows) for report in reports]

    assert rows(verify_report(ctx, word(80))) == rows(verify_report(ctx, 80))
    assert all(report.all_match for report in verify_report(ctx, word(80)))
    for r in (1, 2):
        small = field_create(r)
        assert recursive_moments(small, GroupId.SO4, word(40)) == recursive_moments(small, GroupId.SO4, 40)
    check = pless_check(ctx, GroupId.SO4, word(4))
    assert check == pless_check(ctx, GroupId.SO4, 4) and check.match and type(check.h) is int
    for got, want in ((sk_moment(ctx, word(5)), sk_moment(ctx, 5)),
                      (kloosterman(ctx, word(3)), kloosterman(ctx, 3))):
        assert (got, type(got)) == (want, int)
    assert so_minus_order(word(2), word(6561)) == 79766443076872466816640
    assert gauss_sum_of_k(word(6561), word(2), "so", word(100)) == gauss_sum_of_k(6561, 2, "so", 100)
    q = 6561 ** 3 if word is np.int64 else 6561
    assert q_binomial(3, 1, word(q)) == q * q + q + 1


def test_the_rule_hands_on_a_python_int():
    for value in (5, np.int64(5), np.int32(5), np.uint8(5)):
        assert is_integer(value)
        got = integer(value, 0, "m must be nonnegative", 5)
        assert (got, type(got)) == (5, int)
    assert integer(-7, None, "any integer") == -7
    for value in (True, np.bool_(True), 5.0, np.float64(5), "5", None):
        assert not is_integer(value)
    with pytest.raises(DomainError, match=r"^m must be nonnegative, got -1$"):
        integer(-1, 0, "m must be nonnegative")
    with pytest.raises(DomainError, match=r"got 6$"):
        integer(6, 0, "m must lie in [0, 5]", 5)
