import hashlib

import pytest

from kloostercodes import (
    DomainError,
    GaussSumRequest,
    GroupId,
    enumerate_group,
    field_create,
    gauss_sum_closed,
    kloosterman,
    kloosterman_gl,
    q_binomial,
)

from oracles import (
    OmegaSum,
    b_r_bruteforce,
    b_r_closed,
    gauss_sum_enumerated,
    kloosterman_gl_bruteforce,
    mat_mul,
)


def test_q_binomial_values():
    assert q_binomial(5, 0, 3) == 1
    assert q_binomial(2, 1, 3) == 4
    assert q_binomial(3, 1, 3) == 13
    assert q_binomial(4, 2, 9) == 7462  # (9^4-1)(9^3-1)/((9^2-1)(9-1)) = 82 * 91


def test_q_binomial_pascal_recurrence():
    # independent oracle: [n r]_q = [n-1 r-1]_q + q^r [n-1 r]_q
    for q in (3, 9):
        for n in range(1, 8):
            for r in range(1, n):
                assert q_binomial(n, r, q) == (
                    q_binomial(n - 1, r - 1, q) + q ** r * q_binomial(n - 1, r, q)
                )


def test_q_binomial_domain():
    with pytest.raises(DomainError):
        q_binomial(3, 4, 3)
    with pytest.raises(DomainError):
        q_binomial(3, -1, 3)


def test_b_r_closed_values():
    assert b_r_closed(0, 3) == 1
    assert b_r_closed(1, 3) == -6
    assert b_r_closed(2, 3) == 162
    assert b_r_closed(1, 9) == -9 * 8
    assert b_r_closed(2, 9) == 9 ** 4 * 8


def test_b_r_bruteforce_matches_closed(f3):
    # also confirms independence of the choice of nontrivial character
    for a in (1, 2):
        assert b_r_bruteforce(f3, 1, a) == -6
        assert b_r_bruteforce(f3, 2, a) == 162


def test_b_r_bruteforce_q9(f9):
    assert b_r_bruteforce(f9, 1, 1) == b_r_closed(1, 9)
    assert b_r_bruteforce(f9, 1, 5) == b_r_closed(1, 9)


def test_kloosterman_gl_base_cases(f3, f9):
    assert kloosterman_gl(f3, 0, 1) == 1
    for ctx in (f3, f9):
        for a in range(1, ctx.q):
            assert kloosterman_gl(ctx, 1, a) == kloosterman(ctx, a)


def test_kloosterman_gl_q3_values(f3):
    assert kloosterman_gl(f3, 2, 1) == 21  # 3*(-1)(-1) + 9*2
    assert kloosterman_gl(f3, 2, 2) == 30


def test_kloosterman_gl_matches_bruteforce(f3, f9):
    for a in range(1, 3):
        assert kloosterman_gl(f3, 2, a) == kloosterman_gl_bruteforce(f3, 2, a)
    for a in range(1, 9):
        assert kloosterman_gl(f9, 2, a) == kloosterman_gl_bruteforce(f9, 2, a)


def test_gl_argument_validation(f3):
    with pytest.raises(DomainError):
        kloosterman_gl(f3, 2, 0)
    with pytest.raises(DomainError):
        kloosterman_gl(f3, -1, 1)


def test_character_rescaling_identity(f9, f27):
    # sum_x omega^{tr(a(x + 1/x))} equals K(a^2)
    for ctx in (f9, f27):
        for a in range(1, ctx.q):
            acc = [0, 0, 0]
            for x in range(1, ctx.q):
                acc[ctx.trace(ctx.mul(a, ctx.add(x, ctx.inv(x))))] += 1
            assert OmegaSum(*acc).value() == kloosterman(ctx, ctx.mul(a, a))


def test_closed_forms_q3(f3):
    assert gauss_sum_closed(f3, GaussSumRequest(1, "so", 1)) == 1
    assert gauss_sum_closed(f3, GaussSumRequest(1, "o", 1)) == 5
    assert gauss_sum_closed(f3, GaussSumRequest(2, "so", 1)) == -225


def test_enumerated_q3(f3):
    assert gauss_sum_enumerated(f3, GroupId.SO2, 1) == 1
    assert gauss_sum_enumerated(f3, GroupId.O2, 1) == 5
    assert gauss_sum_enumerated(f3, GroupId.SO4, 1) == -225


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rank2_closed_vs_enumerated(r):
    ctx = field_create(r)
    for a in range(1, ctx.q):
        assert gauss_sum_closed(ctx, GaussSumRequest(1, "so", a)) == \
            gauss_sum_enumerated(ctx, GroupId.SO2, a)
        assert gauss_sum_closed(ctx, GaussSumRequest(1, "o", a)) == \
            gauss_sum_enumerated(ctx, GroupId.O2, a)


def test_rank4_closed_vs_enumerated_all_a(f3):
    for a in (1, 2):
        assert gauss_sum_closed(f3, GaussSumRequest(2, "so", a)) == \
            gauss_sum_enumerated(f3, GroupId.SO4, a)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rank2_closed_form_expressions(r):
    # n=1: SO gives -K(a^2); O gives -K(a^2) + q + 1
    ctx = field_create(r)
    for a in range(1, ctx.q):
        k = kloosterman(ctx, ctx.mul(a, a))
        assert gauss_sum_closed(ctx, GaussSumRequest(1, "so", a)) == -k
        assert gauss_sum_closed(ctx, GaussSumRequest(1, "o", a)) == -k + ctx.q + 1


@pytest.mark.parametrize("r", [1, 2])
def test_rank4_closed_form_expression(r):
    ctx = field_create(r)
    q = ctx.q
    for a in range(1, q):
        k = kloosterman(ctx, ctx.mul(a, a))
        assert gauss_sum_closed(ctx, GaussSumRequest(2, "so", a)) == \
            -q * q * (k * k + q ** 3 - q)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_reflection_coset_sum(r):
    # over the coset diag(1,-1) SO-(2,q) every trace is 0, so the sum is q+1
    ctx = field_create(r)
    refl = (1, 0, 0, ctx.neg(1))
    for a in (1, 2):
        acc = [0, 0, 0]
        for w in enumerate_group(ctx, GroupId.SO2).elements:
            t = mat_mul(ctx, refl, w, 2)
            acc[ctx.trace(ctx.mul(a, ctx.add(t[0], t[3])))] += 1
        assert OmegaSum(*acc).value() == ctx.q + 1


def test_request_validation(f3):
    with pytest.raises(DomainError):
        gauss_sum_closed(f3, GaussSumRequest(0, "so", 1))
    with pytest.raises(DomainError):
        gauss_sum_closed(f3, GaussSumRequest(1, "sp", 1))
    with pytest.raises(DomainError):
        gauss_sum_closed(f3, GaussSumRequest(1, "so", 0))


def test_higher_rank_values_are_integers(f3):
    # no independent cross-check exists at this size; the evaluator must
    # still produce exact integers without overflow issues
    for n in (3, 4, 5):
        for variant in ("so", "o"):
            val = gauss_sum_closed(f3, GaussSumRequest(n, variant, 1))
            assert isinstance(val, int)


def test_gauss_sum_reads_k_once(monkeypatch, f3):
    # K_GL(0..n-1) come from one read of K and one recurrence; the digests
    # were recorded when every K_GL(t) re-read K and re-ran the recurrence
    from kloostercodes import gauss

    reads = []
    real = gauss.kloosterman

    def counted(*args, **kwargs):
        reads.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gauss, "kloosterman", counted)
    for variant, digest in (
        ("so", "f79eabf1ea6bea0863c3547169e54ebad4dbc2ab4e9cea8055f85a3c38545ce4"),
        ("o", "00f3767301484517e3523badf36f1a70e92a78f539fe2842a28d6d499f05f7cc"),
    ):
        reads.clear()
        value = gauss_sum_closed(f3, GaussSumRequest(90, variant, 1))
        assert len(reads) == 1
        assert hashlib.sha256(hex(value).encode()).hexdigest() == digest
