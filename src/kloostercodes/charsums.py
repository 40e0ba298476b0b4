"""Additive character sums over GF(3^r), exactly.

Every sum of values of the canonical character x -> omega^{tr(x)}
(omega a primitive cube root of unity) is carried exactly as A + B omega
with integer A, B, through omega^2 = -1 - omega.
Kloosterman sums, their power moments over the square arguments, and the
solution counts delta(m, q; beta) of x_1 + 1/x_1 + ... + x_m + 1/x_m = beta
all come out as exact (big) integers.

The K table and the delta(m) tables are exact character sums over the
field (FieldContext.character_sums), each in the word gf3r._word picks for
it (the rule is derived in character_sums): one sum of
y -> omega^{tr(1/y)} gives K(a) for every a, kept on the field context,
and every reader of a Kloosterman sum, single values included, reads that
table.  Next to it the context keeps the value histogram of K over the
nonzero squares: K(a) is -1 mod 3 and at most 2 sqrt(q) in modulus, so it
takes at most about 4 sqrt(q)/3 + 1 values (81 at q = 3^8), and the direct
moments SK^h = sum_k mult(k) k^h and the left side of the Pless check sum
over those values instead of over the (q - 1)/2 squares: sk_moment for one h
by one power per value, sk_moments for every h up to h_max by one running
product per value, each priced by h.  K(1) and K(2) are checked against the
Hasse-Davenport lift of their values over GF(3), the one check of the table
that does not come from the transform.  f, the character sum of delta(1), is
K(a^2) at a != 0: one routine (_delta_one_sums) computes it, checks its
values at a != 0 as K's are checked (f(1) = f(2) = K(1) by the lift) and
keeps their histogram on the context, which codes.weight_prefix reads for
every dual weight; delta(m) is the character sum of f^m.  Inside the package
the delta(m) table stays an integer array in the word its second sum ran in
(ogroups groups it by value); delta_count, the public boundary, turns it
into a tuple of Python ints indexed by beta.  The two tables never read each
other, and no other module runs a character sum or writes a kept table.
"""

import math
import operator

import numpy as np

from .errors import ConsistencyError, admit, integer
from .gf3r import _word

# The K table costs about q*r + q operations and delta(m) about (2r + m) q,
# one or two radix-3 transforms; this default admits them, and the weight
# prefix, for every field with a shipped modulus (r <= 8).
DEFAULT_OPS_LIMIT = 5_000_000


def _kloosterman_table(ctx, ops_limit: int = DEFAULT_OPS_LIMIT):
    """K(a) for every a, as an integer array indexed by a (K(0) = -1).

    With y = 1/x, K(a) = sum_{y != 0} omega^{tr(1/y)} omega^{tr(a y)}, so one
    character sum of y -> omega^{tr(1/y)} (0 at y = 0) gives K(a) for every
    a at once; its parts are built in the field's index dtype, and the sum
    runs in the word character_sums picks from their L1 bound, at most
    q max|A| + q max|B| = 2 q.  The table is checked to have
    sum_{a != 0} K(a) = 1 and sum_{a != 0} K(a)^2 = q^2 - q - 1, the
    squares formed in int64, and K(1), K(2) equal to their Hasse-Davenport
    lifts from GF(3) (_lifted), the one check that does not come from the
    transform itself.
    It is admitted at about q*r + q operations, then kept on ctx together
    with its value histogram over the nonzero squares; the limit is checked
    before the kept table is read.
    """
    q = ctx.q
    admit("K table over GF(%d) by one radix-3 transform (q*r + q)" % q,
          q * ctx.r + q, ops_limit)
    if ctx._k_table is not None:
        return ctx._k_table
    # t = tr(1/y), digit 0 of s(1/y) (1/g^k = g^-k), and
    # omega^t = A + B omega: (1, 0), (0, 1), (-1, -1) for t = 0, 1, 2
    t = ctx._functional[ctx._np_exp[-ctx._np_log]] % 3
    a_part, b_part = np.array([[1, 0, -1], [0, 1, -1]], dtype=ctx._dtype)[:, t]
    del t
    a_part[0] = b_part[0] = 0
    k = ctx.character_sums(a_part, b_part)
    histogram = _value_histogram(q, k[ctx._np_exp[::2]], (q - 1) // 2)
    total, squares = int(k[1:].sum()), int(np.square(k[1:], dtype=np.int64).sum())
    if (total, squares) != (1, q * q - q - 1):
        raise ConsistencyError(
            "Kloosterman table over GF(%d) has sum %d and square sum %d over a != 0, "
            "expected 1 and %d" % (q, total, squares, q * q - q - 1)
        )
    _check_lift(ctx, "K", k, (-1, 2))
    ctx._k_table, ctx._k_histogram = k, histogram
    return k


def _lifted(r: int, k1: int) -> int:
    """K_r(a) for a in the prime field, from K_1(a) = k1 by the Hasse-Davenport
    relation: with alpha + beta = -k1 and alpha beta = 3, K_r(a) = -p_r for
    the power sums p_j = alpha^j + beta^j, which p_0 = 2, p_1 = -k1 and
    p_j = -k1 p_{j-1} - 3 p_{j-2} give in integers (O(r) steps).  Over GF(3),
    K_1(1) = -1 and K_1(2) = 2."""
    before, power = 2, -k1
    for _ in range(r - 1):
        before, power = power, -k1 * power - 3 * before
    return -power


def _check_lift(ctx, name: str, sums, base: tuple) -> None:
    """Raise unless sums[1], sums[2] equal the lifts of base, their values
    over GF(3)."""
    found = (int(sums[1]), int(sums[2]))
    lifted = tuple(_lifted(ctx.r, k1) for k1 in base)
    if found != lifted:
        raise ConsistencyError("%s(1), %s(2) over GF(%d) are %d, %d; the Hasse-Davenport lift "
                               "gives %d, %d" % ((name, name, ctx.q) + found + lifted))


def _value_count(q: int) -> int:
    """The number of values _value_histogram admits over GF(q): the
    k = -1 mod 3 with k^2 <= 4q, floor((B+1)/3) + floor((B+2)/3) of them,
    B = isqrt(4q)."""
    bound = math.isqrt(4 * q)
    return (bound + 1) // 3 + (bound + 2) // 3


def _value_histogram(q: int, sums, expected: int):
    """The distinct values k of an array of Kloosterman sums with their
    multiplicities, as a tuple of (k, mult) pairs of Python ints, ascending:
    K on the nonzero squares, or f(a) = K(a^2) on the nonzero a.

    Every K(a) is n_0 - n_2 with n_0 + 2 n_2 = q - 1 (n_e the number of
    x != 0 with tr(x + a/x) = e, and n_1 = n_2 since K is real), so
    K(a) = -1 mod 3; with the Weil bound k^2 <= 4q, K takes at most
    _value_count(q) values.  Both are asserted, as is the total, expected.
    Past the Weil check the sums are cast to int64, which holds them
    whatever integer type the character sum carried, and binned.
    """
    bound = math.isqrt(4 * q)
    worst = max(int(sums.max()), -int(sums.min()))
    if worst > bound:
        raise ConsistencyError("|K| = %d over GF(%d) breaks the Weil bound |K| <= 2 sqrt(q)"
                               % (worst, q))
    # one bin per value in [-bound, bound]: a bincount, not a sort, and the
    # residue checked on the distinct values alone
    counts = np.bincount(sums.astype(np.int64, copy=False) + bound)
    bins = np.flatnonzero(counts)
    values = bins - bound
    off = values[values % 3 != 2]
    if off.size:
        raise ConsistencyError("K = %d over GF(%d) is not -1 mod 3" % (off[0], q))
    pairs = tuple(zip(values.tolist(), counts[bins].tolist()))
    if sums.size != expected:
        raise ConsistencyError("Kloosterman values over GF(%d) cover %d arguments, expected %d"
                               % (q, sums.size, expected))
    return pairs


def kloosterman_histogram(ctx, *, ops_limit: int = DEFAULT_OPS_LIMIT):
    """The value histogram of K over the nonzero squares: ascending pairs
    (k, number of nonzero squares a with K(a) = k)."""
    _kloosterman_table(ctx, ops_limit)
    return ctx._k_histogram


def kloosterman(ctx, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> int:
    """Exact Kloosterman sum K(a) = sum_{x != 0} omega^{tr(x + a x^{-1})},
    read off the K table."""
    a = integer(a, 1, "Kloosterman argument must be a nonzero element", ctx.q - 1)
    return int(_kloosterman_table(ctx, ops_limit)[a])


def _power_words(ctx, h: int) -> int:
    """64-bit words of the largest power |k|^h of a value k of K, from the
    Weil bound |k| <= 2 sqrt(q): h bits(isqrt(4q)) // 64 + 1.  The direct
    moments price their products with it and never scan the histogram."""
    return h * math.isqrt(4 * ctx.q).bit_length() // 64 + 1


def sk_moment(ctx, h: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> int:
    """Direct h-th power moment of the Kloosterman sums over the nonzero
    squares, sum_k mult(k) k^h over the value histogram of K.  After the K
    table, the powers are admitted at values * W * bits(h) operations, the
    square-and-multiply steps of each k ** h on integers of
    W = _power_words(ctx, h) words; SK^0 = (q - 1)/2 is read off q alone."""
    h = integer(h, 0, "moment order must be nonnegative")
    if h == 0:
        return (ctx.q - 1) // 2
    histogram = kloosterman_histogram(ctx, ops_limit=ops_limit)
    words = _power_words(ctx, h)
    admit("direct moment h=%d over %d values of K (values * bits(h) square-and-multiply steps "
          "on integers of W = %d words)" % (h, len(histogram), words),
          len(histogram) * words * h.bit_length(), ops_limit)
    return sum(m * k ** h for k, m in histogram)


def sk_moments(ctx, h_max: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> list:
    """[SK^0, ..., SK^h_max], the direct moments of sk_moment for every h at
    once: one running product mult(k) k^h per value k of K's histogram,
    multiplied by k at each h.  After the K table, the products are admitted
    at h_max * values * W operations, W = _power_words(ctx, h_max)."""
    h_max = integer(h_max, 0, "moment order must be nonnegative")
    values, terms = zip(*kloosterman_histogram(ctx, ops_limit=ops_limit))
    words = _power_words(ctx, h_max)
    admit("direct moments up to h=%d over %d values of K (h * values products on integers "
          "of W = %d words)" % (h_max, len(values), words), h_max * len(values) * words, ops_limit)
    moments = [sum(terms)]
    for _ in range(h_max):
        terms = list(map(operator.mul, terms, values))
        moments.append(sum(terms))
    return moments


def _delta_one(ctx):
    """Root counts of x^2 - beta*x + 1 for every beta (x + 1/x by digit
    addition), cross-checked against 1 + chi(beta - 1) chi(beta + 1), which
    is returned: the same counts in the field's index dtype, not int64."""
    q = ctx.q
    x = ctx._np_exp  # x = g^k, 1/x = g^-k
    d1 = np.bincount(ctx._add_vec(x, x[-np.arange(q - 1, dtype=ctx._dtype)]), minlength=q)
    expect = 1 + ctx._chi_sq_minus_one()
    bad = np.flatnonzero(d1 != expect)
    if bad.size:
        beta = int(bad[0])
        raise ConsistencyError(
            "delta(1, %d; %d) root count %d disagrees with the square-class "
            "value %d" % (q, beta, d1[beta], expect[beta])
        )
    return expect


def _delta_one_sums(ctx):
    """f(a) = sum_beta delta(1; beta) omega^{tr(a beta)} for every a, an
    array indexed by a: f(0) = q - 1 and f(a) = K(a^2) at a != 0.  Every call
    runs the transform and checks f on the nonzero a with _value_histogram
    (total q - 1, Weil bound, -1 mod 3) and f(1) = f(2) = K(1) against the
    Hasse-Davenport lift (_lifted, no K table read), then keeps that
    histogram on ctx."""
    f = ctx.character_sums(_delta_one(ctx))
    histogram = _value_histogram(ctx.q, f[1:], ctx.q - 1)
    _check_lift(ctx, "f", f, (-1, -1))  # f(2) = K(4) = K(1)
    ctx._f_histogram = histogram
    return f


def _delta_one_histogram(ctx):
    """The value histogram of f on the nonzero a, ascending (k, mult) pairs:
    the kept one, or that of a first _delta_one_sums on ctx."""
    if ctx._f_histogram is None:
        _delta_one_sums(ctx)
    return ctx._f_histogram


def _delta_table(ctx, m: int, ops_limit: int):
    """delta(m, q; beta) for every beta, as an integer array indexed by beta,
    in the word its second character sum ran in.

    delta(m) is the m-fold additive convolution of delta(1), so with f from
    _delta_one_sums (checked there) the character sum of f^m is
    g(t) = q delta(m; -t) = q delta(m; t) (delta(m) is even, as
    x -> -x maps its equation to itself); g is asserted divisible by q and
    the table to total (q - 1)^m.  About (2r + m) q operations for every
    m >= 0.  |f| <= q - 1, so f^m is carried in gf3r._word((q - 1)^m);
    the second sum picks its word from twice the L1 norm of f^m (its exact
    sum for an even m, q (q - 1)^m for an odd one, whose f^m has negative
    entries), by the rule derived in character_sums, and g // q keeps it.
    """
    m = integer(m, 0, "m must be nonnegative")
    q = ctx.q
    admit("delta(%d, %d) by two radix-3 transforms ((2r + m) q)" % (m, q),
          (2 * ctx.r + m) * q, ops_limit)
    f = _delta_one_sums(ctx).astype(_word((q - 1) ** m), copy=False)
    f **= m  # in place: f itself is not read again
    g = ctx.character_sums(f)
    if np.count_nonzero(g % q):
        raise ConsistencyError(
            "delta(%d, %d): the second character sum is not q times an integer table" % (m, q)
        )
    table = g // q
    if int(table.sum()) != (q - 1) ** m:
        raise ConsistencyError(
            "delta(%d, %d) table totals %d, expected %d" % (m, q, table.sum(), (q - 1) ** m)
        )
    return table


def delta_count(ctx, m: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> tuple:
    """delta(m, q; beta) for every beta, as a tuple of Python ints indexed by
    beta: the public boundary of the table, which stays an array (_delta_table)
    for the readers inside the package."""
    return tuple(_delta_table(ctx, m, ops_limit).tolist())
