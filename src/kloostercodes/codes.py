"""Ternary linear codes attached to the orthogonal groups.

The code of a group is the set of GF(3)-vectors orthogonal to the vector of
matrix traces of the group elements in canonical order; its dual consists of
the q words a -> (tr(a Tr g_1), ..., tr(a Tr g_N)) by Delsarte duality.
The dual word of a has weight w(a) = 2(N - G(a))/3, N = |G| and G(a) the
group character sum, and ogroups.delta_form reads G off as z + d k^n in
k = K(a^2) (z = G(0), d = G(1) - G(0)).  dual_weights is the one place that
forms w, for every code and every caller: the weight prefix here and the
Pless check in moments (whose recursion reads its constants off the same
form).
Truncated weight distributions (C_0, ..., C_j_max) are computed exactly from
the code's delta form, no histogram built: the value histogram of f, the
character sum of delta(1), which charsums computes, checks and keeps on the
field context, gives every dual weight of every code, and the MacWilliams
identity turns the few distinct dual weights into the low weight counts,
one three-term recurrence row per dual weight, priced once before any work
at the most dual weights the Weil bound allows.  They remain available when
the group is far too large to enumerate, and nothing here reads a
Kloosterman sum except the closed weight formula.
This module holds no per-group constant.  The codes word by word (dual
words, counted weights, full and pair scans) are test oracles in
tests/oracles.py.
"""

from .charsums import DEFAULT_OPS_LIMIT, _delta_one_histogram, _value_count, kloosterman
from .errors import ConsistencyError, admit, integer
from .ogroups import GroupId, delta_form, group_order


def dual_weights(gid: GroupId, q: int, values) -> list:
    """[w(k) for k in values], w(k) = 2 (N - z - d k^n)/3 the weight of every
    dual word of a with K(a^2) = k, N = |G| and (c, z, d) the code's delta
    form, read once per call; each division by 3 is asserted exact."""
    n = group_order(gid, q)
    _, z, d = delta_form(gid, q)
    weights = []
    for k in values:
        w, rem = divmod(2 * (n - z - d * k ** gid.n), 3)
        if rem:
            raise ConsistencyError("dual weight 2(N - G)/3 of %s at K = %d is not an integer"
                                   % (gid.value, k))
        weights.append(w)
    return weights


def codeword_weight_formula(ctx, gid: GroupId, a: int) -> int:
    """Hamming weight of the dual word via its Kloosterman sum K(a^2), by
    dual_weights.  Needs no enumeration."""
    group_order(gid, ctx.q)
    a = integer(a, 1, "a must be a nonzero element", ctx.q - 1)
    return dual_weights(gid, ctx.q, [kloosterman(ctx, ctx.mul(a, a))])[0]


def weight_prefix(gid: GroupId, ctx, j_max: int, *,
                  ops_limit: int = DEFAULT_OPS_LIMIT) -> tuple:
    """(C_0, ..., C_j_max), the codeword counts of weight <= j_max, from the
    code's delta form alone.

    The dual word of a has n_e coordinates t with tr(a t) = e; the character
    sum A(a) = n_0 + n_1 omega + n_2 omega^2 of the trace histogram is real,
    so n_1 = n_2 and w(a) = 2 (N - A(a))/3.  By the delta form
    c + z [beta = 0] + d delta(n; beta), A(0) = N and A(a) = z + d f(a)^n,
    f the character sum of delta(1): one transform per context, in the word
    gf3r._word picks for it, no K table.  charsums._delta_one_histogram
    gives its values (checked -1 mod 3, so each gives its own A) with their
    multiplicities, kept on ctx, and dual_weights forms each w in Python
    ints (N runs past 2^63) once per value.  The MacWilliams identity then
    gives C_j = q^{-1} sum_w [x^j] P_w,
    P_w = mult(w) (1 + 2x)^{N - w} (1 - x)^w, summed over the distinct dual
    weights w (a = 0 contributes w = 0).  As
    (1 + x - 2x^2) P_w' = ((2N - 3w) - 2N x) P_w and 2N - 3w = 2A, the
    coefficients of P_w are p_0 = mult(w) and
    p_{i+1} = ((2A - i) p_i - 2 (N - i + 1) p_{i-1}) / (i + 1), with 2A
    formed once per weight and each division asserted exact.  There are at
    most D(q) = 1 + charsums._value_count(q) dual weights, each row costs
    O(min(j_max, N)), and the work is admitted within ops_limit before the
    character sum at the upper bound q*r + D(q) (min(j_max, N) + 1)^2
    big-integer operations.
    """
    j_max = integer(j_max, 0, "j_max must be nonnegative")
    q, n = ctx.q, group_order(gid, ctx.q)
    top, weights = min(j_max, n), 1 + _value_count(q)
    admit("weight prefix over GF(%d) up to j=%d (q*r + %d possible dual weights * (j+1)^2)"
          % (q, top, weights), q * ctx.r + weights * (top + 1) ** 2, ops_limit)
    values, mults = zip(*_delta_one_histogram(ctx))
    sums = [0] * (top + 1)
    for w, m in zip([0] + dual_weights(gid, q, values), (1,) + mults):
        twice_a, prev, p = 2 * n - 3 * w, 0, m
        sums[0] += m
        for i in range(top):
            nxt, rem = divmod((twice_a - i) * p - 2 * (n - i + 1) * prev, i + 1)
            if rem:
                raise ConsistencyError("MacWilliams row at w = %d is non-integral at i=%d"
                                       % (w, i + 1))
            prev, p = p, nxt
            sums[i + 1] += p
    counts = []
    for j, s in enumerate(sums):
        if s % q:
            raise ConsistencyError(
                "MacWilliams sum %d for weight %d is not divisible by q=%d" % (s, j, q)
            )
        counts.append(s // q)
    if counts[0] != 1:
        raise ConsistencyError("weight-0 count must be 1, got %r" % (counts[0],))
    return tuple(counts) + (0,) * (j_max - top)
