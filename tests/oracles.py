"""Slow, independent reference computations used only by the tests.

`weight_prefix_dp` is the generating-polynomial dynamic program that the
library used before the MacWilliams transform replaced it; it costs
O(q^2 j^3) big-integer steps and is kept as an oracle for small fields.
`pair_counts` reads C_1 and C_2 off the trace histogram by counting
coordinate pairs, as the pair scan does on the trace vector itself.
`delta_convolution` and `kloosterman_per_a` are the O(q^2) loops that the
library's delta and K tables used before the radix-3 transform replaced them;
neither reads a library character sum.  `field_tables_reference` is the
Python-list construction of a field's tables that `FieldContext` used before
it built them with numpy.
"""

import math

import numpy as np

from kloostercodes import ConsistencyError, DomainError, trinomial
from kloostercodes.codes import WeightPrefix
from kloostercodes.gf3r import _poly_mod, _poly_trim


def kloosterman_per_a(ctx) -> list:
    """[K(1), ..., K(q - 1)], one O(q) count of exponents per a.

    K(a) = c_0 + c_1 omega + c_2 omega^2 with c_e the number of x != 0 with
    tr(x) + tr(a/x) = e mod 3; each sum is asserted real (c_1 = c_2), so
    K(a) = c_0 - c_2.
    """
    q = ctx.q
    nz = np.arange(1, q)
    tr_x = ctx._trace[nz]
    out = []
    for a in range(1, q):
        e = (tr_x + ctx._trace[ctx._mul_vec(a, ctx._np_inv[nz])]) % 3
        c0, c1, c2 = np.bincount(e, minlength=3).tolist()
        if c1 != c2:
            raise ConsistencyError("K(%d) over GF(%d) is not real: %d != %d" % (a, q, c1, c2))
        out.append(c0 - c2)
    return out


def delta_convolution(ctx, m: int) -> list:
    """delta(m, q; beta) for every beta, by m additive convolutions of
    delta(1) in Python ints, starting from the point mass at 0."""
    q = ctx.q
    add = [[ctx.add(x, y) for y in range(q)] for x in range(q)]
    d1 = [0] * q
    for x in range(1, q):
        d1[add[x][ctx.inv(x)]] += 1
    cur = [1] + [0] * (q - 1)
    for _ in range(m):
        nxt = [0] * q
        for g, w in enumerate(cur):
            if w:
                for y, dv in enumerate(d1):
                    if dv:
                        nxt[add[g][y]] += w * dv
        cur = nxt
    return cur


def weight_prefix_dp(hist, ctx, j_max: int) -> WeightPrefix:
    """Codeword counts of weight <= j_max from the trace histogram alone.

    A codeword assigns nu(beta) ones and mu(beta) twos to the coordinates of
    each trace class beta, subject to sum(nu) + sum(mu) = j and
    sum(nu(beta) beta) = sum(mu(beta) beta) in the field.  Each class of size
    n contributes the generating polynomial
    sum_{nu+mu<=n} trinomial(n; nu, mu) x^{nu+mu} z^{(nu-mu) beta}, and the
    product is truncated at x-degree j_max with z tracked over the additive
    group; the answer reads off the z = 0 state.
    """
    if j_max < 0:
        raise DomainError("j_max must be nonnegative")
    q = ctx.q
    dp = [[0] * q for _ in range(j_max + 1)]
    dp[0][0] = 1
    for beta in range(q):
        n = hist[beta]
        if n == 0:
            continue
        shift = [
            list(range(q)),
            [ctx.add(s, beta) for s in range(q)],
            [ctx.add(s, ctx.neg(beta)) for s in range(q)],
        ]
        tri = [
            [trinomial(n, nu, mu) for mu in range(j_max - nu + 1)]
            for nu in range(j_max + 1)
        ]
        new = [[0] * q for _ in range(j_max + 1)]
        for d in range(j_max + 1):
            row = dp[d]
            for s in range(q):
                c = row[s]
                if not c:
                    continue
                for nu in range(j_max - d + 1):
                    tri_nu = tri[nu]
                    for mu in range(j_max - d - nu + 1):
                        t = tri_nu[mu]
                        if t:
                            new[d + nu + mu][shift[(nu - mu) % 3][s]] += c * t
        dp = new
    counts = tuple(dp[j][0] for j in range(j_max + 1))
    if counts and counts[0] != 1:
        raise ConsistencyError("weight-0 count must be 1, got %r" % (counts[0],))
    return WeightPrefix(j_max, counts)


def pair_counts(hist, ctx):
    """(C_0, C_1, C_2) from the histogram: a weight-1 word puts 1 or 2 on a
    trace-zero coordinate; a weight-2 word puts (1, 2) or (2, 1) on two
    coordinates of equal trace, or (1, 1) or (2, 2) on two of opposite
    trace."""
    n = hist.counts
    same = sum(c * (c - 1) // 2 for c in n)
    opposite = n[0] * (n[0] - 1) // 2 + sum(n[b] * n[ctx.neg(b)] for b in range(1, ctx.q)) // 2
    return (1, 2 * n[0], 2 * same + 2 * opposite)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 3
    return _poly_trim(out)


def _raw_mul(modulus, x: int, y: int) -> int:
    """x y by polynomial arithmetic on the base-3 digits of the indices."""
    def to_poly(v):
        out = []
        while v:
            out.append(v % 3)
            v //= 3
        return out

    idx = 0
    for c in reversed(_poly_mod(_poly_mul(to_poly(x), to_poly(y)), modulus)):
        idx = idx * 3 + c
    return idx


def _raw_pow(modulus, x: int, e: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = _raw_mul(modulus, out, x)
        x = _raw_mul(modulus, x, x)
        e >>= 1
    return out


def field_tables_reference(ctx) -> dict:
    """Every table `FieldContext` builds, by Python-list loops.

    Reads only the modulus of ctx and its digit-loop `add`, and multiplies
    by polynomial arithmetic: the generator is the least g with
    g^((q-1)/p) != 1 for every prime p dividing q - 1, found among all
    p < q; the chain 1, g, g^2, ... grows in doubling blocks, multiplying by
    g^k through the digits of g^k x^i; the trace of each basis power x^i is
    the sum of its r conjugates.
    """
    q, r, modulus = ctx.q, ctx.r, ctx.modulus
    idx = np.arange(q)
    digits = np.zeros((q, r), dtype=np.int8)
    for i in range(r):
        digits[:, i] = (idx // 3 ** i) % 3
    pow3 = (3 ** np.arange(r)).astype(np.int64)

    primes = [p for p in range(2, q) if (q - 1) % p == 0
              and all(p % d for d in range(2, math.isqrt(p) + 1))]
    g = next(g for g in range(2, q)
             if all(_raw_pow(modulus, g, (q - 1) // p) != 1 for p in primes))
    chain, step = np.ones(1, dtype=np.int64), g
    while len(chain) < q - 1:
        mat = digits[[_raw_mul(modulus, step, 3 ** i) for i in range(r)]].astype(np.int64)
        chain = np.concatenate([chain, (digits[chain] @ mat) % 3 @ pow3])
        step = _raw_mul(modulus, step, step)
    exp = chain[:q - 1].tolist()
    assert len(set(exp)) == q - 1
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    inv = [0] * q
    for x in range(1, q):
        inv[x] = exp[(q - 1 - log[x]) % (q - 1)]

    basis_tr = []
    for i in range(r):
        t, z = 0, 3 ** i
        for _ in range(r):
            t = ctx.add(t, z)
            z = _raw_mul(modulus, _raw_mul(modulus, z, z), z)
        basis_tr.append(t)
    trace = ((digits.astype(np.int64) @ np.array(basis_tr, dtype=np.int64)) % 3).astype(np.int8)

    squares = sorted(exp[i] for i in range(0, q - 1, 2))
    is_square = [False] * q
    for s in squares:
        is_square[s] = True

    def mul_vec(a, arr):
        out = np.zeros_like(arr)
        nz = arr != 0
        out[nz] = np.array(exp)[(np.array(log)[arr[nz]] + log[a]) % (q - 1)]
        return out

    return {
        "_digits": digits,
        "_pow3": pow3,
        "_exp": exp,
        "_log": log,
        "_inv": inv,
        "_trace": trace,
        "_squares": tuple(squares),
        "_is_square": is_square,
        "epsilon": next(x for x in range(1, q) if not is_square[x]),
        "_np_exp": np.array(exp, dtype=np.int64),
        "_np_log": np.array(log, dtype=np.int64),
        "_np_inv": np.array(inv, dtype=np.int64),
        "_np_squares": np.array(squares, dtype=np.int64),
        "_np_neg": (-digits.astype(np.int64) % 3) @ pow3,
        "_functional": sum(trace[mul_vec(3 ** k, idx)].astype(np.int64) * 3 ** k
                           for k in range(r)),
    }
