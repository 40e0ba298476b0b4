"""Slow, independent reference computations used only by the tests.

`weight_prefix_dp` is the generating-polynomial dynamic program that the
library used before the MacWilliams transform replaced it; it costs
O(q^2 j^3) big-integer steps and is kept as an oracle for small fields.
`pair_counts` reads C_1 and C_2 off the trace histogram by counting
coordinate pairs, as `pair_scan` does on the trace vector itself.
`delta_convolution` and `kloosterman_per_a` are the O(q^2) loops that the
library's delta and K tables used before the radix-3 transform replaced them;
neither reads a library character sum.  `hasse_davenport_lift` carries a
K value from a subfield GF(3^d) up to GF(3^(d m)).  `digit_add` is the O(r)
digit loop that `FieldContext.add` ran before it read the half-width
addition table; the oracles that add field elements call it, not the
library's table.
`field_tables_reference` is the Python-list construction of a field's tables
that `FieldContext` used before it built them with numpy, and
`is_irreducible_trial` decides irreducibility by trial division, which the
field build's refusal of a reducible modulus must match.  The polynomial
arithmetic under them (`_poly_mod`, `_poly_trim`, `_poly_mul`) is the
oracles' own: the library has none.  `mat_det` and `mat_trace` are the
scalar, one-field-operation-at-a-time references for `ogroups._dets` and the traces
that `enumerate_group` reads off the diagonals of its index array.
`delta_form_pinned` holds the three (c, z, d) triples that
`ogroups.delta_form` kept as a table before it read them off the group
character sum, each with its derivation.
`pless_inner_literal` is the double sum of binomial coefficients, each
term formed from math.comb, that `moments._pless_inner` forms by one
running term per weight count.
`macwilliams_product_prefix` is the O(j^2)-per-weight MacWilliams product
that `codes.weight_prefix` formed before its three-term rows, on dual weights
read off the K table, and `sk_chain_difference_table` the recursion chain as
`moments.sk_recursive_chain` formed it before the affine Pless step: the
power moments scaled per h, then the inverse binomial transform in b.

The rest are brute-force counterparts of the pipeline that the library never
calls: character sums counted in `OmegaSum`, the literal sums b_r, K_GL and
the group character sums, the defining relation, and the group codes word by
word (`CodeSpec`, with the full 3^N and pair scans of the weight prefix).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from kloostercodes import ConsistencyError, DomainError, GroupId, enumerate_group
from kloostercodes.charsums import DEFAULT_OPS_LIMIT, kloosterman_histogram
from kloostercodes.codes import dual_weights
from kloostercodes.errors import admit
from kloostercodes.gauss import _odd_power_product
from kloostercodes.moments import _pless_sums
from kloostercodes.ogroups import delta_form, group_order, j_form


@dataclass(frozen=True)
class OmegaSum:
    """n0 + n1*omega + n2*omega^2 with integer coefficients."""

    n0: int = 0
    n1: int = 0
    n2: int = 0

    def reduce(self):
        """Canonical form A + B*omega."""
        return (self.n0 - self.n2, self.n1 - self.n2)

    def value(self) -> int:
        """The integer value; valid only for real sums."""
        a, b = self.reduce()
        if b != 0:
            raise ConsistencyError(
                "character sum %r is not real (reduced to %d + %d*omega)" % (self, a, b)
            )
        return a

    def __add__(self, other):
        return OmegaSum(self.n0 + other.n0, self.n1 + other.n1, self.n2 + other.n2)


def trinomial(c: int, a: int, b: int) -> int:
    """Trinomial coefficient c!/(a! b! (c-a-b)!), with the convention that
    it vanishes whenever a + b > c.

    Valid for arbitrarily large c (the group-class sizes run to q^5 and
    beyond); only O(a + b) multiplications are performed.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("trinomial arguments must be nonnegative")
    if a + b > c:
        return 0
    return math.comb(c, a) * math.comb(c - a, b)


def pless_inner_literal(prefix: tuple, n: int, top: int) -> list:
    """[D_0, ..., D_top], D_t = sum_{j<=t} (-1)^j C_j 2^{t-j} C(n-j, t-j),
    summed term by term for a code of length n >= top."""
    return [sum((-1) ** j * prefix[j] * 2 ** (t - j) * math.comb(n - j, t - j)
                for j in range(t + 1)) for t in range(top + 1)]


def macwilliams_product_prefix(gid: GroupId, ctx, j_max: int) -> tuple:
    """(C_0, ..., C_j_max) by the MacWilliams identity
    C_j = q^{-1} sum_w mult(w) [x^j] (1 + 2x)^{N - w} (1 - x)^w, each
    product of the two binomial rows formed term by term in O(top^2),
    top = min(j_max, N).  The dual weights are w(a) = dual_weights(K(a^2)),
    read off the K table (a -> a^2 is two to one), not off delta(1)."""
    q, n = ctx.q, group_order(gid, ctx.q)
    top = min(j_max, n)
    values, mults = zip(*kloosterman_histogram(ctx))
    mult = [(0, 1)] + [(w, 2 * m) for w, m in zip(dual_weights(gid, q, values), mults)]
    sums = [0] * (top + 1)
    for w, m in mult:
        signs = [(-1) ** k * math.comb(w, k) for k in range(top + 1)]
        for i in range(top + 1):
            c = m * 2 ** i * math.comb(n - w, i)
            for k in range(top + 1 - i):
                sums[i + k] += c * signs[k]
    if any(s % q for s in sums) or sums[0] != q:
        raise ConsistencyError("MacWilliams sums %r are not q=%d times counts with C_0 = 1" % (sums, q))
    return tuple(s // q for s in sums) + (0,) * (j_max - top)


def sk_chain_difference_table(ctx, gid: GroupId, h_max: int, prefix: tuple) -> list:
    """[SK^0, SK^e, ..., SK^{e h_max}], e = gid.n, from the power moments
    P_h = sum_a w(a)^h of the weight prefix: X_h = 3^h P_h / (2^{h+1} s^h)
    (X_0 = (q - 1)/2), each division asserted exact, then
    SK^{eh} = sum_j C(h, j) (-b)^{h-j} X_j as the difference table
    X_i -= b X_{i-1}, with s = -d and b = (N - z)/s from the delta form."""
    q, n = ctx.q, group_order(gid, ctx.q)
    _, z, d = delta_form(gid, q)
    s = -d
    b, rem = divmod(n - z, s)
    if rem:
        raise ConsistencyError("weight offset %d/%d is not an integer" % (n - z, s))
    pless = _pless_sums(prefix, n, ctx.r, h_max)
    chain = [(q - 1) // 2]
    for h in range(1, h_max + 1):
        x, rem = divmod(3 ** h * pless[h], 2 ** (h + 1) * s ** h)
        if rem:
            raise ConsistencyError("X_%d = 3^h P_h / (2^(h+1) s^h) is not an integer" % h)
        chain.append(x)
    for k in range(1, h_max + 1):
        for i in range(h_max, k - 1, -1):
            chain[i] -= b * chain[i - 1]
    return chain


def kloosterman_per_a(ctx, points=None) -> list:
    """[K(a) for a in points], by default [K(1), ..., K(q - 1)], one O(q)
    count of exponents per a.

    K(a) = c_0 + c_1 omega + c_2 omega^2 with c_e the number of x != 0 with
    tr(x) + tr(a/x) = e mod 3; each sum is asserted real (c_1 = c_2), so
    K(a) = c_0 - c_2.  The trace is s mod 3: no addition, no transform.
    """
    q = ctx.q
    nz = np.arange(1, q)
    trace = ctx._functional % 3
    tr_x, inv_x = trace[nz], ctx._np_exp[-ctx._np_log[nz]]
    out = []
    for a in range(1, q) if points is None else points:
        e = (tr_x + trace[ctx._mul_vec(a, inv_x)]) % 3
        c0, c1, c2 = np.bincount(e, minlength=3).tolist()
        if c1 != c2:
            raise ConsistencyError("K(%d) over GF(%d) is not real: %d != %d" % (a, q, c1, c2))
        out.append(c0 - c2)
    return out


def hasse_davenport_lift(k: int, d: int, m: int) -> int:
    """K(a) over GF(3^(d m)) for a in its subfield GF(3^d), from k = K(a)
    over GF(3^d): with alpha + beta = s = -k and alpha beta = 3^d, the lift
    is -p_m for the power sums p_j = alpha^j + beta^j, p_0 = 2, p_1 = s and
    p_j = s p_{j-1} - 3^d p_{j-2}."""
    before, power = 2, -k
    for _ in range(m - 1):
        before, power = power, -k * power - 3 ** d * before
    return -power


def delta_convolution(ctx, m: int) -> list:
    """delta(m, q; beta) for every beta, by m additive convolutions of
    delta(1) in Python ints, starting from the point mass at 0."""
    q = ctx.q
    add = [[digit_add(x, y) for y in range(q)] for x in range(q)]
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


def weight_prefix_dp(hist, ctx, j_max: int) -> tuple:
    """(C_0, ..., C_j_max), the codeword counts of weight <= j_max, from the
    trace histogram alone.

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
            [digit_add(s, beta) for s in range(q)],
            [digit_add(s, digit_add(beta, beta)) for s in range(q)],
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
    return counts


def pair_counts(hist, ctx):
    """(C_0, C_1, C_2) from the histogram: a weight-1 word puts 1 or 2 on a
    trace-zero coordinate; a weight-2 word puts (1, 2) or (2, 1) on two
    coordinates of equal trace, or (1, 1) or (2, 2) on two of opposite
    trace."""
    n = hist.counts
    same = sum(c * (c - 1) // 2 for c in n)
    opposite = n[0] * (n[0] - 1) // 2 + sum(n[b] * n[ctx.neg(b)] for b in range(1, ctx.q)) // 2
    return (1, 2 * n[0], 2 * same + 2 * opposite)


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mod(a, m):
    """a mod m over GF(3), m's nonzero leading coefficient its own inverse."""
    a = _poly_trim(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1] * m[-1]
        shift = len(a) - 1 - dm
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % 3
        a = _poly_trim(a)
    return a


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 3
    return _poly_trim(out)


def digit_add(x: int, y: int) -> int:
    """x + y in GF(3^r) on element indices, digit by digit mod 3."""
    z, p = 0, 1
    while x or y:
        z += (x % 3 + y % 3) % 3 * p
        x //= 3
        y //= 3
        p *= 3
    return z


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


def is_irreducible_trial(m) -> bool:
    """Whether the monic m of degree >= 1 is irreducible over GF(3), by trial
    division by every monic polynomial of degree <= deg(m)/2."""
    r = len(m) - 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(3), repeat=d):
            if not _poly_mod(list(m), list(tail) + [1]):
                return False
    return True


def field_tables_reference(ctx) -> dict:
    """Every table `FieldContext` keeps, as arrays under their attribute
    names, and the lists its scalar methods inv, neg, squares, is_square and
    trace read off them, under the method names (inv[0] = 0), by Python-list
    loops.

    Reads only the modulus of ctx, adds by `digit_add`, and multiplies
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
            t = digit_add(t, z)
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
        "trace": trace.tolist(),
        "epsilon": next(x for x in range(1, q) if not is_square[x]),
        "_np_exp": np.array(exp, dtype=np.int64),
        "_np_log": np.array(log, dtype=np.int64),
        "_functional": sum(trace[mul_vec(3 ** k, idx)].astype(np.int64) * 3 ** k
                           for k in range(r)),
        "inv": inv,
        "neg": ((-digits.astype(np.int64) % 3) @ pow3).tolist(),
        "squares": squares,
        "is_square": is_square,
    }


# -- gauss: literal sums for the closed forms ------------------------------

def b_r_closed(r: int, q: int):
    """Character sum over nonsingular symmetric r x r matrices paired with
    r x 2 blocks against diag(1, -eps); independent of which nontrivial
    character is used.  r = 0 gives the empty product 1."""
    if r < 0:
        raise DomainError("r must be nonnegative")
    if r == 0:
        return 1
    if r % 2 == 0:
        return q ** (r * (r + 6) // 4) * _odd_power_product(q, r // 2)
    return -(q ** ((r * r + 4 * r - 1) // 4)) * _odd_power_product(q, (r + 1) // 2)


def _symmetric_nonsingular(ctx, r: int):
    """All nonsingular symmetric r x r matrices, as row-major tuples."""
    out = []
    pos = [(i, j) for i in range(r) for j in range(i, r)]
    for vals in itertools.product(range(ctx.q), repeat=len(pos)):
        m = [[0] * r for _ in range(r)]
        for (i, j), v in zip(pos, vals):
            m[i][j] = v
            m[j][i] = v
        flat = tuple(x for row in m for x in row)
        if mat_det(ctx, flat, r) != 0:
            out.append(flat)
    return out


def b_r_bruteforce(ctx, r: int, a: int = 1) -> int:
    """Literal double sum defining b_r, with psi(x) = omega^{tr(ax)}.
    Exponential in r; intended for r <= 2."""
    if r < 1 or r > 3:
        raise DomainError("brute-force b_r supported for 1 <= r <= 3")
    if a == 0:
        raise DomainError("psi must be nontrivial (a != 0)")
    eps = ctx.epsilon
    acc = [0, 0, 0]
    for bmat in _symmetric_nonsingular(ctx, r):
        rows = [bmat[i * r:(i + 1) * r] for i in range(r)]
        for h in itertools.product(range(ctx.q), repeat=2 * r):
            hcols = [h[0::2], h[1::2]]  # two columns, each of length r
            # Tr(diag(1, -eps) h^T B h) = (h^T B h)_00 - eps (h^T B h)_11
            vals = []
            for c in range(2):
                s = 0
                for i in range(r):
                    for j in range(r):
                        s = ctx.add(s, ctx.mul(hcols[c][i], ctx.mul(rows[i][j], hcols[c][j])))
                vals.append(s)
            arg = ctx.sub(vals[0], ctx.mul(eps, vals[1]))
            acc[ctx.trace(ctx.mul(a, arg))] += 1
    return OmegaSum(*acc).value()


def kloosterman_gl_bruteforce(ctx, t: int, a: int) -> int:
    """sum over w in GL(t, q) of omega^{tr(Tr w + a Tr w^{-1})}; t <= 2."""
    if not 0 < a < ctx.q:
        raise DomainError("argument a must be a nonzero element")
    if t == 0:
        return 1
    acc = [0, 0, 0]
    if t == 1:
        for w in range(1, ctx.q):
            acc[(ctx.trace(w) + ctx.trace(ctx.mul(a, ctx.inv(w)))) % 3] += 1
        return OmegaSum(*acc).value()
    if t != 2:
        raise DomainError("brute-force GL sum supported for t <= 2")
    for m in itertools.product(range(ctx.q), repeat=4):
        det = ctx.sub(ctx.mul(m[0], m[3]), ctx.mul(m[1], m[2]))
        if det == 0:
            continue
        tr_w = ctx.add(m[0], m[3])
        tr_inv = ctx.mul(ctx.inv(det), tr_w)  # adjugate: Tr w^{-1} = Tr w / det
        acc[(ctx.trace(tr_w) + ctx.trace(ctx.mul(a, tr_inv))) % 3] += 1
    return OmegaSum(*acc).value()


def gauss_sum_enumerated(ctx, gid: GroupId, a: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> int:
    """The group character sum evaluated from the enumerated trace histogram,
    sum_beta n(beta) omega^{tr(a beta)}."""
    if not 0 < a < ctx.q:
        raise DomainError("character scaling a must be a nonzero element")
    hist = enumerate_group(ctx, gid, ops_limit=ops_limit).histogram
    acc = [0, 0, 0]
    for beta, count in enumerate(hist.counts):
        if count:
            acc[ctx.trace(ctx.mul(a, beta))] += count
    return OmegaSum(*acc).value()


def delta_form_pinned(gid: GroupId, q: int) -> tuple:
    """(c, z, d) of each code's trace histogram
    n(beta) = c + z [beta = 0] + d delta(n; beta), written down by hand from
    the structure of each group, not read off the group character sum:

    - SO-(2,q) = 2 - delta(1).  Its elements (a, eps b; b, a) with
      a^2 - eps b^2 = 1 have trace beta = 2a, so a^2 = beta^2, and
      eps b^2 = beta^2 - 1 has 1 - chi(beta^2 - 1) = 2 - delta(1; beta) roots
      b, as chi(eps) = -1: 1 element where beta^2 = 1, 2 where beta^2 - 1 is
      a nonsquare, none where it is a nonzero square.
    - O-(2,q) adds the reflection coset diag(1, -1) SO-(2,q), whose q + 1
      elements (a, eps b; -b, -a) all have trace 0.
    - SO-(4,q) = q^2 (q^3 + q^2 + q - 3 - delta(2)) - q^2 (q^3 - q) [beta = 0].
      Its character sum at a != 0 is q^3 - q^5 - q^2 K(a^2)^2, the explicit
      Gauss sum for SO-(4,q) (D. S. Kim, Gauss sums for O-(2n,q), Acta Arith.
      78 (1997)), which fixes z and d, and the total
      c q + z + d (q - 1)^2 = |SO-(4,q)| = q^6 - q^2 fixes c.
    """
    return {GroupId.SO2: (2, 0, -1), GroupId.O2: (2, q + 1, -1),
            GroupId.SO4: (q ** 5 + q ** 4 + q ** 3 - 3 * q * q, q ** 3 - q ** 5, -q * q)}[gid]


# -- ogroups: traces, determinants and the defining relation, scalar -------

def mat_trace(ctx, a, dim: int) -> int:
    t = 0
    for i in range(dim):
        t = ctx.add(t, a[i * dim + i])
    return t


def mat_det(ctx, a, dim: int) -> int:
    """Cofactor expansion along the first row, one field operation at a time."""
    if dim == 1:
        return a[0]
    rows = [list(a[i * dim:(i + 1) * dim]) for i in range(dim)]

    def det(r):
        n = len(r)
        if n == 1:
            return r[0][0]
        total = 0
        for c in range(n):
            if r[0][c] == 0:
                continue
            minor = [row[:c] + row[c + 1:] for row in r[1:]]
            term = ctx.mul(r[0][c], det(minor))
            total = ctx.add(total, term) if c % 2 == 0 else ctx.sub(total, term)
        return total

    return det(rows)


def mat_mul(ctx, a, b, dim: int):
    out = []
    for i in range(dim):
        for j in range(dim):
            s = 0
            for k in range(dim):
                s = ctx.add(s, ctx.mul(a[i * dim + k], b[k * dim + j]))
            out.append(s)
    return tuple(out)


def mat_transpose(a, dim: int):
    return tuple(a[j * dim + i] for i in range(dim) for j in range(dim))


def delta_eps(ctx):
    """diag(1, -eps), the 2x2 block of the defining form."""
    return (1, 0, 0, ctx.neg(ctx.epsilon))


def satisfies_relation(ctx, w, n: int) -> bool:
    """Whether transpose(w) . J . w == J."""
    dim = 2 * n
    j = j_form(ctx, n)
    return mat_mul(ctx, mat_mul(ctx, mat_transpose(w, dim), j, dim), w, dim) == j


# -- codes: the group codes word by word ------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    """A concrete code instance: the group, its field, and the trace vector
    fixing the coordinate order."""

    group: GroupId
    ctx: object
    trace_vector: tuple

    @property
    def length(self) -> int:
        return len(self.trace_vector)


def build_code_spec(ctx, gid: GroupId, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> CodeSpec:
    enum = enumerate_group(ctx, gid, ops_limit=ops_limit)
    dim = 2 * gid.n
    traces = tuple(mat_trace(ctx, w, dim) for w in enum.elements)
    return CodeSpec(gid, ctx, traces)


def dual_codeword(spec: CodeSpec, a: int):
    """The dual word (tr(a t_1), ..., tr(a t_N)); a = 0 gives the zero word."""
    ctx = spec.ctx
    if not 0 <= a < ctx.q:
        raise DomainError("a must be an element index, got %r" % (a,))
    return tuple(ctx.trace(ctx.mul(a, t)) for t in spec.trace_vector)


def codeword_weight(spec: CodeSpec, a: int) -> int:
    """Weight of the dual word of a != 0, counted from the word itself."""
    if not 0 < a < spec.ctx.q:
        raise DomainError("a must be a nonzero element")
    return sum(1 for c in dual_codeword(spec, a) if c)


def full_scan(spec: CodeSpec, j_max: int, *, ops_limit: int = DEFAULT_OPS_LIMIT) -> tuple:
    """Codeword counts of weight <= j_max by scanning all 3^N words u for
    u . (tr(a t_i))_i = 0 against the basis a = 3^k; admitted at 3^N."""
    admit("brute-force weights up to j=%d (a 3^%d scan; the pair scan covers j <= 2)"
          % (j_max, spec.length), 3 ** spec.length, ops_limit)
    ctx = spec.ctx
    n = spec.length
    vd = (np.array(spec.trace_vector)[:, None] // 3 ** np.arange(ctx.r)) % 3  # (n, r) digits
    totals = np.zeros(n + 1, dtype=np.int64)
    chunk_digits = min(n, 9)
    tail = 3 ** chunk_digits
    pow3 = 3 ** np.arange(n)
    tail_idx = np.arange(tail)
    for head in range(3 ** (n - chunk_digits)):
        idx = head * tail + tail_idx
        u = (idx[:, None] // pow3[None, :]) % 3  # (tail, n), digits of u
        dots = (u @ vd) % 3
        mask = ~dots.any(axis=1)
        weights = np.count_nonzero(u[mask], axis=1)
        totals += np.bincount(weights, minlength=n + 1)
    upto = min(j_max, n)
    return tuple(int(t) for t in totals[: upto + 1]) + (0,) * (j_max - upto)


def pair_scan(spec: CodeSpec, j_max: int) -> tuple:
    """C_0, C_1, C_2 (j_max <= 2) by comparing the trace vector's coordinates
    pairwise, for codes far too long to scan."""
    ctx = spec.ctx
    v = np.array(spec.trace_vector)
    neg = np.array([ctx.neg(int(x)) for x in spec.trace_vector])
    counts = [1]
    if j_max >= 1:
        counts.append(2 * int(np.count_nonzero(v == 0)))
    if j_max >= 2:
        same = np.triu(v[None, :] == v[:, None], 1).sum()
        negated = np.triu(v[None, :] == neg[:, None], 1).sum()
        counts.append(2 * int(same) + 2 * int(negated))
    return tuple(counts)
