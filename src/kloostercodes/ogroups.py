"""The minus-type orthogonal groups SO-(2,q), O-(2,q), SO-(4,q) over GF(3^r).

Provides enumeration (small q) with trace histograms, and the exact
closed-form histograms valid for every q, each three integers over the delta
basis read off the group character sum (delta_form).  The closed form keeps
the delta table a machine-word array until the counts are formed, and forms one
Python int per distinct delta value: equal counts share one int, so SO-(4,q)'s
histogram holds 30 count objects at r = 8, not q = 6561.  Each builder returns
one (k, dim^2) array of element indices: SO-(2,q) through the log tables,
O-(2,q) as SO-(2,q) and its reflection coset, SO-(4,q) by a column search
over the Gram table of the form; elements leave as flat row-major tuples.
The defining form uses the block diag(1, -eps) with eps the fixed nonsquare
chosen by the field context, and the canonical element order is ascending
row-major entry tuples, which pins the coordinate order of the associated
codes.
"""

import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import charsums
from .errors import ConsistencyError, DomainError, admit
from .gauss import gauss_sum_of_k


class GroupId(enum.Enum):
    """A group, named by variant and matrix size 2n: "so4" is SO-(4,q), with
    variant "so" ("o" for O-(2n,q)) and n = 2.  Every per-group fact reads
    these two properties."""

    SO2 = "so2"
    O2 = "o2"
    SO4 = "so4"

    @property
    def variant(self) -> str:
        return self.value.rstrip("0123456789")

    @property
    def n(self) -> int:
        return int(self.value[len(self.variant):]) // 2


def so_minus_order(n: int, q: int) -> int:
    """|SO-(2n, q)|."""
    out = q ** (n * n - n) * (q ** n + 1)
    for j in range(1, n):
        out *= q ** (2 * j) - 1
    return out


def o_minus_order(n: int, q: int) -> int:
    """|O-(2n, q)| = 2 |SO-(2n, q)|."""
    return 2 * so_minus_order(n, q)


def group_order(gid: GroupId, q: int) -> int:
    """|SO-(2n,q)| or |O-(2n,q)|; every per-group entry point asks this
    first, so it alone refuses what is not a GroupId."""
    if not isinstance(gid, GroupId):
        raise DomainError("unknown group %r" % (gid,))
    return (2 if gid.variant == "o" else 1) * so_minus_order(gid.n, q)


@dataclass(frozen=True)
class TraceHistogram:
    """beta -> number of group elements of matrix trace beta.  counts is a
    tuple indexed by beta; from histogram_closed_form, equal counts are one
    shared int."""

    counts: tuple

    def __getitem__(self, beta: int) -> int:
        return self.counts[beta]

    @functools.cached_property  # not a field: == and hash still read counts alone
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict:
        return {b: c for b, c in enumerate(self.counts) if c}


# -- the defining form and the group builders -------------------------------

def j_form(ctx, n: int):
    """The defining 2n x 2n symmetric form, flat row-major."""
    dim = 2 * n
    m = [0] * (dim * dim)
    for i in range(n - 1):
        m[i * dim + (n - 1 + i)] = 1
        m[(n - 1 + i) * dim + i] = 1
    m[(dim - 2) * dim + (dim - 2)] = 1
    m[(dim - 1) * dim + (dim - 1)] = ctx.neg(ctx.epsilon)
    return tuple(m)


def _so2_elements(ctx):
    """The q + 1 matrices (a, eps b; b, a) with a^2 - eps b^2 = 1.

    For each a, b^2 = (a^2 - 1)/eps has the root b = 0 when a^2 = 1, the two
    roots +-g^(l/2) when (a^2 - 1)/eps = g^l with l even, and none otherwise;
    the log tables find them for every a at once."""
    q, eps = ctx.q, ctx.epsilon
    a = np.arange(q)
    rhs = ctx._mul_vec(ctx.inv(eps), ctx._sq_minus_one())
    zero = rhs == 0
    rooted = ~zero & (ctx._np_log[rhs] % 2 == 0)
    root = ctx._np_exp[ctx._np_log[rhs[rooted]] // 2]
    a_col = np.concatenate([a[zero], a[rooted], a[rooted]])
    b_col = np.concatenate([np.zeros(np.count_nonzero(zero), dtype=np.int64),
                            root, ctx._add_vec(root, root)])
    return np.stack([a_col, ctx._mul_vec(eps, b_col), b_col, a_col], axis=1)


def _o2_elements(ctx):
    """SO-(2,q) and its left coset by diag(1, -1), which negates the bottom row."""
    so2 = _so2_elements(ctx)
    coset = so2.copy()
    coset[:, 2:] = ctx._add_vec(so2[:, 2:], so2[:, 2:])
    return np.concatenate([so2, coset])


def _dets(ctx, mats):
    """Determinants of a (k, n, n) stack of index matrices: the Leibniz sum
    over the n! permutations, each term one product down the whole stack."""
    n = mats.shape[-1]
    total = 0
    for perm in itertools.permutations(range(n)):
        term = mats[:, 0, perm[0]]
        for i in range(1, n):
            term = ctx._mul_vec(term, mats[:, i, perm[i]])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = ctx._add_vec(total, ctx._add_vec(term, term) if odd else term)
    return total


def _so4_elements(ctx):
    """SO-(4,q) by a column search.  transpose(w) J w = J says exactly that
    the columns of w satisfy B(c_i, c_j) = J_ij, B(u, v) = transpose(u) J v.
    With the Gram table of B over all q^4 vectors (4 q^8), the frames
    (c_0, ..., c_l) are extended one column at a time by one boolean filter
    of q^4 candidates each; every level has at most |O-(4,q)| frames, and
    the last holds exactly O-(4,q), of which the determinant-1 half is kept.
    """
    q = ctx.q
    jm = np.array(j_form(ctx, 2)).reshape(4, 4)
    idx = np.arange(q ** 4)
    vecs = np.stack([idx // q ** 3, idx // q ** 2 % q, idx // q % q, idx % q], axis=1)
    gram = 0
    for i, j in zip(*np.nonzero(jm)):
        term = ctx._mul_vec(ctx._mul_vec(jm[i, j], vecs[:, None, i]), vecs[None, :, j])
        gram = ctx._add_vec(gram, term)
    frames = np.zeros((1, 0), dtype=np.int64)
    for col in range(4):  # B(c_col, c_col) = J_col,col, B(c_i, c_col) = J_i,col for i < col
        ok = (gram.diagonal() == jm[col, col]) & (gram[frames] == jm[:col, col, None]).all(axis=1)
        f, v = np.nonzero(ok)
        frames = np.concatenate([frames[f], v[:, None]], axis=1)
    mats = vecs[frames]  # (k, column, coordinate): the transposes of the elements
    return mats[_dets(ctx, mats) == 1].transpose(0, 2, 1).reshape(-1, 16)


@dataclass(frozen=True)
class GroupEnumeration:
    group: GroupId
    elements: tuple
    histogram: TraceHistogram


def enumerate_group(ctx, gid: GroupId, *,
                    ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> GroupEnumeration:
    """All elements of the group in canonical (ascending row-major) order,
    with their trace histogram.  SO-(2, q) and O-(2, q) solve for b at every
    a through the log tables; SO-(4, q) is found by a column search admitted
    at 4 q^8 + 3 |O-(4,q)| q^4 operations (the Gram table and three candidate
    masks), which the default limit allows at q = 3 only.  Each builder
    returns one (k, dim^2) array of indices, sorted, counted and traced here."""
    q = ctx.q
    expected = group_order(gid, q)
    if gid.n == 1:
        admit("enumerating %s(%d) (one digitwise pass over the q values of a, q*r + q; "
              "histogram_closed_form gives the histogram for every q)" % (gid.value, q),
              q * ctx.r + q, ops_limit)
    else:
        admit("enumerating SO-(4,%d) (a column search: the Gram table of the form "
              "and three candidate masks, 4 q^8 + 3 |O-(4,q)| q^4; "
              "histogram_closed_form gives the histogram for every q)" % q,
              4 * q ** 8 + 3 * o_minus_order(2, q) * q ** 4, ops_limit)
    builders = {GroupId.SO2: _so2_elements, GroupId.O2: _o2_elements, GroupId.SO4: _so4_elements}
    rows = builders[gid](ctx)
    rows = rows[np.lexsort(rows.T[::-1])]
    distinct = np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1
    if not len(rows) == distinct == expected:
        raise ConsistencyError(
            "enumerated %d elements (%d distinct) of %s over GF(%d), expected %d"
            % (len(rows), distinct, gid.value, q, expected)
        )
    trace = functools.reduce(ctx._add_vec, rows[:, ::2 * gid.n + 1].T)
    counts = np.bincount(trace, minlength=q).tolist()
    return GroupEnumeration(gid, tuple(map(tuple, rows.tolist())),
                            TraceHistogram(tuple(counts)))


def delta_form(gid: GroupId, q: int) -> tuple:
    """(c, z, d) with n(beta) = c + z [beta = 0] + d delta(gid.n; beta), the
    code's trace histogram, read off its only source, G = gauss_sum_of_k.
    At a != 0 the form sums to z + d K(a^2)^n (delta(n) to f^n, f(a) = K(a^2)
    the character sum of delta(1)), so z = G(0), d = G(1) - G(0), and G must
    equal z + d k^n at k = 0..n (a G with other terms is refused); the total
    c q + z + d (q - 1)^n = |G| gives c, asserted exact.  Three things check
    G: the triples pinned in tests/oracles.py, the enumerations at n <= 2,
    and verify's direct side, which reads the K table and never G."""
    order = group_order(gid, q)
    g = [gauss_sum_of_k(q, gid.n, gid.variant, k) for k in range(gid.n + 1)]
    z, d = g[0], g[1] - g[0]
    for k, gk in enumerate(g):
        if z + d * k ** gid.n != gk:
            raise ConsistencyError("delta form of %s over GF(%d) sums to %d at K = %d, "
                                   "gauss_sum_of_k to %d" % (gid.value, q, z + d * k ** gid.n, k, gk))
    c, rem = divmod(order - z - d * (q - 1) ** gid.n, q)
    if rem:
        raise ConsistencyError("delta form of %s over GF(%d): |G| - z - d (q - 1)^%d is not a "
                               "multiple of q" % (gid.value, q, gid.n))
    return c, z, d


def histogram_closed_form(ctx, gid: GroupId, *, ops_limit: int = charsums.DEFAULT_OPS_LIMIT) -> TraceHistogram:
    """Exact trace histogram for any q, no enumeration involved: delta_form
    over the delta(n) table, delta(1) = 1 + chi(beta^2 - 1) in the field's
    index dtype or delta(2) from charsums._delta_table in the word its sum
    ran in (gf3r._word).  This is the one reader that bins the table: it
    bins a machine-word table as it is and casts one of Python ints to
    int64 first, which holds every entry (each is at most the checked total
    (q - 1)^2).  The table is grouped by value, and each distinct value v
    gives one Python int c + d v (past 2^63 from r = 8 on), placed by
    reference through a gather, so equal counts share one int.  The gathered
    counts are checked to total |G|: at n = 1 that tests the delta(1)
    table's total, at n = 2 (whose table total _delta_table asserts) the
    grouping and the gather."""
    q = ctx.q
    expected = group_order(gid, q)
    c, z, d = delta_form(gid, q)
    table = 1 + ctx._chi_sq_minus_one() if gid.n == 1 else charsums._delta_table(ctx, gid.n, ops_limit)
    if table.dtype == object:  # np.bincount reads machine words only
        table = table.astype(np.int64)
    # beta = 0 carries z and stands apart (delta(2; 0) is about 2q); the other
    # values lie within about 2 sqrt(q) of q, so their bins span that, not q
    head, rest = int(table[0]), table[1:]
    low = int(rest.min())
    rest -= low
    mult = np.bincount(rest)
    offsets = np.flatnonzero(mult)
    count_of = np.empty(mult.size, dtype=object)
    count_of[offsets] = [c + d * v for v in (offsets + low).tolist()]
    counts = count_of[rest].tolist()
    counts.insert(0, c + d * head + z)
    total = sum(counts)
    if total != expected:
        raise ConsistencyError("closed-form histogram for %s over GF(%d) totals %d, expected %d"
                               % (gid.value, q, total, expected))
    return TraceHistogram(tuple(counts))
