"""Exact arithmetic in the finite fields GF(3^r).

Field elements are canonical integer indices in [0, q), q = 3^r: the index
encodes the coefficient vector of the residue polynomial in base 3, so 0 is
the additive identity and 1 the multiplicative identity.  A FieldContext
verifies its modulus irreducible by Rabin's test and builds each table once,
as a numpy array and nowhere else, for every r with a modulus, shipped
(r <= 8) or given.  Every q-sized table holds indices in one machine word,
_word(2(q - 1)), and is built in it; no array holds the digits of every
index.  _word is the one rule that picks an integer word in the package.
Indices add digit by digit through one table of the sums of half-width
indices (below 3^h, h = ceil(r/2)): a + b is two gathers, one for the high
halves and one for the low.  A GF(3)-linear index map, v -> v @ M for an
r x r digit matrix M, is the sum of the images of the low half and of the
high half, 3^h values each, in one broadcast addition.  Two such maps build
the tables: beta -> g beta for the least generator g (g^((q-1)/p) != 1 for
the primes p dividing q - 1, tested on the matrices of multiplication, 16
candidates at a time, one set of squarings for every p), whose powers by
composition give the chain 1, g, g^2, ... and so log/antilog, and
a -> s(a), the map through the Hankel matrix tr(x^(i+k)) that reads the
character sums, whose digit 0 is the trace.  The field keeps four tables
(exp, log, the half-width sums and s) and reads everything else off them
where it is used: the trace is s mod 3; negation is x + x (characteristic
3), the diagonal of the half-width table; 1/g^k = g^-k is one gather
through exp and log; the squares are the even powers of g, so chi is the
parity of the log, and the least nonsquare the least odd power.  The scalar methods read
those arrays and return Python ints and bools; addition is an O(r) digit
loop.  Adding +-1 moves only digit 0 of an index, so
chi(beta^2 - 1) = chi(beta - 1) chi(beta + 1) comes from two index
shifts.  `FieldContext.character_sums` is the one exact additive
character sum, a -> sum_beta f(beta) omega^{tr(a beta)} for every a,
asserted real, run by charsums alone, in the word _word picks from twice
the L1 norm of its input (derived in its docstring); the context also
keeps what charsums memoises on it (the Kloosterman table with its value
histogram on the squares, and that of f = K(a^2), which
codes.weight_prefix reads), so it lives and dies with it.
"""

import json

import numpy as np

from .errors import ConsistencyError, DomainError, FieldConstructionError

# Shipped irreducible moduli, coefficient lists low degree first (monic).
# Smallest monic irreducible of each degree in the canonical base-3 index
# order; irreducibility is re-checked at construction.
DEFAULT_MODULI = {
    1: (0, 1),                      # x
    2: (1, 0, 1),                   # x^2 + 1
    3: (1, 2, 0, 1),                # x^3 + 2x + 1
    4: (2, 1, 0, 0, 1),             # x^4 + x + 2
    5: (1, 2, 0, 0, 0, 1),          # x^5 + 2x + 1
    6: (2, 1, 0, 0, 0, 0, 1),       # x^6 + x + 2
    7: (2, 0, 1, 0, 0, 0, 0, 1),    # x^7 + x^2 + 2
    8: (2, 0, 1, 0, 0, 0, 0, 0, 1), # x^8 + x^2 + 2
}

# (a + b) mod 3 for digits a, b: the seed of the half-width addition table
# and the shift of digit 0 by +-1
_DIGIT_SUM = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int8)


def format_poly(coeffs) -> str:
    """Render a coefficient list (low degree first) as a readable polynomial."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i] % 3
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else "x^%d" % i
            terms.append(var if c == 1 else "%d%s" % (c, var))
    return " + ".join(terms) if terms else "0"


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


def _prime_factors(n):
    """The distinct primes dividing n >= 1, by trial division up to sqrt(n)."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _is_irreducible(m) -> bool:
    """Rabin's test: a monic m of degree r >= 1 is irreducible over GF(3)
    exactly when x^(3^r) = x mod m and gcd(x^(3^(r/p)) - x, m) = 1 for every
    prime p dividing r.  Cubing is GF(3)-linear, (sum c_i x^i)^3 =
    sum c_i x^(3i): each x^(3^k) mod m is the last one spread out, reduced."""
    r = len(m) - 1
    frob = [_poly_mod([0, 1], m)]  # x^(3^k) mod m for k = 0, 1, ..., r
    for _ in range(r):
        spread = [0] * (3 * len(frob[-1]))
        spread[::3] = frob[-1]
        frob.append(_poly_mod(spread, m))
    if frob[r] != frob[0]:
        return False
    for p in _prime_factors(r):  # here r >= 2, so x mod m = x
        a = list(m)
        b = _poly_trim([(c - (i == 1)) % 3 for i, c in enumerate(frob[r // p] + [0, 0])])
        while b:
            a, b = b, _poly_mod(a, b)
        if len(a) > 1:
            return False
    return True


def _word(bound):
    """The integer word of an array whose entries stay below bound in
    modulus: int32 below 2^31, int64 below 2^63, Python ints (object) past
    that.  Every word in the package is chosen here, from a bound derived
    where it is called."""
    return np.int32 if bound < 2 ** 31 else np.int64 if bound < 2 ** 63 else object


def _l1_bound(part) -> int:
    """A bound on sum|x| over an integer array: the sum itself for a part
    with no negative entry, summed in chunks whose int64 sums cannot wrap
    (an object part sums in Python ints), and size * max|x| otherwise."""
    top, low = int(part.max()), int(part.min())
    if low < 0:
        return part.size * max(top, -low)
    if part.dtype == object or top * part.size < 2 ** 63:
        return int(part.sum())
    step = (2 ** 63 - 1) // top
    return sum(int(part[i:i + step].sum()) for i in range(0, part.size, step))


class FieldContext:
    """The field GF(3^r) with a fixed irreducible modulus.

    Elements are plain ints in [0, q); all methods take and return such
    indices.  The constructor checks the modulus monic, of degree r and
    irreducible; :func:`field_create` is the same constructor by name.
    """

    def __init__(self, r: int, modulus=None):
        if r < 1:
            raise FieldConstructionError("field exponent r must be >= 1, got %r" % (r,))
        if modulus is None:
            if r not in DEFAULT_MODULI:
                raise FieldConstructionError(
                    "no shipped default modulus for r=%d (defaults cover r <= %d); "
                    "pass one explicitly" % (r, max(DEFAULT_MODULI))
                )
            modulus = DEFAULT_MODULI[r]
        modulus = tuple(int(c) % 3 for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise FieldConstructionError(
                "modulus must be monic of degree %d over GF(3), got %s"
                % (r, format_poly(modulus))
            )
        if not _is_irreducible(modulus):
            raise FieldConstructionError(
                "modulus %s is reducible over GF(3)" % format_poly(modulus)
            )
        self.r = r
        self.q = 3 ** r
        self.modulus = modulus
        self._build_tables()
        self._k_table = None  # charsums._kloosterman_table
        self._k_histogram = None  # its value histogram over the squares
        self._f_histogram = None  # charsums._delta_one_sums: that of f = K(a^2), a != 0

    # -- construction internals -------------------------------------------

    def _build_tables(self):
        q, r = self.q, self.r
        # the word of every index table holds a sum of two logs, below 2(q - 1)
        dt = self._dtype = _word(2 * (q - 1))
        pow3 = 3 ** np.arange(r)
        # a + b digit by digit: an index is hi 3^h + lo with lo < 3^h, h = ceil(r/2),
        # and the halves add through one (3^h, 3^h) table, built a digit at a
        # time (row 3a + d, column 3b + e holds 3 T[a, b] + (d + e) mod 3)
        h = (r + 1) // 2
        half = self._half = 3 ** h
        table = np.zeros((1, 1), dtype=np.min_scalar_type(half - 1))
        while table.shape[0] < half:
            n = 3 * table.shape[0]
            table = (3 * table[:, None, :, None] + _DIGIT_SUM[:, None, :]).astype(table.dtype).reshape(n, n)
        self._add_half = table.ravel()

        # y -> x y is GF(3)-linear on digit vectors: digits(x y) = digits(y) @ M_x,
        # row i of M_x the digits of x X^i, so M_x = sum_i x_i C^i with C the
        # companion matrix of the modulus
        companion = np.zeros((r, r), dtype=np.int64)
        companion[np.arange(r - 1), np.arange(1, r)] = 1
        companion[r - 1] = (-np.array(self.modulus[:r])) % 3
        eye = np.eye(r, dtype=np.int64)
        powers = [eye]
        for _ in range(2 * r - 2):  # C^j for j < 2r - 1; M_x reads j < r
            powers.append((powers[-1] @ companion) % 3)
        powers = np.array(powers)

        def mul_matrix(x):  # M_x, or a stack of them for an array x
            return np.tensordot(np.asarray(x)[..., None] // pow3 % 3, powers[:r], 1) % 3

        # the digits of every v below 3^h, low digit first (np.indices starts at the top)
        low = np.indices((3,) * h).reshape(h, -1)[::-1].T

        def spans(mat):
            """The indices of v @ mat for every v below 3^h (the low half of
            an index), and of v 3^h @ mat for every v below 3^(r-h)."""
            return (low @ mat[:h] % 3 @ pow3,
                    low[:q // half, :r - h] @ mat[h:] % 3 @ pow3)

        # the least generator g: g^((q-1)/p) != 1 for every prime p dividing
        # q - 1, tested by square-and-multiply on a block of 16 candidates'
        # matrices, one set of squarings shared by every exponent
        exps = [(q - 1) // p for p in _prime_factors(q - 1)]
        g = None
        for start in range(2, q, 16):  # candidates in blocks, least first
            cands = np.arange(start, min(start + 16, q))
            mats, outs = mul_matrix(cands), [eye] * len(exps)
            for bit in range(max(exps).bit_length()):
                outs = [(out @ mats) % 3 if e >> bit & 1 else out for out, e in zip(outs, exps)]
                mats = (mats @ mats) % 3
            ok = ~np.any([(out == eye).all(axis=(1, 2)) for out in outs], axis=0)
            if ok.any():
                g = int(cands[ok][0])
                break
        if g is None:  # pragma: no cover
            raise FieldConstructionError("no multiplicative generator found")
        # the chain 1, g, g^2, ... in doubling blocks: step maps beta to
        # g^n beta, the index map of M_g composed with itself while another
        # block is still to come
        np_exp = self._np_exp = np.empty(q - 1, dtype=dt)
        lo, hi = spans(mul_matrix(g))
        np_exp[0], n, step = 1, 1, self._add_vec(hi[:, None], lo).ravel()
        while n < q - 1:
            if n > 1:
                step = step[step]
            k = min(n, q - 1 - n)
            np_exp[n:n + k] = step[np_exp[:k]]
            n += k
        del step
        logs = np.arange(q - 1, dtype=dt)
        np_log = self._np_log = np.zeros(q, dtype=dt)
        np_log[np_exp] = logs
        # q - 1 nonzero indices, distinct exactly when each reads back its own log
        if not np_exp.all() or np.any(np_log[np_exp] != logs):  # pragma: no cover
            raise FieldConstructionError("multiplicative structure broken")
        del logs
        # the nonsquares are the odd powers of the generator
        self.epsilon = int(np_exp[1::2].min())

        # the index map a -> s(a), s(a)_k = tr(a x^k), that reads the character
        # sums (tr(a beta) = s(a) . beta) is a -> a @ H, H_ik = tr(x^(i+k)) the
        # trace of C^(i+k); its digit 0, s(a) mod 3, is tr(a)
        tr = np.trace(powers, axis1=1, axis2=2) % 3
        hankel = tr[np.add.outer(np.arange(r), np.arange(r))]
        lo, hi = spans(hankel)
        self._functional = self._add_vec(hi[:, None], lo).ravel()

    # -- arithmetic --------------------------------------------------------

    def _check(self, x):
        if not (isinstance(x, (int, np.integer)) and 0 <= x < self.q):
            raise DomainError("element index %r out of range for GF(%d)" % (x, self.q))

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        x, y, z = int(x), int(y), 0
        p = 1
        while x or y:
            z += ((x % 3) + (y % 3)) % 3 * p
            x //= 3
            y //= 3
            p *= 3
        return z

    def neg(self, x: int) -> int:
        return self.add(x, x)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        if x == 0 or y == 0:
            return 0
        return int(self._np_exp[(self._np_log[x] + self._np_log[y]) % (self.q - 1)])

    def inv(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise DomainError("0 has no multiplicative inverse in GF(%d)" % self.q)
        return int(self._np_exp[-self._np_log[x]])

    def pow(self, x: int, e: int) -> int:
        self._check(x)
        if x == 0:
            if e < 0:
                raise DomainError("negative power of 0")
            return int(e == 0)
        return int(self._np_exp[int(self._np_log[x]) * e % (self.q - 1)])

    def trace(self, x: int) -> int:
        """Field trace down to GF(3), returned as an element of {0, 1, 2}:
        digit 0 of s(x)."""
        self._check(x)
        return int(self._functional[x] % 3)

    def squares(self):
        """The (q-1)/2 nonzero squares, the even powers of g, ascending."""
        return tuple(np.sort(self._np_exp[::2]).tolist())

    def is_square(self, x: int) -> bool:
        """True for a nonzero x of even log."""
        self._check(x)
        return bool(x) and not self._np_log[x] % 2

    # -- vectorized internals (element-index numpy arrays) ------------------

    def _mul_vec(self, xs, ys):
        """xs * ys elementwise, broadcasting (either may be a scalar); the log
        table's entry at 0 is overwritten where a factor is 0 (the index
        product could wrap to 0 in a machine word)."""
        out = self._np_exp[(self._np_log[xs] + self._np_log[ys]) % (self.q - 1)]
        out[(xs == 0) | (ys == 0)] = 0
        return out

    def _add_vec(self, xs, ys):
        """xs + ys elementwise, broadcasting: the high halves and the low
        halves of the indices (below 3^h) through the addition table."""
        half = self._half
        xh, yh = xs // half, ys // half
        out = np.multiply(self._add_half[xh * half + yh], half, dtype=self._dtype)
        out += self._add_half[(xs - xh * half) * half + (ys - yh * half)]
        return out

    def _shifted(self, c):
        """beta + c for every beta, c = 1 or 2 (= -1): only digit 0 moves, so
        beta = 3t + d goes to column _DIGIT_SUM[c, d] of its row t."""
        return np.arange(self.q, dtype=self._dtype).reshape(-1, 3)[:, _DIGIT_SUM[c]].ravel()

    def _sq_minus_one(self):
        """beta^2 - 1 = (beta - 1)(beta + 1) for every beta."""
        return self._mul_vec(self._shifted(2), self._shifted(1))

    def _chi_sq_minus_one(self):
        """chi(beta^2 - 1) = chi(beta - 1) chi(beta + 1) for every beta: 0
        where beta = +-1, 1 where beta^2 - 1 is a nonzero square and -1 where
        it is a nonsquare."""
        chi = np.where(self._np_log % 2, self._dtype(-1), self._dtype(1))
        chi[0] = 0
        return chi[self._shifted(2)] * chi[self._shifted(1)]

    def character_sums(self, a_part, b_part=None):
        """R(a) = sum_beta f(beta) omega^{tr(a beta)} for every a, as one
        integer array indexed by a, for f = A + B omega given as integer
        arrays indexed by beta (B = 0 if omitted).  Every such sum here is
        real; a nonzero omega part raises ConsistencyError.

        The radix-3 Fourier transform over (Z/3)^r gives
        F(s) = sum_beta f(beta) omega^{s . beta} exactly in the form
        A + B omega (omega^2 = -1 - omega), and R(a) = F(s(a)).  After k
        stages each entry is a character sum of f over a coset of 3^k betas,
        so its modulus is at most sum |f| over that coset, and
        |f| <= |A| + |B|.  A stage forms every value, stored or passing, as
        a signed sum of at most four coordinates of three entries
        x_0, x_1, x_2 of the stage before, which lie over disjoint cosets.
        Since |a + b omega|^2 = a^2 - ab + b^2 is at least (a + b)^2 / 4 and
        at least 3 (a - b)^2 / 4, |a| + |b| <= 2 |a + b omega|, and each
        value is at most 2 (|x_0| + |x_1| + |x_2|) <= 2 L in modulus, with
        L = sum|A| + sum|B| the L1 norm (at most L in the first stage, which
        reads A and B themselves).  The transform therefore runs in
        _word(2 L): int32 while 2 L < 2^31, int64 while 2 L < 2^63, and
        Python ints past that, with L bounded part by part by _l1_bound.
        The stages write by turns into two preallocated (A, B) pairs, never
        into the caller's arrays.
        """
        q = self.q
        parts = (a_part,) if b_part is None else (a_part, b_part)
        dtype = _word(2 * sum(_l1_bound(p) for p in parts))
        pairs = np.empty((2, 2, q), dtype)
        if b_part is None:  # B = 0 in the pair the second stage writes
            pairs[1, 1] = 0
            b_part = pairs[1, 1]
        # no copy where the dtype matches: the caller's arrays are only read
        src = a_part.astype(dtype, copy=False), b_part.astype(dtype, copy=False)
        for stage in range(self.r):
            # the top digit's three thirds in, that digit out last: after r
            # stages every digit is back in place
            a0, a1, a2 = src[0].reshape(3, q // 3)
            b0, b1, b2 = src[1].reshape(3, q // 3)
            src = pairs[stage % 2]
            (y0, y1, y2), (z0, z1, z2) = src.reshape(2, q // 3, 3).transpose(0, 2, 1)
            # y_s + z_s omega = x_0 + omega^s x_1 + omega^{2s} x_2, with
            # omega (A + B omega) = -B + (A - B) omega
            np.add(a0, a1, out=y0)
            y0 += a2
            np.add(b0, b1, out=z0)
            z0 += b2
            np.subtract(a0, a2, out=y1)
            y1 -= b1
            y1 += b2
            np.add(b0, a1, out=z1)
            z1 -= b1
            z1 -= a2
            np.subtract(a0, a1, out=y2)
            y2 += b1
            y2 -= b2
            np.subtract(b0, a1, out=z2)
            z2 += a2
            z2 -= b2
        if np.count_nonzero(src[1]):
            raise ConsistencyError("a character sum over GF(%d) is not real" % q)
        return src[0][self._functional]

    def __repr__(self):
        return "FieldContext(q=%d, modulus=%s)" % (self.q, format_poly(self.modulus))


def field_create(r: int, modulus=None) -> FieldContext:
    """Build GF(3^r), verifying the (given or default) modulus irreducible."""
    return FieldContext(r, modulus)


def load_modulus_config(path) -> dict:
    """Read a modulus table mapping r -> coefficient list (low degree first).

    Accepts JSON ({"2": [1, 0, 1], ...}) or plain text lines of the form
    "r: c0 c1 ... cr" (colon optional, "#" starts a comment).  An entry that
    is not an integer r with integer coefficients, or that names an r a second
    time, raises DomainError naming the file and the entry; undecodable bytes
    read as U+FFFD and so fail there too.  FieldContext then checks the degree
    and irreducibility.
    """
    with open(path, errors="replace") as fh:
        text = fh.read()
    try:  # a JSON object as its (key, value) pairs, a repeated key kept
        data = json.loads(text, object_pairs_hook=tuple)
    except ValueError:
        data = None
    if isinstance(data, tuple):
        entries = [("entry %r" % (k,), k, v) for k, v in data]
    else:
        entries = []
        for num, line in enumerate(text.splitlines(), 1):
            fields = line.split("#", 1)[0].replace(":", " ").split()
            if fields:
                entries.append(("line %d %r" % (num, line[:80]), fields[0], fields[1:]))
    out = {}
    for label, r, coeffs in entries:
        try:
            # through str, so a JSON 1.5 or true is refused, not truncated
            r, coeffs = int(str(r)), tuple(int(str(c)) for c in coeffs)
        except (TypeError, ValueError):
            raise DomainError("%s, %s: expected r followed by integer coefficients"
                              % (path, label)) from None
        if r in out:
            raise DomainError("%s, %s: a second modulus for r=%d" % (path, label, r))
        out[r] = coeffs
    return out
