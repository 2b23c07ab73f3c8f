"""Truncated power series over the integers or a residue ring Z/u.

A series here is an immutable coefficient tuple of fixed length, the
coefficients of q**0 through q**order; eta_quotient is what builds one.

Eta quotients apply a positive exponent r on (q^d; q^d) by sparse passes of
weighted shifted additions: r // 3 passes over the Jacobi support of
(q^d; q^d)**3 and r % 3 over the pentagonal support of (q^d; q^d).  One
pass function serves both rings; it multiplies once per weight magnitude,
writes its first pass where the input is a constant c*1, and can compute
only one residue class of its last pass.  Over Z/u its input is residues in
[0, u), so with P and N the sums of the positive and of the absolute
negative weights its values lie in [-(u-1)N, (u-1)P], and it runs in the
narrowest of int8, int16, int32 and int64 that holds u * max(P, N), else
in object arrays.  Every array is reduced mod u by reduce_mod, as
values - u * (values // u), which numpy computes with vector instructions:
in a pass the quotient is at least -N, so u times it stays inside the
bound; the axpy and the staircase reduce values of at least 0, so there u
times it lies between 0 and the value.

Over Z, modulo a composite, or modulo a prime power u above T, the sum of
the positive exponents, no conversion (below) takes a negative exponent -r
on (q^d; q^d), and it is r divisions by (q^d; q^d), each one staircase
(_staircase), by Durfee squares:

    1 / (q; q)_inf = sum_{k>=0} q^(k^2) / (q; q)_k^2

(Andrews, The Theory of Partitions, 1976, ch. 2; equation number to
confirm).  Proof: a partition whose largest square is k x k is that
square, the partition to its right, of at most k parts, and the one below
it, of parts at most k; each of these two is counted by 1 / (q; q)_k, the
first by conjugation.  With q^d for q the division forms
sum_k q^(dk^2) T_k, where T_0 is the input and
T_k = T_(k-1) / (1 - q^(dk))^2 is two cumulative sums down the columns of
a view with dk columns, so about sqrt(order/d) steps divide once; tspp's
counting kernel runs on the same staircase.  Everything is exact:
fixed-width integer or object numpy arrays and Python ints, no floating
point.

Over Z/u with u = p**alpha, an exponent r on (q^d; q^d) with
k = r // p >= alpha may be rewritten.  With z = (q^d; q^d)^p and
F = (q^pd; q^pd),

    (q^d; q^d)^r = (q^d; q^d)^(r % p) * sum_{j<alpha} e_j z^j F^(k-j)  (mod u),
    e_j = sum_{i=j}^{alpha-1} (-1)^(i-j) C(k, i) C(i, j).

Proof: (1 - x)^p = 1 - x^p (mod p), so y = z/F lies in 1 + p*Z[[q]] and
(y - 1)^i in p^i * Z[[q]]; so z^k = F^k (1 + (y - 1))^k is F^k times the
binomial sum over i < alpha, whose terms expand to the e_j z^j F^(k-j).
F^(k-alpha+1) joins the exponent on p*d, and the rest costs alpha - 1
Horner steps, each one multiply by z, one pass over the dilated F and one
axpy.  With P(x) = x // 3 + x % 3 passes for an exponent x, the rewrite is
taken where it makes fewer passes,
P(r % p) + (alpha - 1) * (P(p) + 1) + P(k - alpha + 1) < P(r), the last
term charging the exponent moved to p*d at level d's rate; otherwise, over
Z, or modulo a composite, the exponent is expanded by passes as it stands.

Over Z/u with u = p**alpha <= T, a negative exponent is converted instead:

    (q^d; q^d)^u = (q^pd; q^pd)^(u/p)  (mod u).

Proof: (q^d; q^d)^p = (q^pd; q^pd) (1 + p*X) for a series X, as above, and
(1 + p*X)^(p^(alpha-1)) = 1 (mod p**alpha), since each p-th power of
1 + p^j*Y is 1 + p^(j+1)*Y'.  So r < 0 on d becomes r + c*u >= 0 with
c = ceil(-r / u), and c*u/p is taken off the exponent on p*d, which the
same ascending loop meets later, converts in turn, and drops once p*d is
above the order.  Each conversion adds less than u, so the gate u <= T
takes it only where the positive exponents already cost about T/3 full
passes, and no division is left.  p is the least prime factor of u,
sought by arith.prime_power only up to T, since a rewrite needs p <= r and
a conversion u <= T; u itself is never factored.

eta_quotient can return one progression c(step*n + offset) of the
expansion, and it narrows to it by one rule in every ring.  At the start
and after each level, it takes g = gcd(step, every level still carrying an
exponent, negative ones included): the rest of the product is then a
series in q^g, so of the expansion so far only the class offset mod g is
read.  A level's last pass computes only that class (the start, and a
level that ends in a Horner axpy, take it as a view), and step, offset,
the order and the levels are divided by g.  So the divisions run on the
array the cuts leave, and the progression is read from their result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb, gcd
from typing import Mapping

import numpy as np

from .arith import divisors, is_int, prime_power, require_int


@dataclass(frozen=True)
class CoefficientRing:
    """Exact integers when modulus is None, else Z/modulus with canonical
    residues in [0, modulus); the modulus must be an int, not a bool."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None:
            require_int(self.modulus, "modulus", 2)

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"ZZ/{self.modulus}"


INTEGERS = CoefficientRing()


def residues_mod(modulus: int) -> CoefficientRing:
    return CoefficientRing(modulus)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients of a formal power series through q**order inclusive;
    every coefficient must be an int other than a bool."""

    ring: CoefficientRing
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("a truncated series carries at least the q^0 coefficient")
        # one pass over the types; is_int only runs when some type is not int
        bad = [] if set(map(type, coeffs)) == {int} else [c for c in coeffs if not is_int(c)]
        if bad:
            raise ValueError(f"every coefficient must be an integer, got {bad[0]!r}")
        u = self.ring.modulus
        if u is not None and (min(coeffs) < 0 or max(coeffs) >= u):
            coeffs = tuple(c % u for c in coeffs)
        if coeffs is not self.coeffs:
            object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"exponent {n} outside the known range 0..{self.order}")
        return self.coeffs[n]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries({self.ring!r}, order={self.order}, [{head}{tail}])"


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Exponent vector of an eta quotient: one integer per divisor of the level.

    The attached series is prod over divisors d of (q^d; q^d)_inf ** exponent.
    Exponents may be given as a mapping or as (divisor, exponent) pairs;
    divisors left out get exponent 0, and a divisor given twice or one that
    does not divide the level is rejected.  The level, every divisor and
    every exponent must be an int other than a bool; nothing is coerced.
    """

    level: int
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        require_int(self.level, "level", 1)
        raw = self.exponents
        given = {}
        for d, e in raw.items() if isinstance(raw, Mapping) else raw:
            if require_int(d, "divisor") in given:
                raise ValueError(f"divisor {d!r} is given twice")
            given[d] = require_int(e, "exponent")
        divs = divisors(self.level)
        bad = sorted(set(given) - set(divs))
        if bad:
            raise ValueError(
                f"exponent keys {bad} do not divide the level {self.level}"
            )
        full = tuple((d, given.get(d, 0)) for d in divs)
        object.__setattr__(self, "exponents", full)

    def nonzero(self) -> list[tuple[int, int]]:
        return [(d, e) for d, e in self.exponents if e]

    def exponent_sum(self) -> int:
        return sum(e for _, e in self.exponents)

    def weighted_exponent_sum(self) -> int:
        return sum(d * e for d, e in self.exponents)


def pentagonal_terms(delta: int, order: int) -> list[tuple[int, int]]:
    """Sparse support of prod_{n>=1}(1 - q^(delta*n)) truncated at order.

    Returns (exponent, sign) pairs in ascending exponent order; the exponents
    are delta times the generalized pentagonal numbers k(3k+-1)/2 and the
    signs are (-1)**k.
    """
    require_int(delta, "delta", 1)
    require_int(order, "order", 0)
    terms = [(0, 1)]
    k = 1
    while delta * k * (3 * k - 1) // 2 <= order:
        sign = -1 if k & 1 else 1
        terms.append((delta * k * (3 * k - 1) // 2, sign))
        e2 = delta * k * (3 * k + 1) // 2
        if e2 <= order:
            terms.append((e2, sign))
        k += 1
    return terms


# ---------------------------------------------------------------------------
# eta quotients
# ---------------------------------------------------------------------------


def eta_quotient(
    spec: EtaQuotientSpec,
    order: int,
    ring: CoefficientRing = INTEGERS,
    step: int = 1,
    offset: int = 0,
) -> TruncatedSeries:
    """Expand prod_{d | level} (q^d; q^d)_inf ** r_d through q**order, and
    return the series whose n-th coefficient is c(step*n + offset).

    The defaults step=1, offset=0 give the whole expansion.  A positive
    exponent r on (q^d; q^d) costs r // 3 weighted passes over the Jacobi
    support of (q^d; q^d)**3 plus r % 3 passes over the pentagonal support,
    each costing order times about sqrt(order/d).  The exponents are
    applied in ascending order of d, and a level above the order is dropped.
    Over Z/p**alpha, with p found by arith.prime_power(u, T) for T the sum of
    the positive exponents, an exponent r with k = r // p >= alpha is
    rewritten where that makes fewer passes,
    P(r % p) + (alpha - 1)(P(p) + 1) + P(k - alpha + 1) < P(r) with
    P(x) = x // 3 + x % 3: the passes of the exponent r % p, alpha - 1
    Horner steps, each the P(p) passes of z = (q^d; q^d)^p, one pass over
    the dilated F = (q^pd; q^pd) and one axpy, and the passes of the
    k - alpha + 1 that joins the exponent on p*d, counted at level d's rate
    though that exponent is met later in the same loop (see the module
    docstring).  Mod 125 the slice variant {1: 123, 2: 3, 5: -25} becomes
    (q;q)^3 (q^2;q^2)^3 H(z, F) / (q^5;q^5)^3: 10 passes where (q;q)^123
    alone takes 41.

    Where u <= T, a negative exponent r on d becomes r + c*u with
    c = ceil(-r / u), and c*u/p is taken off the exponent on p*d; the new r
    is then applied like a positive one.  Mod 125 each -3 left on a power of
    5 becomes 122, which the rewrite takes in 10 passes and which leaves -3
    on the next power, so no division remains.  Otherwise, over Z, modulo a
    composite or for u > T, a negative exponent -r costs r divisions by
    (q^d; q^d), each a staircase of about sqrt(order/d) steps of two
    cumulative sums over the array the cuts leave (Durfee squares, in the
    module docstring), a cost that grows with r where a positive exponent's
    passes grow with r / 3.

    In every ring, at the start and once each level is taken off,
    g = gcd(step, the levels still carrying an exponent), which is step
    when none is left; the rest reads only the class offset mod g, so the
    last pass of the level computes only that class (see _sparse_passes),
    and step, offset, the order and the levels are divided by g.  Mod 125
    at step 125 the levels 5, 25 and 125 are each applied at a fifth of the
    length of the level before, and the last pass of each expansion
    computes only the progression; over Z, {1: 2, 6: -3} at step 9 divides
    a series cut to a third of its length by (q^2; q^2)**3.
    """
    _require_progression(order, step, offset)
    u = ring.modulus
    exponents = dict(spec.exponents)
    top = sum(r for r in exponents.values() if r > 0)
    # a rewrite needs p <= r and a conversion u <= top, so p is sought only
    # up to top
    p, alpha = (u and prime_power(u, top)) or (0, 0)
    convert = p and u <= top
    out = np.zeros(order + 1, dtype=np.int64)
    out[0] = 1
    d, r = 1, 0
    while True:
        # a level above the order has the factor 1
        exponents = {x: e for x, e in exponents.items() if e and x <= order}
        # the rest is a series in q^g, so only the class offset mod g of out
        # is read, and d's last pass computes only that class
        g = gcd(step, *exponents)
        o = offset % g
        out = _euler_power(out, d, r, u, g, o) if r else out[o::g] if g > 1 else out
        order, step, offset = (order - o) // g, step // g, offset // g
        # the cut can lift a level above the new order
        exponents = {x // g: e for x, e in exponents.items() if x // g <= order}
        # d ascending, so p*d comes after the d whose rewrite or conversion feeds it
        todo = [x for x, e in exponents.items() if e > 0 or convert]
        if not todo:
            break
        d = min(todo)
        r = exponents.pop(d)
        moved = 0
        if r < 0:
            # (q^d; q^d)^u = (q^pd; q^pd)^(u/p) (mod u), applied c times
            c = -(r // u)
            r, moved = r + c * u, -c * (u // p)
        if p and (k := r // p) >= alpha and (
            _passes(r % p) + (alpha - 1) * (_passes(p) + 1) + _passes(k - alpha + 1) < _passes(r)
        ):
            e = [sum((-1) ** (i - j) * comb(k, i) * comb(i, j) for i in range(j, alpha)) % u for j in range(alpha)]
            # Horner from acc = e[m] X, m = alpha - 1: acc <- z*acc + e[j] F^(m-j) X
            # for j = m-1, ..., 0, where out holds F^(m-j) X
            acc = _axpy(0, e[-1], out, u)
            for e_j in reversed(e[:-1]):
                out = _euler_power(out, p * d, 1, u)
                acc = _axpy(_euler_power(acc, d, p, u), e_j, out, u)
            out, r, moved = acc, r % p, moved + k - alpha + 1
        if moved:
            exponents[p * d] = exponents.get(p * d, 0) + moved
    # what is left is negative exponents that no conversion takes: each
    # 1/(q^d; q^d) = sum_k q^(dk^2) / (q^d; q^d)_k^2 is one staircase
    for d, r in exponents.items():
        for _ in range(-r):
            out = _staircase(out, lambda k: (d * k * k, d * k), 2, u)
    return TruncatedSeries(ring, tuple(out[offset::step].tolist()))


def _require_progression(order: int, step: int, offset: int) -> None:
    """Refuse a truncation order and progression step*n + offset that an
    expansion cannot return: the offset must lie in [0, step) and at most
    the order."""
    require_int(order, "order", 0)
    require_int(step, "step", 1)
    require_int(offset, "offset")
    if not 0 <= offset < step:
        raise ValueError(f"offset {offset} outside [0, {step})")
    if offset > order:
        raise ValueError(f"offset {offset} is beyond the truncation order {order}")


def jacobi_terms(delta: int, order: int) -> list[tuple[int, int]]:
    """Sparse support of prod_{n>=1}(1 - q^(delta*n))**3 truncated at order.

    Returns (exponent, weight) pairs in ascending exponent order; by Jacobi's
    identity the exponents are delta times the triangular numbers k(k+1)/2
    and the weights are (-1)**k * (2k+1).
    """
    require_int(delta, "delta", 1)
    require_int(order, "order", 0)
    terms = []
    k = 0
    while delta * k * (k + 1) // 2 <= order:
        terms.append((delta * k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1))
        k += 1
    return terms


def _euler_power(coeffs, d: int, r: int, modulus: int | None, g: int = 1, o: int = 0) -> np.ndarray:
    """The class o mod g of coeffs * (q^d; q^d)**r for r >= 1, an array:
    r // 3 Jacobi passes, r % 3 Euler passes, the last computing the class.
    A term table is built only for passes that are made."""
    n = len(coeffs) - 1
    if r >= 3:
        coeffs = _sparse_passes(coeffs, jacobi_terms(d, n), r // 3, modulus, *((1, 0) if r % 3 else (g, o)))
    if r % 3:
        coeffs = _sparse_passes(coeffs, pentagonal_terms(d, n), r % 3, modulus, g, o)
    return coeffs


def _passes(r: int) -> int:
    """The number of sparse passes _euler_power makes for the exponent r."""
    return r // 3 + r % 3


def _axpy(a, e: int, b: np.ndarray, modulus: int) -> np.ndarray:
    """(a + e*b) mod u for residues a (an array, or 0), e and b, in one array
    whose dtype array_dtype picks for the bound u*u above every value; the
    sum is non-negative, so reduce_mod's product lies in [0, sum]."""
    out = np.array(b, dtype=array_dtype(modulus * modulus))
    np.multiply(out, e, out=out)
    np.add(out, np.array(a, dtype=out.dtype), out=out)
    return reduce_mod(out, modulus, out)


def _staircase(values, stairs, t: int, modulus: int | None) -> np.ndarray:
    """sum_{j>=0} q^(s_j) T_j through the length n of values, an array,
    where T_0 = values, s_0 = 0 and T_j = T_(j-1) / (1 - q^(w_j))**t for
    (s_j, w_j) = stairs(j), j >= 1, while s_j < n; the s_j must ascend
    from s_1 >= 1 with s_j - s_(j-1) >= w_j - 1.

    The sum reads T_j on its first n - s_j slots only, so each division by
    1 - q^w is one cumulative sum down the columns of a (rows, w) view of
    the ceil((n - s_j) / w) rows that cover them, which by the condition on
    the steps lie inside the n - s_(j-1) slots on which T_(j-1) is known.
    tspp's counting kernel takes s_j = j(j+1), w_j = 2j+1 and t = 1, and
    eta_quotient divides by (q^d; q^d) with s_k = dk^2, w_k = dk and t = 2
    (Durfee squares, in the module docstring).  Over Z/u values must be
    residues in [0, u) and each cumulative sum is reduced by reduce_mod, as
    is the total at the end: a column sums at most n residues and the
    total at most n, so u * (n + 1) picks the array's dtype, and every
    value is non-negative, so u times its quotient lies between 0 and the
    value.
    """
    n = len(values)
    dtype = array_dtype(None if modulus is None else modulus * (n + 1))
    term = np.array(values, dtype=dtype)
    total = term.copy()
    for j in count(1):
        shift, width = stairs(j)
        if shift >= n:
            break
        rows = -(-(n - shift) // width)
        block = term[: rows * width].reshape(rows, width)
        for _ in range(t):
            np.add.accumulate(block, axis=0, dtype=dtype, out=block)
            if modulus is not None:
                reduce_mod(block, modulus, block)
        total[shift:] += term[: n - shift]
    if modulus is not None:
        reduce_mod(total, modulus, total)
    return total


def array_dtype(bound: int | None):
    """The narrowest of int8, int16, int32 and int64 for values of absolute
    value below bound, or object from 2**63 on; None is Z."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound is not None and bound < 2 ** (np.iinfo(dtype).bits - 1):
            return dtype
    return object


def reduce_mod(values: np.ndarray, modulus: int, out: np.ndarray) -> np.ndarray:
    """values mod modulus, written into out, which may be values itself:
    values - modulus * (values // modulus), for an integer or object array
    and an int modulus >= 1.  Floor division by a positive modulus makes
    this Python's %, and numpy divides an integer array by a scalar with
    vector instructions, several times faster than its remainder ufunc
    beyond a few hundred elements.  The product lies in
    (values - modulus, values], so it is at least -modulus * N where
    values >= -(modulus - 1) * N, and it fits any dtype that holds values
    and modulus * N."""
    # the quotient goes into out where that leaves values intact
    quotient = np.floor_divide(values, modulus, out=None if np.may_share_memory(values, out) else out)
    quotient *= modulus
    return np.subtract(values, quotient, out=out)


def _sparse_passes(
    coeffs, terms: list[tuple[int, int]], r: int, modulus: int | None, g: int = 1, o: int = 0
) -> np.ndarray:
    """The coefficients o, o + g, o + 2g, ... of coeffs * (sum of w * q^e
    over terms)**r, for (exponent, weight) terms with ascending exponents
    below len(coeffs) that start with (0, 1), by r passes of weighted
    shifted additions; 0 <= o < g.

    Over Z/u the weights are reduced to centred residues and zero ones are
    dropped.  The other terms are grouped by |w|: a pass forms |w| * acc once
    per group, over the prefix the group's smallest shift reads (acc itself
    when |w| = 1), and adds or subtracts one shifted view of it per term.
    When coeffs is c*1, nothing past index 0 being nonzero, the first pass
    writes c*w at each exponent instead.  When g > 1 the last pass computes
    only the class o mod g: it writes acc once into g contiguous rows, row
    rho holding acc[rho::g], so that output t reads entry t - ceil((e - o)/g)
    of row (o - e) mod g, and forms |w| times a row once per |w| and row,
    with a scratch row only for a row that some |w| != 1 reads.
    Over Z/u coeffs must hold residues in [0, u): with P and N the sums of
    the positive and of the absolute negative weights, (0, 1) included, a
    pass then stays within [-(u-1)N, (u-1)P], and u * max(P, N) is the
    bound that picks the array's dtype.  Each pass ends in reduce_mod, whose
    quotient is then at least -N, so u times it stays inside that bound.
    coeffs is a list or an array, and the result is returned in that
    dtype's array (coeffs itself when r = 0), so chained passes convert
    from a list once.
    """
    if r == 0:
        return coeffs
    n = len(coeffs)
    bound = None
    if modulus is not None:
        half = modulus // 2
        terms = [(e, v - modulus if v > half else v) for e, w in terms if (v := w % modulus)]
        bound = modulus * max(sum(w for _, w in terms if w > 0), -sum(w for _, w in terms if w < 0))
    acc = np.array(coeffs, dtype=array_dtype(bound))
    if not np.count_nonzero(acc[1:]):
        # acc is c*1: the first pass writes c*w at each exponent
        c, acc = int(acc[0]), np.zeros_like(acc)
        acc[[e for e, _ in terms]] = [c * w if modulus is None else c * w % modulus for _, w in terms]
        r -= 1

    def plan(rows, out, o):
        """The steps of a pass into out, the class o, from rows, where row
        rho holds the input's class rho mod len(rows): per |w|, the scratch
        rows it forms and the shifted adds.  Terms ascend, so the first one
        to read a row has the smallest shift and the longest prefix, for its
        |w| and over all |w| != 1, which alone read a scratch row."""
        steps, scratch, k, m = {}, {}, len(rows), len(out)
        for e, w in terms[1:]:
            # a full pass, one row, shifts by e
            s, rho = (e, 0) if k == 1 else (-((o - e) // k), (o - e) % k)
            if s < m:
                size = abs(w)
                if size not in steps:
                    steps[size] = ({}, [])
                prods, adds = steps[size]
                if size != 1 and rho not in prods:
                    if rho not in scratch:
                        scratch[rho] = np.empty_like(rows[rho][: m - s])
                    prods[rho] = (rows[rho][: m - s], scratch[rho][: m - s])
                prod = rows[rho] if size == 1 else scratch[rho]
                adds.append((out[s:], prod[: m - s], np.add if w > 0 else np.subtract))
        return steps

    def run(steps, first, out, dest):
        """One pass: first copied into out, the steps applied to it, and
        the result reduced into dest."""
        np.copyto(out, first)
        for size, (prods, adds) in steps.items():
            for src, prod in prods.values():
                np.multiply(src, size, out=prod)
            for dst, shifted, op in adds:
                op(dst, shifted, out=dst)
        if modulus is None:
            np.copyto(dest, out)
            return dest
        return reduce_mod(out, modulus, dest)

    last = g > 1 and r > 0
    if r > last:
        # every full pass reads acc and writes work, so the views are built once
        work = np.empty_like(acc)
        steps = plan([acc], work, 0)
        for _ in range(r - last):
            run(steps, acc, work, acc)
        del work, steps
    if not last:
        return acc if g == 1 else acc[o::g]
    # row rho is acc[rho::g], zero-padded to the same length; from here on
    # only the rows are read, so acc is let go before the scratch rows
    rows = np.zeros((g, -(-n // g)), dtype=acc.dtype)
    rows[:, : n // g] = acc[: n - n % g].reshape(-1, g).T
    rows[: n % g, -1] = acc[n - n % g :]
    del acc
    out = np.empty(len(range(o, n, g)), dtype=rows.dtype)
    return run(plan(rows, out, o), rows[o, : len(out)], out, np.empty_like(out))
