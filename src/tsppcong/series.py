"""Truncated power series over the integers or a residue ring Z/u.

A series here is an immutable coefficient tuple of fixed length with eager
truncation: every operation returns a series whose order is the smallest
order among its operands.

All dense arithmetic goes through one multiply, _mul, by Kronecker
substitution: each operand becomes one Python int of fixed-width limbs, so
a product costs one big-integer multiplication, and a sum of products costs
one per term plus big-integer additions.  Over Z the result is taken modulo
a bound larger than twice any coefficient and lifted to the centred range.
Inversion is one Newton loop whose product a*g the caller supplies, and
powers are binary powering.

Eta quotients apply a positive exponent r on (q^d; q^d) by sparse passes of
weighted shifted additions: r // 3 passes over the Jacobi support of
(q^d; q^d)**3 and r % 3 over the pentagonal support of (q^d; q^d).  One
pass function serves both rings; it multiplies once per weight magnitude
and over Z/u runs in the narrowest of int8, int16, int32 and int64 that
holds u times the summed weights, else in object arrays.  Each negative
exponent r inverts (q; q)**r at order // d by Newton iteration whose product
a*g is r's sparse passes over g, so (q; q)**r is never expanded; the
inverse is multiplied into the d residue classes of the exponent
separately.  eta_quotient can return one progression c(step*n + offset) of
the expansion; the last negative factor then computes only the coefficients
the progression reads, as a sum of step / gcd(step, d) products of
interleaved pieces.  Everything is exact: fixed-width integer or object
numpy arrays and Python ints, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping

import numpy as np

from .arith import divisors


class RingMismatchError(ValueError):
    """Two series from different coefficient rings met in one operation."""


class NonUnitConstantError(ValueError):
    """Inversion needs a unit constant term and did not get one."""

    def __init__(self, constant: int, modulus: int | None):
        self.constant = constant
        self.modulus = modulus
        self.common = abs(constant) if modulus is None else gcd(constant, modulus)
        if modulus is None:
            msg = f"constant term {constant} is not invertible over the integers"
        else:
            msg = (
                f"constant term {constant} is not a unit modulo {modulus}: "
                f"gcd({constant}, {modulus}) = {self.common}"
            )
        super().__init__(msg)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoefficientRing:
    """Exact integers when modulus is None, else Z/modulus with canonical
    residues in [0, modulus); the modulus must be an int, not a bool."""

    modulus: int | None = None

    def __post_init__(self):
        m = self.modulus
        if m is not None and not (_is_int(m) and m >= 2):
            raise ValueError(f"modulus must be an integer of at least 2, got {m!r}")

    def unit_inverse(self, value: int) -> int:
        """Multiplicative inverse of a unit, or NonUnitConstantError."""
        if self.modulus is None:
            if value in (1, -1):
                return value
            raise NonUnitConstantError(value, None)
        if gcd(value, self.modulus) != 1:
            raise NonUnitConstantError(value, self.modulus)
        return pow(value, -1, self.modulus)

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"ZZ/{self.modulus}"


INTEGERS = CoefficientRing()


def residues_mod(u: int) -> CoefficientRing:
    return CoefficientRing(u)


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
        # one pass over the types; _is_int only runs when some type is not int
        bad = [] if set(map(type, coeffs)) == {int} else [c for c in coeffs if not _is_int(c)]
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

    def reduced(self, u: int) -> "TruncatedSeries":
        """The coefficientwise image in Z/u; over Z/M, u must divide M."""
        m = self.ring.modulus
        if m is not None and m % u != 0:
            raise ValueError(f"coefficients over {self.ring!r} do not determine residues mod {u}")
        return TruncatedSeries(residues_mod(u), self.coeffs)

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
        if not _is_int(self.level) or self.level < 1:
            raise ValueError(f"level must be a positive integer, got {self.level!r}")
        raw = self.exponents
        given = {}
        for d, e in raw.items() if isinstance(raw, Mapping) else raw:
            if d in given:
                raise ValueError(f"divisor {d!r} is given twice")
            given[d] = e
        bad = [x for x in (*given, *given.values()) if not _is_int(x)]
        if bad:
            raise ValueError(f"every divisor and exponent must be an integer, got {bad[0]!r}")
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


def pentagonal_series(delta: int, order: int, ring: CoefficientRing = INTEGERS) -> TruncatedSeries:
    """The dilated Euler product prod_{n>=1}(1 - q^(delta*n)), truncated."""
    if not (_is_int(delta) and _is_int(order)):
        raise ValueError(f"dilation and order must be integers, got {delta!r} and {order!r}")
    if delta < 1:
        raise ValueError(f"dilation must be positive, got {delta}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [0] * (order + 1)
    for e, sign in pentagonal_terms(delta, order):
        coeffs[e] = sign
    return TruncatedSeries(ring, tuple(coeffs))


def _common_ring(a: TruncatedSeries, b: TruncatedSeries) -> CoefficientRing:
    if a.ring != b.ring:
        raise RingMismatchError(f"cannot combine {a.ring!r} with {b.ring!r}")
    return a.ring


def _mul(pairs: list[tuple[list[int], list[int]]], n: int, modulus: int | None) -> list[int]:
    """Coefficients 0..n of the sum of a*b over the pairs (a, b), reduced
    mod modulus, or exact when it is None.

    Kronecker substitution: every operand is packed into one Python int, as
    fixed-width little-endian limbs wide enough to hold any coefficient of
    the sum; the packed products are added and the sum is unpacked once.
    Over Z the sum is taken mod an odd m exceeding twice the largest
    possible coefficient and lifted back to the centred range.
    """
    pairs = [(a[: n + 1], b[: n + 1]) for a, b in pairs]
    m = modulus
    if m is None:
        # max with 1 keeps m above twice every input, even beside a zero operand
        m = 2 * (n + 1) * sum(max(max(map(abs, a)), 1) * max(max(map(abs, b)), 1) for a, b in pairs) + 1
    terms = sum(min(len(a), len(b)) for a, b in pairs)
    width = max(1, ((terms * (m - 1) ** 2).bit_length() + 7) // 8)
    total = sum(_pack(a, m, width) * _pack(b, m, width) for a, b in pairs)
    size = width * (n + 1)
    out = _unpack((total & ((1 << 8 * size) - 1)).to_bytes(size, "little"), m, width)
    if modulus is None:
        half = m // 2
        out = [c - m if c > half else c for c in out]
    return out


# Long runs of limbs of at most 8 bytes go through numpy, which pays for its
# call overhead from about 16 limbs on.  Such limbs mean m < 2**32, so every
# input (a residue, its negative, or an integer below m/2) fits int64.
_NUMPY_LIMBS = 16


def _pack(coeffs: list[int], m: int, width: int) -> int:
    if width <= 8 and len(coeffs) > _NUMPY_LIMBS:
        limbs = np.array(coeffs, dtype="<i8")
        np.remainder(limbs, m, out=limbs)
        return int.from_bytes(limbs.view(np.uint8).reshape(-1, 8)[:, :width].tobytes(), "little")
    return int.from_bytes(b"".join((c % m).to_bytes(width, "little") for c in coeffs), "little")


def _unpack(raw: bytes, m: int, width: int) -> list[int]:
    if width <= 8 and len(raw) > _NUMPY_LIMBS * width:
        limbs = np.zeros((len(raw) // width, 8), dtype=np.uint8)
        limbs[:, :width] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
        values = limbs.view("<u8").ravel()
        np.remainder(values, m, out=values)
        return values.tolist()
    return [int.from_bytes(raw[i : i + width], "little") % m for i in range(0, len(raw), width)]


def _inverse(times_a, inv0: int, n: int, modulus: int | None) -> list[int]:
    """Coefficients 0..n-1 of the inverse of a series a, given the inverse
    inv0 of a[0] and times_a(g, k), the coefficients 0..k-1 of a*g for a
    list g of fewer than k coefficients.

    Newton iteration g <- g(2 - a*g): if a*g = 1 + q^k*e then the next k
    coefficients of the inverse are those of -g*e, so each step doubles
    the known prefix at the price of the product a*g, which times_a forms
    as a dense multiply or by sparse passes, and one dense product g*e.
    """
    g = [inv0]
    while len(g) < n:
        k = len(g)
        k2 = min(2 * k, n)
        e = times_a(g, k2)[k:k2]
        g += _mul([(g, [-c for c in e])], k2 - k - 1, modulus)
    return g


def _mul_progression(
    a: list[int], b: list[int], s: int, period: int, modulus: int | None
) -> list[int]:
    """Coefficients s, s + period, s + 2*period, ... below len(a) of a*b,
    for 0 <= s < period and b at least as long as a.

    Coefficient s + period*t sums a[sigma + period*i] * b[s - sigma + period*(t - i)]
    over sigma = 0..period-1 and i, so it is the sum over sigma of coefficient
    t of the product of the pieces a[sigma::period] and b[s - sigma::period],
    where a start s - sigma below zero reads one zero first.  Each product
    stops at the last coefficient read; period 1 is the single product a*b.
    """
    reads = len(range(s, len(a), period))
    if not reads:
        return []
    pieces = [
        (a[sigma::period], b[s - sigma :: period] if sigma <= s else [0] + b[s - sigma + period :: period])
        for sigma in range(min(period, len(a)))
    ]
    return _mul(pieces, reads - 1, modulus)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(a.order, b.order).

    One Kronecker-substitution multiply: each operand is packed into one
    Python int of about (order + 1) times the limb width, so the cost is one
    CPython big-integer product of those two ints, dense or sparse alike.
    CPython multiplies ints that large by Karatsuba, which is far from
    linear in the order.
    """
    ring = _common_ring(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(ring, tuple(_mul([(list(a.coeffs), list(b.coeffs))], n, ring.modulus)))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse by Newton iteration.

    Needs a unit constant term; the error reports the offending gcd.  The
    cost is a constant number of products at the full order.
    """
    ring, coeffs, u = a.ring, list(a.coeffs), a.ring.modulus
    inv0 = ring.unit_inverse(coeffs[0])
    g = _inverse(lambda head, k: _mul([(coeffs[:k], head)], k - 1, u), inv0, len(coeffs), u)
    return TruncatedSeries(ring, tuple(g))


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e truncated at a.order; e == 0 gives the constant series 1.

    Binary powering, about 2*log2|e| products; negative exponents invert
    first (unit constant term required).  e must be an int other than a bool.
    """
    if not _is_int(e):
        raise ValueError(f"exponent must be an integer, got {e!r}")
    result = TruncatedSeries(a.ring, (1,) + (0,) * a.order)
    base = invert(a) if e < 0 else a
    e = abs(e)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


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
    each costing order times about sqrt(order/d).  A negative exponent -r
    costs one inverse of (q; q)**r at order // d by Newton iteration, whose
    product a*g at each doubling is r // 3 + r % 3 such passes over g.  The
    dilated inverse touches only exponents divisible by d, so each residue
    class of the exponent mod d is multiplied by the undilated inverse on its
    own.  The last negative factor computes only what the progression reads.
    With g = gcd(step, d) and period = step // g, the class of rho holds the
    exponents rho + d*j; it is read iff rho = offset (mod g), and then only
    at j = s (mod period), where s = ((offset - rho) / g) * (d / g)**-1 mod
    period.  Those coefficients cost one sum of period products of pieces
    that take every period-th coefficient (_mul_progression).
    """
    bad = [x for x in (order, step, offset) if not _is_int(x)]
    if bad:
        raise ValueError(f"order, step and offset must be integers, got {bad[0]!r}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if step < 1:
        raise ValueError(f"progression step must be positive, got {step}")
    if not 0 <= offset < step:
        raise ValueError(f"offset {offset} outside [0, {step})")
    if offset > order:
        raise ValueError(f"offset {offset} is beyond the truncation order {order}")
    u = ring.modulus
    out = [1] + [0] * order
    for d, r in spec.nonzero():
        if r > 0:
            out = _euler_power(out, d, r, u)
    negative = [(d, -r) for d, r in spec.nonzero() if r < 0]
    for d, r in negative:
        inv = _inverse(
            lambda head, k: _euler_power(head + [0] * (k - len(head)), 1, r, u), 1, order // d + 1, u
        )
        # only the last factor's outputs are final, so only it may skip some:
        # out[rho + d*j] is read iff rho = offset (mod g) and j = s (mod period)
        stride, start = (step, offset) if d == negative[-1][0] else (1, 0)
        g = gcd(stride, d)
        period = stride // g
        for rho in range(start % g, min(d, order + 1), g):
            s = (start - rho) // g * pow(d // g, -1, period) % period
            out[rho + d * s :: d * period] = _mul_progression(out[rho::d], inv, s, period, u)
    return TruncatedSeries(ring, tuple(out[offset::step]))


def jacobi_terms(delta: int, order: int) -> list[tuple[int, int]]:
    """Sparse support of prod_{n>=1}(1 - q^(delta*n))**3 truncated at order.

    Returns (exponent, weight) pairs in ascending exponent order; by Jacobi's
    identity the exponents are delta times the triangular numbers k(k+1)/2
    and the weights are (-1)**k * (2k+1).
    """
    terms = []
    k = 0
    while delta * k * (k + 1) // 2 <= order:
        terms.append((delta * k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1))
        k += 1
    return terms


def _euler_power(coeffs: list[int], d: int, r: int, modulus: int | None) -> list[int]:
    """coeffs * (q^d; q^d)**r for r >= 0: r // 3 Jacobi passes, r % 3 Euler passes."""
    n = len(coeffs) - 1
    coeffs = _sparse_passes(coeffs, jacobi_terms(d, n), r // 3, modulus)
    return _sparse_passes(coeffs, pentagonal_terms(d, n), r % 3, modulus)


def array_dtype(bound: int | None):
    """The narrowest of int8, int16, int32 and int64 for values of absolute
    value below bound, or object from 2**63 on; None is Z."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound is not None and bound < 2 ** (np.iinfo(dtype).bits - 1):
            return dtype
    return object


def _sparse_passes(
    coeffs: list[int], terms: list[tuple[int, int]], r: int, modulus: int | None
) -> list[int]:
    """coeffs * (sum of w * q^e over terms)**r, for (exponent, weight) terms
    that start with (0, 1), by r passes of weighted shifted additions.

    Over Z/u the weights are reduced to centred residues and zero ones are
    dropped.  The other terms are grouped by |w|: a pass forms |w| * acc once
    per group, over the prefix the group's smallest shift reads (acc itself
    when |w| = 1), and adds or subtracts one shifted view of it per term.  A
    pass sums residues below u times the weights, so its values stay below
    u * sum|w|, the bound that picks the array's dtype.
    """
    if r == 0:
        return coeffs
    n = len(coeffs)
    bound = None
    if modulus is not None:
        reduced = ((e, w % modulus) for e, w in terms)
        terms = [(e, w - modulus if w > modulus // 2 else w) for e, w in reduced if w]
        bound = modulus * sum(abs(w) for _, w in terms)
    acc = np.array(coeffs, dtype=array_dtype(bound))
    work = np.empty_like(acc)
    scratch = np.empty_like(acc)
    # every pass reads acc and writes work, so the views are built once; the
    # first term of each |w| has the smallest shift and the longest prefix
    plan = {}
    for e, w in terms[1:]:
        size = abs(w)
        if size not in plan:
            plan[size] = (acc[: n - e], (acc if size == 1 else scratch)[: n - e], [])
        _, prod, adds = plan[size]
        adds.append((work[e:], prod[: n - e], np.add if w > 0 else np.subtract))
    for _ in range(r):
        np.copyto(work, acc)
        for size, (src, prod, adds) in plan.items():
            if size != 1:
                np.multiply(src, size, out=prod)
            for dst, shifted, op in adds:
                op(dst, shifted, out=dst)
        if modulus is None:
            np.copyto(acc, work)
        else:
            np.remainder(work, modulus, out=acc)
    return acc.tolist()
