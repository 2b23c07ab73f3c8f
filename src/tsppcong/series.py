"""Truncated power series over the integers or a residue ring Z/u.

A series here is an immutable coefficient tuple of fixed length with eager
truncation: every operation returns a series whose order is the smallest
order among its operands.

All dense arithmetic goes through one multiply, _mul, by Kronecker
substitution: each operand becomes one Python int of fixed-width limbs, so
a product costs one big-integer multiplication.  Over Z the product is
taken modulo a bound larger than twice any coefficient and lifted to the
centred range.  Inversion is Newton iteration on top of it and powers are
binary powering.

Eta quotients apply a positive exponent r on (q^d; q^d) by sparse passes of
weighted shifted additions: r // 3 passes over the Jacobi support of
(q^d; q^d)**3 and r % 3 over the pentagonal support of (q^d; q^d).  One
pass function serves both rings; over Z/u it runs in int32 or int64 when
u times the summed weights fits, else in object arrays.  Each negative
exponent costs one Newton inverse at order // d, multiplied into the d
residue classes of the exponent separately.  eta_quotient can return one
progression c(step*n + offset) of the expansion; the last inverse multiply
then skips the classes the progression never reads.  Everything is exact:
int32, int64 or object numpy arrays and Python ints, no floating point.
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


@dataclass(frozen=True)
class CoefficientRing:
    """Exact integers when modulus is None, else Z/modulus with canonical
    residues in [0, modulus)."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")

    def normalize(self, value: int) -> int:
        return value if self.modulus is None else value % self.modulus

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
    """Coefficients of a formal power series through q**order inclusive."""

    ring: CoefficientRing
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("a truncated series carries at least the q^0 coefficient")
        u = self.ring.modulus
        if u is not None and any(c < 0 or c >= u for c in coeffs):
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

    def __mul__(self, other):
        return mul(self, other)

    def __pow__(self, e: int):
        return power(self, e)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries({self.ring!r}, order={self.order}, [{head}{tail}])"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Exponent vector of an eta quotient: one integer per divisor of the level.

    The attached series is prod over divisors d of (q^d; q^d)_inf ** exponent.
    Exponents may be given as a mapping or as (divisor, exponent) pairs;
    divisors left out get exponent 0, keys that do not divide the level are
    rejected.  The level, every divisor and every exponent must be an int
    other than a bool; nothing is coerced.
    """

    level: int
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not _is_int(self.level) or self.level < 1:
            raise ValueError(f"level must be a positive integer, got {self.level!r}")
        raw = self.exponents
        given = dict(raw.items()) if isinstance(raw, Mapping) else dict(raw)
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

    def as_dict(self) -> dict[int, int]:
        return dict(self.exponents)

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
    if delta < 1:
        raise ValueError(f"dilation must be positive, got {delta}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [0] * (order + 1)
    for e, sign in pentagonal_terms(delta, order):
        coeffs[e] = ring.normalize(sign)
    return TruncatedSeries(ring, tuple(coeffs))


def _common_ring(a: TruncatedSeries, b: TruncatedSeries) -> CoefficientRing:
    if a.ring != b.ring:
        raise RingMismatchError(f"cannot combine {a.ring!r} with {b.ring!r}")
    return a.ring


def _one(ring: CoefficientRing, order: int) -> TruncatedSeries:
    return TruncatedSeries(ring, (1,) + (0,) * order)


def _mul(a: list[int], b: list[int], n: int, modulus: int | None) -> list[int]:
    """Coefficients 0..n of a*b, reduced mod modulus, or exact when it is None.

    Kronecker substitution: both operands are packed into one Python int
    each, as fixed-width little-endian limbs wide enough to hold any
    coefficient of the product, multiplied once and unpacked.  Over Z the
    product is taken mod an odd m exceeding twice the largest possible
    coefficient and lifted back to the centred range.
    """
    a, b = a[: n + 1], b[: n + 1]
    m = modulus
    if m is None:
        # max with 1 keeps m above twice every input, even beside a zero operand
        m = 2 * (n + 1) * max(max(map(abs, a)), 1) * max(max(map(abs, b)), 1) + 1
    width = max(1, ((min(len(a), len(b)) * (m - 1) ** 2).bit_length() + 7) // 8)
    product = _pack(a, m, width) * _pack(b, m, width)
    size = width * (n + 1)
    out = _unpack((product & ((1 << 8 * size) - 1)).to_bytes(size, "little"), m, width)
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


def _inverse(a: list[int], inv0: int, modulus: int | None) -> list[int]:
    """Inverse of a through q**(len(a)-1), given the inverse inv0 of a[0].

    Newton iteration g <- g(2 - a*g): if a*g = 1 + q^k*e then the next k
    coefficients of the inverse are those of -g*e, so each step doubles
    the known prefix at the price of two products.
    """
    g = [inv0]
    while len(g) < len(a):
        k = len(g)
        k2 = min(2 * k, len(a))
        e = _mul(a[:k2], g, k2 - 1, modulus)[k:]
        g += _mul(g, [-c for c in e], k2 - k - 1, modulus)
    return g


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(a.order, b.order).

    One Kronecker-substitution multiply of Python ints: near-linear in the
    order times the coefficient width, dense or sparse alike.
    """
    ring = _common_ring(a, b)
    n = min(a.order, b.order)
    return TruncatedSeries(ring, tuple(_mul(list(a.coeffs), list(b.coeffs), n, ring.modulus)))


def invert(a: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse by Newton iteration.

    Needs a unit constant term; the error reports the offending gcd.  The
    cost is a constant number of products at the full order.
    """
    ring = a.ring
    inv0 = ring.unit_inverse(a.coeffs[0])
    return TruncatedSeries(ring, tuple(_inverse(list(a.coeffs), inv0, ring.modulus)))


def power(a: TruncatedSeries, e: int) -> TruncatedSeries:
    """a**e truncated at a.order; e == 0 gives the constant series 1.

    Binary powering, about 2*log2|e| products; negative exponents invert
    first (unit constant term required).
    """
    result = _one(a.ring, a.order)
    base = invert(a) if e < 0 else a
    e = abs(e)
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def extract_progression(a: TruncatedSeries, m: int, t: int) -> TruncatedSeries:
    """The series whose n-th coefficient is a(m*n + t)."""
    if m < 1:
        raise ValueError(f"progression step must be positive, got {m}")
    if not 0 <= t < m:
        raise ValueError(f"offset {t} outside [0, {m})")
    if t > a.order:
        raise ValueError(
            f"offset {t} is beyond the truncation order {a.order}: nothing to extract"
        )
    return TruncatedSeries(a.ring, a.coeffs[t :: m])


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
    each costing order times about sqrt(order/d).  For a negative exponent,
    (q; q)**|r| is built by the same passes at order // d and inverted once by
    Newton iteration.  The dilated inverse touches only exponents divisible
    by d, so each residue class of the exponent mod d is multiplied by the
    undilated inverse on its own.  The last negative factor multiplies only
    the classes rho with rho = offset (mod gcd(step, d)): the others never
    reach the progression.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if step < 1:
        raise ValueError(f"progression step must be positive, got {step}")
    if not 0 <= offset < step:
        raise ValueError(f"offset {offset} outside [0, {step})")
    if offset > order:
        raise ValueError(f"offset {offset} is beyond the truncation order {order}")
    u = ring.modulus
    out = [ring.normalize(1)] + [0] * order
    for d, r in spec.nonzero():
        if r > 0:
            out = _euler_power(out, d, r, u)
    negative = [(d, -r) for d, r in spec.nonzero() if r < 0]
    for d, r in negative:
        inv = _inverse(_euler_power([1] + [0] * (order // d), 1, r, u), 1, u)
        classes = gcd(step, d) if d == negative[-1][0] else 1
        for rho in range(offset % classes, min(d, order + 1), classes):
            cls = out[rho::d]
            out[rho::d] = _mul(cls, inv, len(cls) - 1, u)
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
    """The narrowest dtype for values of absolute value below bound; None is Z."""
    if bound is None or bound >= 2**63:
        return object
    return np.int32 if bound < 2**31 else np.int64


def _sparse_passes(
    coeffs: list[int], terms: list[tuple[int, int]], r: int, modulus: int | None
) -> list[int]:
    """coeffs * (sum of w * q^e over terms)**r, for (exponent, weight) terms
    that start with (0, 1), by r passes of weighted shifted additions.

    Over Z/u the weights are reduced to centred residues and zero ones are
    dropped; weights of +-1 are a plain add or subtract.  A pass sums
    residues below u times the weights, so its values stay below u * sum|w|,
    the bound that picks the array's dtype.
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
    # every pass reads acc and writes work, so the shifted views are built once
    shifts = [(w, work[e:], acc[: n - e], scratch[: n - e]) for e, w in terms[1:]]
    for _ in range(r):
        np.copyto(work, acc)
        for w, dst, src, tmp in shifts:
            if w == 1:
                np.add(dst, src, out=dst)
            elif w == -1:
                np.subtract(dst, src, out=dst)
            else:
                np.multiply(src, w, out=tmp)
                np.add(dst, tmp, out=dst)
        if modulus is None:
            np.copyto(acc, work)
        else:
            np.remainder(work, modulus, out=acc)
    return acc.tolist()
