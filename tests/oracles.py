"""Independent brute-force oracles for the test suite.

Nothing here shares code with the package: products are expanded by naive
truncated polynomial multiplication, partition counts and inverse powers of
the Euler product come from running sums, one per part size, the mock theta
function omega comes from cumulative sums over plain lists, 1-shell totally
symmetric plane partitions are enumerated from their definition, and the
verifier's unit squares and cusp minima come from trying every residue and
every lambda; the auxiliary cusp orders are summed term by term as
fractions.  These are the reference values the fast paths are checked
against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def euler_product(delta, order):
    """prod_{n >= 1} (1 - q^(delta*n)) truncated, expanded factor by factor."""
    out = [1] + [0] * order
    n = 1
    while delta * n <= order:
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[delta * n] = -1
        out = poly_mul(out, factor, order)
        n += 1
    return out


@lru_cache(maxsize=None)
def inverse_euler_power(r, order):
    """prod_{n >= 1} (1 - q^n)^-r truncated, for r >= 0, as a tuple over Z.

    Dividing by 1 - q^k is one running sum with stride k, so each of the r
    factors 1/(q; q) is one running sum per part size k = 1..order, applied
    to the power r - 1."""
    if r == 0:
        return (1,) + (0,) * order
    out = list(inverse_euler_power(r - 1, order))
    for k in range(1, order + 1):
        for i in range(k, order + 1):
            out[i] += out[i - k]
    return tuple(out)


def partition_count(n):
    return inverse_euler_power(1, n)[n]


def two_colored_count(n):
    """Pairs of partitions with total weight n."""
    counts = inverse_euler_power(1, n)
    return sum(counts[k] * counts[n - k] for k in range(n + 1))


def tspp_brute(order):
    """Direct expansion of 1 + sum_n q^(3n-2) prod_{i<=n-2} (1 + q^(6i+3)),
    with no compression tricks."""
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while 3 * n - 2 <= order:
        prod = [1] + [0] * order
        for i in range(n - 1):
            factor = [0] * (order + 1)
            factor[0] = 1
            e = 6 * i + 3
            if e <= order:
                factor[e] = 1
            prod = poly_mul(factor, prod, order)  # factor first: two nonzero terms
        shift = 3 * n - 2
        for j, c in enumerate(prod):
            if shift + j <= order:
                out[shift + j] += c
        n += 1
    return out


def shell_tspp_counts(order):
    """The number of 1-shell totally symmetric plane partitions of each
    weight n <= order, counted from the definition alone.

    Such an object is a finite S3-invariant order ideal of {1, 2, ...}^3,
    every cell of which has a coordinate equal to 1; its weight is its
    number of cells.  It is a union of S3-orbits of cells (1, b, c),
    1 <= b <= c, of 1, 3 or 6 cells, and it is an order ideal exactly when
    with each orbit it holds the orbits of (1, b - 1, c) and (1, b, c - 1)
    that lie in {1, 2, ...}^3, those of its cells' lower neighbours with a
    coordinate 1 (lowering the 1 leaves the octant).  A chain to (1, 1, c)
    weighs 3c - 2, so c <= (order + 2) // 3.  A depth-first search adds
    orbits in an order that lists each orbit after those below it, and only
    once they are in, so each object is met once: as its orbits in that
    order."""
    top = (order + 2) // 3
    orbits = []
    for b, c in sorted(((b, c) for c in range(1, top + 1) for b in range(1, c + 1)), key=lambda o: (o[0] + o[1], o[0])):
        size = 1 if c == 1 else 3 if b in (1, c) else 6
        below = [(b - 1, c)] * (b > 1) + [(min(b, c - 1), max(b, c - 1))] * (c > 1)
        orbits.append(((b, c), size, below))
    counts = [0] * (order + 1)

    def grow(ideal, start, weight):
        counts[weight] += 1
        for i in range(start, len(orbits)):
            orbit, size, below = orbits[i]
            if weight + size <= order and all(o in ideal for o in below):
                ideal.add(orbit)
                grow(ideal, i + 1, weight + size)
                ideal.remove(orbit)

    grow(set(), 0, 0)
    return counts


def slice_brute(order):
    """(q^2; q^2)^3 / (q; q)^2 via two-colored partition counts."""
    colored = [two_colored_count(n) for n in range(order + 1)]
    cube = euler_product(2, order)
    cube = poly_mul(cube, euler_product(2, order), order)
    cube = poly_mul(cube, euler_product(2, order), order)
    return poly_mul(colored, cube, order)


def slice_identity_report(f, order):
    """(checked, first_violation, detail) of the slice identity on counts f
    through order: each f(6n+1) against slice_brute(n) in turn, up to the
    first that differs."""
    top = (order - 1) // 6
    g = slice_brute(max(top, 0))
    for n in range(top + 1):
        if f[6 * n + 1] != g[n]:
            return n + 1, 6 * n + 1, f"count({6 * n + 1}) = {f[6 * n + 1]} but slice({n}) = {g[n]}"
    return top + 1, None, f"n <= {top}"


def unit_squares(n):
    """{x^2 mod n : gcd(x, n) = 1}, sorted, by trying every residue."""
    return tuple(sorted({x * x % n for x in range(n) if gcd(x, n) == 1}))


def cusp_scan(rep, m, r, kap):
    """(value, lambda): the least over lambda in [0, m) of
    (1/24) sum_d r_d gcd(d (a + kap lambda c), m c)^2 / (d m), and the first
    lambda, scanning forward, that attains it."""
    best = None
    for lam in range(m):
        value = sum(
            Fraction(rd * gcd(d * (rep.a + kap * lam * rep.c), m * rep.c) ** 2, 24 * d * m)
            for d, rd in r.nonzero()
        )
        if best is None or value < best[0]:
            best = (value, lam)
    return best


def aux_order(rep, r_prime):
    """(1/24) sum_d r'_d gcd(d, c)^2 / d, summed term by term as fractions."""
    return sum((Fraction(rd * gcd(d, rep.c) ** 2, 24 * d) for d, rd in r_prime.nonzero()), Fraction(0))


def omega(order):
    """Ramanujan's third-order mock theta function
    omega(q) = sum_{n>=0} q^(2n(n+1)) / (q; q^2)_(n+1)^2 through q^order.

    T_n = 1 / prod_{i<=n} (1 - q^(2i+1))^2 is T_(n-1) divided twice by
    1 - q^(2n+1), each division one cumulative sum with stride 2n+1 over the
    order - 2n(n+1) + 1 slots that the shifted term reads."""
    out = [0] * (order + 1)
    term = [1] + [0] * order
    n = 0
    while (shift := 2 * n * (n + 1)) <= order:
        stride, top = 2 * n + 1, order - shift + 1
        for _ in range(2):
            for j in range(stride, top):
                term[j] += term[j - stride]
        for j in range(top):
            out[shift + j] += term[j]
        n += 1
    return out
