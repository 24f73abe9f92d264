"""Independent oracles and random generators shared across the test suite.

Everything here deliberately avoids the library's own code paths where an
independent route exists: brute-force partition enumeration, border strips
found on cell sets, hook-length dimensions, characters on rectangular cycle
types from d-quotients, naive arithmetic functions, p-basis arithmetic
on plain partition -> Fraction maps, a beta-key codec written from the
definition for reading the package's ribbon walk, the per-pair and
``Fraction`` loops that the packed series products replaced, and the
constructions of g^T and of the eigenvalue-k series that the divisor-weight
template replaced.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, isqrt

from symlie import (
    Partition,
    SchurExpansion,
    Series,
    SymFunc,
    character,
    divisors,
    foulkes,
    lie,
    p_of,
    partitions_of,
    pleth_p,
)
from symlie.plethysm import _factor_partitions
from symlie.symfunc import ZERO, _unpack


def brute_partitions(n: int) -> set[tuple[int, ...]]:
    """All partitions of n by a different recursion (ascending construction)."""
    out: set[tuple[int, ...]] = set()

    def rec(remaining: int, min_part: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            out.add(tuple(sorted(acc, reverse=True)))
            return
        for a in range(min_part, remaining + 1):
            rec(remaining - a, a, acc + (a,))

    rec(n, 1, ())
    return out


def hook_length_dimension(shape: tuple[int, ...]) -> int:
    """Number of standard Young tableaux via the hook length formula."""
    if not shape:
        return 1
    cols = [0] * shape[0]
    for a in shape:
        for j in range(a):
            cols[j] += 1
    n = sum(shape)
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= row - j + cols[j] - i - 1
    return factorial(n) // denom


def brute_border_strips(lam: tuple[int, ...], shapes) -> list[tuple[tuple[int, ...], int]]:
    """The (mu, (-1)^{rows - 1}) with mu among ``shapes`` and lam/mu a border strip.

    Works on cell sets: lam/mu must be edge-connected and hold no 2x2 block.
    """
    cells = {(r, c) for r, a in enumerate(lam) for c in range(a)}
    out = []
    for mu in shapes:
        inner = {(r, c) for r, a in enumerate(mu) for c in range(a)}
        if not inner <= cells:
            continue
        skew = cells - inner
        if any({(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= skew for r, c in skew):
            continue
        seen, todo = set(), [next(iter(skew))]
        while todo:
            r, c = todo.pop()
            if (r, c) in seen:
                continue
            seen.add((r, c))
            todo.extend(x for x in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)) if x in skew)
        if seen == skew:
            rows = len({r for r, _ in skew})
            out.append((mu, (-1) ** (rows - 1)))
    return out


def _weak_compositions(k: int, parts: int):
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _weak_compositions(k - first, parts - 1):
            yield (first,) + rest


def quotient_power_schur(d: int, k: int) -> dict[tuple[int, ...], int]:
    """chi^lam((d^k)) for every lam of size dk where it is nonzero, from the d-quotients.

    chi^lam((d^k)) vanishes unless lam has an empty d-core; then it is
    sign * k!/prod |lam^(r)|! * prod f^{lam^(r)} over the d-quotient
    (lam^(0), ..., lam^(d-1)) (Littlewood; James-Kerber 2.7).  The support
    is generated from the d-tuples of partitions of total size k, placed on
    a d-runner abacus with M beads per runner: runner r holds the beads
    d * (lam^(r)_j + M - 1 - j) + r.  The sign is the parity of those beads
    listed runner by runner (each runner from its highest bead) against
    the decreasing order, relative to the same parity for the empty quotient
    with the same bead count.  No strip walk or character is used.
    """
    out: dict[tuple[int, ...], int] = {}
    shapes = {s: sorted(brute_partitions(s)) for s in range(k + 1)}

    def parity(beads: list[int]) -> int:
        return sum(1 for i in range(len(beads)) for j in range(i + 1, len(beads)) if beads[i] < beads[j]) % 2

    for sizes in _weak_compositions(k, d):
        weight = factorial(k)
        for s in sizes:
            weight //= factorial(s)
        stack = [()]
        for s in sizes:
            stack = [q + (part,) for q in stack for part in shapes[s]]
        for quotient in stack:
            M = max(1, *(len(part) for part in quotient))
            beads = [d * ((part[j] if j < len(part) else 0) + M - 1 - j) + r for r, part in enumerate(quotient) for j in range(M)]
            empty = [d * (M - 1 - j) + r for r in range(d) for j in range(M)]
            N = len(beads)
            lam = tuple(b - (N - 1 - i) for i, b in enumerate(sorted(beads, reverse=True)))
            value = weight
            for part in quotient:
                value *= hook_length_dimension(part)
            out[tuple(a for a in lam if a)] = -value if parity(beads) != parity(empty) else value
    return out


def beta_key(parts, n: int) -> int:
    """The beta key of a shape of degree n, by definition: sum 2^(parts_i + n - i) over parts padded with zeros to n rows."""
    rows = list(parts) + [0] * (n - len(parts))
    return sum(2 ** (a + n - i) for i, a in enumerate(rows, 1))


def beta_parts(key: int) -> tuple[int, ...]:
    """The shape of a beta key from its sorted bead list: with n beads b_1 > ... > b_n, part i is b_i - (n - i)."""
    beads = sorted((b for b in range(key.bit_length()) if key >> b & 1), reverse=True)
    n = len(beads)
    return tuple(b - (n - i) for i, b in enumerate(beads, 1) if b > n - i)


def from_beta(E: dict[int, int], n: int) -> dict[tuple[int, ...], int]:
    """A beta key -> value map as a parts -> value map, checking that every key is the degree-n key of its shape."""
    out = {}
    for key, v in E.items():
        parts = beta_parts(key)
        assert sum(parts) == n and beta_key(parts, n) == key, (key, n)
        out[parts] = v
    return out


def character_table(n: int) -> dict[tuple[Partition, Partition], int]:
    """Full character table of S_n, keyed by (irreducible, class), built afresh on each call."""
    ps = partitions_of(n)
    return {(lam, mu): character(lam, mu) for lam in ps for mu in ps}


def sieve_primes(n: int) -> set[int]:
    """The primes up to n by the sieve of Eratosthenes."""
    flags = [False, False] + [True] * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return {p for p, is_p in enumerate(flags) if is_p}


def naive_moebius(n: int) -> int:
    count = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
        p += 1
    if m > 1:
        count += 1
    return -1 if count % 2 else 1


def naive_totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def part_family_ext_by_count(n: int, parts) -> SymFunc:
    """g^T_n = sum over j | n of c(j) Lie_{n/j}[p_j], c(j) the number of k >= 0 with j / 2^k a member of the set."""
    out = ZERO
    for j in divisors(n):
        count = 0
        m = j
        while True:
            if m in parts:
                count += 1
            if m % 2:
                break
            m //= 2
        if count:
            out = out + pleth_p(j, lie(n // j)).scaled(count)
    return out


def foulkes_series_by_degree(k: int, n: int) -> Series:
    """The eigenvalue-k series built per degree: foulkes(d, r) with r = k mod d read in 1..d."""
    return Series(n, {d: foulkes(d, ((k - 1) % d) + 1) for d in range(1, n + 1)})


def random_symfunc(rng: random.Random, degree: int, nterms: int = 3) -> SymFunc:
    parts = list(partitions_of(degree))
    terms = {}
    for _ in range(nterms):
        lam = rng.choice(parts)
        terms[lam] = terms.get(lam, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SymFunc(degree, terms)


def random_series(rng: random.Random, n: int, density: float = 0.8) -> Series:
    comps = {}
    for d in range(1, n + 1):
        if rng.random() < density:
            f = random_symfunc(rng, d, nterms=2)
            if not f.is_zero:
                comps[d] = f
    return Series(n, comps)


def random_unit_series(rng: random.Random, n: int) -> Series:
    """Random series with degree-1 component exactly p_1 (invertible)."""
    s = random_series(rng, n, density=0.7)
    comps = dict(s.components)
    comps[1] = p_of((1,))
    return Series(n, comps)


# Large primes and small composites, so that a product's denominators share
# some factors and not others.
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 101, 65537, 1000003, 2**61 - 1)


def random_sparse_symfunc(rng: random.Random, degree: int, nterms: int = 4) -> SymFunc:
    """Up to ``nterms`` terms with signed numerators over the mixed ``DENOMINATORS``."""
    parts = list(partitions_of(degree))
    return SymFunc(degree, {rng.choice(parts): Fraction(rng.randint(-50, 50), rng.choice(DENOMINATORS)) for _ in range(nterms)})


def fraction_terms(f) -> dict[tuple[int, ...], Fraction]:
    """The plain parts -> Fraction map of a SymFunc or SchurExpansion."""
    return {lam.parts: c for lam, c in f.terms.items()}


def fraction_sum(a: dict, b: dict, c: Fraction = Fraction(1)) -> dict[tuple[int, ...], Fraction]:
    """a + c * b on parts -> Fraction maps, zero coefficients dropped."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def fraction_product(a: dict, b: dict) -> dict[tuple[int, ...], Fraction]:
    """The p-basis product p_lam * p_mu = p_{lam u mu} on parts -> Fraction maps."""
    out: dict[tuple[int, ...], Fraction] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = tuple(sorted(pa + pb, reverse=True))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def fraction_schur(a: dict, n: int) -> dict[tuple[int, ...], Fraction]:
    """Schur coefficients sum_mu c_mu chi^lam(mu) of a degree-n parts -> Fraction map."""
    out = {lam.parts: sum((c * character(lam, mu) for mu, c in a.items()), Fraction(0)) for lam in partitions_of(n)}
    return {k: v for k, v in out.items() if v}


def schur_by_characters(f: SymFunc) -> SchurExpansion:
    """The Schur expansion of f summed from characters (``fraction_schur``), shapes in descending order.

    The oracle for ``to_schur`` and the engines built on its ribbon walk.
    """
    n = f.degree or 0
    return SchurExpansion(n, fraction_schur(fraction_terms(f), n))


def frac(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


def P(*parts: int) -> Partition:
    return Partition.of(parts)


def series_product(a: Series, b: Series) -> Series:
    """a * b truncated at a's window, one ``SymFunc`` product per pair of components, summed by ``+``.

    The reference for ``Series.__mul__``, which packs each component once and
    sums the pairs of each degree in one packed product.
    """
    n = a.max_degree
    comps: dict[int, SymFunc] = {}
    for d, f in a.components.items():
        for e, g in b.components.items():
            if d + e <= n:
                comps[d + e] = comps.get(d + e, ZERO) + f * g
    return Series(n, comps)


def horner_exp(x: Series) -> Series:
    """sum_{j<=n} x^j/j! for a constant-free x truncated at n, by Horner's rule in ``series_product``.

    The reference for ``series_exp``, which solves the Newton recurrence
    degree by degree instead.
    """
    n = x.max_degree
    out = Series.one(n)
    for j in range(n, 0, -1):
        out = Series.one(n) + series_product(x, out).scaled(Fraction(1, j))
    return out


def fraction_graded_product_series(factors, n: int) -> list[Series]:
    """``graded_product_series`` with its binomial v-polynomial rows as maps v-exponent -> Fraction.

    The reference for the package's rows of integer numerators over one
    denominator; it reads the same walk over the factor parts, and checks
    no factor.
    """

    def mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, x in a.items():
            for k, y in b.items():
                if i + k <= n:
                    out[i + k] = out.get(i + k, 0) + x * y
        return {e: c for e, c in out.items() if c}

    binoms: dict[int, list[dict[int, Fraction]]] = {}
    for m, s, P in factors:
        row = [{0: Fraction(1)}]
        for j in range(1, n // m + 1):
            step = {e: Fraction(c) * s / j for e, c in P.items()}
            step[0] = step.get(0, 0) - Fraction(s * (j - 1), j)
            row.append(mul(row[-1], step))
        binoms[m] = row
    layers: list[dict[int, dict[tuple[int, ...], Fraction]]] = [{} for _ in range(n + 1)]
    for d, key, c in _factor_partitions(binoms, n, {0: Fraction(1)}, mul):
        for r, x in c.items():
            layers[r].setdefault(d, {})[_unpack(key)] = x
    return [Series(n, {d: SymFunc(d, t) for d, t in comps.items()}) for comps in layers]
