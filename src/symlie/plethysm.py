"""Plethysm of symmetric functions and truncated generating series.

A Series holds homogeneous components for degrees 0..N, the constant term
at degree 0.  N is a mandatory explicit truncation window: every
operation silently drops anything above N, which turns each identity in
the catalog into a finite exact check.  Series products, the plethysm
kernel and the one Newton recurrence on series run the one product loop
(``symfunc._packed_products``) on the components' stored maps as they
are, and make each sum a SymFunc by ``symfunc._reduced_products``, which
reduces it and refuses a degree above 255.  That recurrence reads one
packed list of power sums sign(k) p_k[F] (``_power_sums``) for every
power series of modules and its length layers, and x alone for
``series_exp``.  The products of factors (1 + s p_m)^{+/-1}, and the length-graded ones with
integer v-polynomial numerators over one denominator, are read off one
walk over the partitions into factor parts, in the power-sum basis;
``symfunc.product_slice_schur`` expands the ungraded ones in Schur.

Three private log routes form no plethysm product.  The divisor family
F_w = sum_n (1/n) sum_{d|n} w(d) p_d^{n/d} is -sum_d (w(d)/d) log(1 - p_d),
so F_w[G] = sum_d (w(d)/d) p_d[Λ] with Λ = -log(1 - G): one series log,
then stretches (``_family_pleth``).  Its inverse solves Λ by stretches
alone and is 1 - exp(-Λ) (``_family_inverse``, for w(1) = 1).  The
inverses of H - 1 and E - 1 solve exp(sum_k sign(k) p_k[G]/k) = 1 + p_1,
whose log is stretches alone (``_exp_inverse``).  The catalog calls them by
name; ``pleth`` and ``pleth_inverse`` stay the general route and the
oracle the tests check the routes against.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .partitions import EMPTY, Partition, divisors
from .symfunc import ONE, ZERO, SymFunc, _TOO_DEEP, _TOP, _factor_weights, _packed_products, _reduced_products, _stretch, _sum_scaled, _unpack, e_of, h_of, p_of

__all__ = [
    "Series",
    "alt_omega",
    "e_series",
    "ext_power_layers",
    "ext_powers",
    "ext_powers_signed",
    "graded_product_series",
    "h_series",
    "higher_module",
    "p1_series",
    "pleth",
    "pleth_inverse",
    "pleth_p",
    "product_series",
    "product_slice",
    "series_exp",
    "sym_power_layers",
    "sym_powers",
    "sym_powers_signed",
]


class Series:
    """Symmetric-function series truncated at a fixed maximum degree.

    ``components`` maps each degree 0..N to its nonzero homogeneous
    component; the constant term c is the degree-0 component c * 1.
    """

    __slots__ = ("max_degree", "components")

    def __init__(self, max_degree: int, components=None, constant=None):
        """``constant``, when given, sets the degree-0 component to ``constant`` * 1."""
        if type(max_degree) is not int or max_degree < 0:
            raise ValueError(f"max_degree must be an integer >= 0, got {max_degree!r}")
        n = self.max_degree = max_degree
        items = dict(components or {})
        if constant is not None:
            items[0] = ONE.scaled(constant)
        comps: dict[int, SymFunc] = {}
        for d, f in items.items():
            if f.is_zero:
                continue
            if not 0 <= d <= n:
                raise ValueError(f"component degree {d} outside 0..{n}")
            if f.degree != d:
                raise ValueError(f"component at degree {d} has degree {f.degree}")
            comps[d] = f
        self.components = comps

    @classmethod
    def zero(cls, n: int) -> "Series":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Series":
        return cls(n, constant=1)

    @classmethod
    def from_symfunc(cls, f: SymFunc, n: int) -> "Series":
        if f.is_zero or f.degree > n:
            return cls(n)
        return cls(n, {f.degree: f})

    def component(self, d: int) -> SymFunc:
        if not 0 <= d <= self.max_degree:
            raise ValueError(f"degree {d} outside the truncation window 0..{self.max_degree}")
        return self.components.get(d, ZERO)

    @property
    def constant(self) -> Fraction:
        return self.component(0).coefficient(EMPTY)

    @property
    def is_constant_free(self) -> bool:
        return 0 not in self.components

    def _require_same_window(self, other: "Series") -> None:
        if self.max_degree != other.max_degree:
            raise ValueError(f"truncation mismatch: {self.max_degree} vs {other.max_degree}")

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_window(other)
        comps = dict(self.components)
        for d, f in other.components.items():
            g = comps.get(d)
            s = f if g is None else g + f
            if s.is_zero:
                comps.pop(d, None)
            else:
                comps[d] = s
        out = Series(self.max_degree)
        out.components = comps
        return out

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        out = Series(self.max_degree)
        out.components = {d: -f for d, f in self.components.items()}
        return out

    def scaled(self, c) -> "Series":
        c = Fraction(c)
        out = Series(self.max_degree)
        if c:
            out.components = {d: f.scaled(c) for d, f in self.components.items()}
        return out

    def __mul__(self, other):
        """The product truncated at the window, or ``scaled(other)`` for a scalar.

        The pairs of components of each output degree are summed by one
        ``symfunc._reduced_products`` call on their stored maps, in
        ascending degree.
        """
        if not isinstance(other, Series):
            return self.scaled(other)
        self._require_same_window(other)
        n = self.max_degree
        pairs = _degree_pairs(_maps(self.components), _maps(other.components), n, {})
        out = Series(n)
        out.components = {d: f for d in sorted(pairs) if not (f := _reduced_products(d, pairs[d])).is_zero}
        return out

    def __rmul__(self, other):
        return self.scaled(other)

    def omega_each(self) -> "Series":
        """Apply the omega involution to every homogeneous component."""
        out = Series(self.max_degree)
        out.components = {d: f.omega() for d, f in self.components.items()}
        return out

    def alt_omega(self) -> "Series":
        """Degree-d component becomes (-1)^{d-1} omega(component)."""
        if not self.is_constant_free:
            raise ValueError("alt_omega requires a constant-free series")
        out = Series(self.max_degree)
        out.components = {d: f.omega() if d % 2 else -f.omega() for d, f in self.components.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, Series) and self.max_degree == other.max_degree and self.components == other.components

    def __repr__(self):
        return " + ".join(f"({self.components[d].to_text()})" for d in sorted(self.components)) or "0"


def _maps(comps: dict[int, SymFunc]) -> dict[int, tuple[dict[int, int], int]]:
    """The stored maps (numerators, den) of SymFuncs by degree, as ``symfunc._packed_products`` reads them."""
    return {d: (f._num, f.den) for d, f in comps.items()}


def _degree_pairs(xs: dict, ys: dict, n: int, into: dict) -> dict:
    """Append (xs[a], ys[b]) to ``into[a + b]`` for every a + b <= n; return ``into``."""
    for a, x in xs.items():
        for b, y in ys.items():
            if a + b <= n:
                into.setdefault(a + b, []).append((x, y))
    return into


def p1_series(n: int) -> Series:
    return Series(n, {1: p_of((1,))})


def _basis_series(base, n: int, sign=lambda d: 1) -> Series:
    """sum over d = 0..n of sign(d) base(d), base ``h_of`` or ``e_of`` and sign(d) in {1, 0, -1}; n > 255 is refused at once."""
    out = Series(n)
    if n > _TOP:
        raise ValueError(_TOO_DEEP.format(n))
    out.components = {d: base(d) if s > 0 else -base(d) for d in range(n + 1) if (s := sign(d))}
    return out


def h_series(n: int) -> Series:
    """H = sum h_i, constant term h_0 = 1."""
    return _basis_series(h_of, n)


def e_series(n: int) -> Series:
    return _basis_series(e_of, n)


def alt_omega(F: Series) -> Series:
    return F.alt_omega()


# ---------------------------------------------------------------------------
# Plethysm
# ---------------------------------------------------------------------------


def pleth_p(k: int, g):
    """p_k[g] for g a SymFunc or a Series (series components above N are dropped)."""
    if type(k) is not int or k < 1:
        raise ValueError(f"pleth_p requires an integer k >= 1, got {k!r}")
    if isinstance(g, SymFunc):
        return _stretch(g, k)
    n = g.max_degree
    return Series(n, {d * k: _stretch(f, k) for d, f in g.components.items() if d * k <= n})


def _monomials(fs) -> list[tuple[tuple[int, ...], int, int]]:
    """The (parts, numerator, den) triples of the p-monomials of ``fs``, the empty partition left out.

    The components ``fs`` have distinct degrees, so no two triples share their parts.
    """
    return [(_unpack(key), c, f.den) for f in fs for key, c in f._num.items() if key]


def _pleth_degrees(monos, comps: dict[int, SymFunc], n: int):
    """Yield (t, degree-t component of sum_c c * prod_i p_{a_i}[g]) over ``monos`` for t = 1..n.

    g is the constant-free series truncated at n whose components by degree
    are ``comps``.  The monomials sit on a trie of their (descending)
    parts.  The degree-t component of a node's prefix product is the sum
    over s of its parent's degree-s component times the degree-(t - s)
    component of p_a[g]; a one-part node (a,) is p_a[g] itself, so the node
    (1,) is g.  Each part still to come adds at least a times g's lowest
    degree, so a node is computed only up to the top degree that a monomial
    through it needs, and it keeps a component only where a longer node
    reads it.  Step t reads g only below degree t, save through the
    monomial p_1, so a caller may set g's degree-t component after step t:
    that is how ``pleth_inverse`` solves online.

    Every component is a packed map (``symfunc._packed_products``) keyed
    as SymFuncs are.  A component g_j is stretched into every p_a[g] once,
    at the first step that finds it set, so a node product only adds keys,
    the prefix products stay unreduced, and only the degree-t sum is
    reduced, by ``symfunc._reduced_products``.  ``monos`` holds (parts, numerator, den)
    triples with distinct parts, and a monomial's end node is multiplied by
    the packed constant numerator * p_() (key 0) over den.
    """
    low = min(comps, default=n + 1)
    ends: dict[tuple[int, ...], tuple[int, int]] = {}
    keeps: dict[tuple[int, ...], int] = {}
    for parts, c, den in monos:
        if sum(parts) * low > n:
            continue
        ends[parts] = c, den
        for i in range(2, len(parts)):
            keeps[parts[:i]] = max(keeps.get(parts[:i], 0), n - low * sum(parts[i:]))
    tops = {**keeps, **dict.fromkeys(ends, n)}
    # rows[a]: the components of p_a[g] by degree, the one-part node (a,)
    rows: dict[int, dict[int, tuple[dict[int, int], int]]] = {a: {} for key in tops for a in key}
    nodes = {**{(a,): row for a, row in rows.items()}, **{key: {} for key in keeps}}
    packed = set()

    for t in range(1, n + 1):
        # g is final below degree t, and at t once set
        for j in (t - 1, t):
            f = comps.get(j)
            if f is not None and j not in packed:
                packed.add(j)
                for a, row in rows.items():
                    if a * j <= n:
                        g = _stretch(f, a)
                        row[a * j] = g._num, g.den
        total = []
        for key, top in tops.items():
            if t > top:
                continue
            if len(key) == 1:
                acc = rows[key[0]].get(t)
            else:
                a, prev = key[-1], nodes[key[:-1]]
                row, pairs = rows[a], []
                for u in range(a, t, a):
                    y = row.get(u)
                    if y:
                        x = prev.get(t - u)
                        if x:
                            pairs.append((x, y))
                acc = _packed_products(pairs)
            if not acc or not acc[0]:
                continue
            if t <= keeps.get(key, 0):
                nodes[key][t] = acc
            end = ends.get(key)
            if end:
                total.append((acc, ({0: end[0]}, end[1])))
        yield t, _reduced_products(t, total)


def pleth(f, g) -> Series:
    """Plethysm f[g] with f a SymFunc or Series, truncated at g's window.

    g must be constant-free (plethysm of an infinite sum into a constant is
    not defined here).  A Series f truncated at M is refused when
    (M + 1) * low reaches g's window, low being g's lowest degree: from that
    degree on f[g] needs components of f that are unknown.  A SymFunc inner
    argument is wrapped as a series truncated at f.degree * g.degree (at
    least 1) for a SymFunc f, and at g.degree * M (M for g = 0) for a Series f.
    """
    if isinstance(g, SymFunc):
        if isinstance(f, SymFunc):
            n = max((f.degree or 0) * (g.degree or 0), 1)
        else:
            n = g.degree * f.max_degree if not g.is_zero else f.max_degree
        g = Series.from_symfunc(g, n)
    elif isinstance(f, Series):
        unknown = (f.max_degree + 1) * min((d for d in g.components if d), default=g.max_degree + 1)
        if unknown <= g.max_degree:
            raise ValueError(
                f"outer series truncated at {f.max_degree} leaves degree {unknown} of the window {g.max_degree} unknown"
            )
    if not g.is_constant_free:
        raise ValueError("plethysm requires a constant-free inner series")
    fs = [f] if isinstance(f, SymFunc) else list(f.components.values())
    # _monomials leaves out f's constant term, which is f[g]'s since g is constant-free
    degrees = _pleth_degrees(_monomials(fs), g.components, g.max_degree)
    return Series(g.max_degree, dict(degrees), constant=sum(h.coefficient(EMPTY) for h in fs))


# ---------------------------------------------------------------------------
# Symmetric and exterior power series H[F], E[F], signed variants, layers
# ---------------------------------------------------------------------------


def _power_sums(F: Series, sign) -> list:
    """[None, P_1, ..., P_N], P_k = sign(k) p_k[F] as packed maps by degree, N = F's window.

    p_k[F_e] is F_e stretched once (``symfunc._stretch``), each part a read as k * a.
    """
    n = F.max_degree
    P: list = [None]
    for k in range(1, n + 1):
        row = {k * e: _stretch(f, k) for e, f in F.components.items() if k * e <= n}
        P.append(_maps({d: -g for d, g in row.items()} if sign(k) < 0 else row))
    return P


def _newton(P: list, n: int) -> list[dict[int, SymFunc]]:
    """[X_0 = 1, X_1, ..., X_N] with r X_r = sum_{k=1..r} P[k] X_{r-k}, N = len(P) - 1, truncated at degree n.

    Newton's identity r h_r = sum_k p_k h_{r-k} (Macdonald I.2).  P[k] maps
    degrees to packed maps, as ``_power_sums`` builds them, and each X_r is
    handed back as its components by degree.  The pairs of each degree of
    X_r are summed by one ``symfunc._reduced_products`` call, 1/r folded
    into the denominator, before a later step reads its map.
    """
    X = [{0: ONE}]
    maps = [_maps(X[0])]
    for r in range(1, len(P)):
        pairs: dict[int, list] = {}
        for k in range(1, r + 1):
            _degree_pairs(P[k], maps[r - k], n, pairs)
        X.append({d: f for d in sorted(pairs) if not (f := _reduced_products(d, pairs[d], r)).is_zero})
        maps.append(_maps(X[r]))
    return X


def _exp(P: list, n: int) -> Series:
    """exp(sum_k P_k / k) truncated at n, for packed power sums P = [None, P_1, ...] with no degree 0.

    ``_newton`` runs on the one-component Q_j = sum_k (j/k) P_k[j], j times
    the log's degree-j component, so X_j is the degree-j component of the
    exponential, read off directly.  P_k lives only in degrees that are
    multiples of k, so each weight j/k is an integer, the packed constant
    j // k (key 0).
    """
    Q: list = [None]
    for j in range(1, n + 1):
        pairs = [(Pk[j], ({0: j // k}, 1)) for k, Pk in enumerate(P[1 : j + 1], 1) if j in Pk]
        Q.append({j: _packed_products(pairs)} if pairs else {})
    return Series(n, {j: X[j] for j, X in enumerate(_newton(Q, n)) if j in X})


def series_exp(x: Series) -> Series:
    """exp(x) for a constant-free series, truncated at x's window: ``_exp`` with P_1 = x and no other P_k."""
    if not x.is_constant_free:
        raise ValueError("series_exp requires a constant-free argument")
    return _exp([None, _maps(x.components)], x.max_degree)


def _module_powers(F: Series, sign) -> Series:
    # exp(sum_k sign(k) p_k[F] / k)
    if not F.is_constant_free:
        raise ValueError("power series of modules require a constant-free argument")
    return _exp(_power_sums(F, sign), F.max_degree)


def sym_powers(F: Series) -> Series:
    """H[F] = sum_r h_r[F] = exp(sum_k p_k[F]/k), constant term 1."""
    return _module_powers(F, lambda k: 1)


def ext_powers(F: Series) -> Series:
    """E[F] = sum_r e_r[F] = exp(sum_k (-1)^{k-1} p_k[F]/k)."""
    return _module_powers(F, lambda k: 1 if k % 2 else -1)


def sym_powers_signed(F: Series) -> Series:
    """H^pm[F] = sum_r (-1)^r h_r[F] = 1/E[F]."""
    return _module_powers(F, lambda k: -1 if k % 2 else 1)


def ext_powers_signed(F: Series) -> Series:
    """E^pm[F] = sum_r (-1)^r e_r[F] = 1/H[F]."""
    return _module_powers(F, lambda k: -1)


def sym_power_layers(F: Series) -> list[Series]:
    """[h_0[F], h_1[F], ..., h_N[F]] via the recurrence r*h_r[F] = sum p_k[F] h_{r-k}[F].

    Layer r is the length-r slice of the symmetrized powers: summed over
    degrees it contributes sum_{l(lam)=r} H_lam[F].
    """
    return [Series(F.max_degree, X) for X in _newton(_power_sums(F, lambda k: 1), F.max_degree)]


def ext_power_layers(F: Series) -> list[Series]:
    """[e_0[F], ..., e_N[F]] via r*e_r[F] = sum (-1)^{k-1} p_k[F] e_{r-k}[F]."""
    return [Series(F.max_degree, X) for X in _newton(_power_sums(F, lambda k: 1 if k % 2 else -1), F.max_degree)]


def higher_module(Q: Series, lam, exterior: bool = False) -> SymFunc:
    """The product prod_i h_{m_i}[q_i] (or e_{m_i}[q_i]) over the parts i of lam.

    q_i is the degree-i component of Q, and each factor is the degree m_i * i
    component of ``pleth`` (absent when q_i = 0); lam with a part above Q's
    window is rejected since the needed component is not defined.
    """
    lam = lam if isinstance(lam, Partition) else Partition.of(lam)
    if lam.size == 0:
        return ONE
    if lam.parts[0] > Q.max_degree:
        raise ValueError(f"series truncated at {Q.max_degree}, needs degree {lam.parts[0]}")
    base = e_of if exterior else h_of
    out = ONE
    for i, m in sorted(lam.multiplicities().items()):
        out = out * pleth(base(m), Q.component(i)).components.get(m * i, ZERO)
        if out.is_zero:
            return ZERO
    return out


# ---------------------------------------------------------------------------
# Combinatorial product expansions and plethystic inversion
# ---------------------------------------------------------------------------


def _factor_partitions(rows: dict[int, list], n: int, one, mul):
    """Yield (d, key, c) for every partition of d <= n into factor parts, c = one * prod rows[m][j].

    The partition comes as its SymFunc key.  The product runs over each part
    value m of multiplicity j < len(rows[m]).  One explicit stack extends a
    partition by j parts m below its last part, adding j times the key of
    p_m, largest m and then largest j first, so each degree comes out in
    descending order; a zero coefficient ends its branch.  A node above
    degree 255 is refused as it comes off the stack, so no window a SymFunc
    cannot hold is walked.
    """
    values = sorted((m for m in rows if m <= n), reverse=True)
    units = [SymFunc._encode((m,), m) for m in values]
    stack = [(0, 0, 0, one)]
    while stack:
        d, key, i, c = stack.pop()
        if d > _TOP:
            raise ValueError(_TOO_DEEP.format(d))
        yield d, key, c
        for k in range(len(values) - 1, i - 1, -1):
            m, row, unit = values[k], rows[values[k]], units[k]
            for j in range(1, min((n - d) // m + 1, len(row))):
                x = mul(c, row[j])
                if x:
                    stack.append((d + m * j, key + j * unit, k + 1, x))


def product_slice(factors, d: int) -> SymFunc:
    """The degree-d component of prod (1 + sign*p_m)^{exponent}: ``product_series(factors, d).component(d)``."""
    return product_series(factors, d).component(d)


def product_series(factors, n: int) -> Series:
    """prod (1 + sign*p_m)^{exponent} truncated at n, read off one walk over the partitions into factor parts.

    ``factors`` is an iterable of (m, sign, exponent): m a positive int, the
    m distinct, sign and exponent in {+1, -1}.  The coefficient of p_lam is
    a product over the parts of lam: s for each part of a factor 1 + s p_m,
    which may appear at most once, and -s for each part of a factor
    (1 + s p_m)^{-1} = sum_j (-s)^j p_m^j.  The expansion never divides
    series, so it provides a side independent of the plethysm machinery.
    """
    weights, once = _factor_weights(factors, n)
    rows = {m: [w**j for j in range(2 if m in once else n // m + 1)] for m, w in weights.items()}
    comps: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for d, key, c in _factor_partitions(rows, n, 1, operator.mul):
        comps[d][key] = c
    return Series(n, {d: SymFunc._make(d, t) for d, t in enumerate(comps) if t})


def graded_product_series(factors, n: int) -> list[Series]:
    """prod (1 + sign*p_m)^{P_m(v)} truncated at n, as the list of its v^0, v^1, ..., v^n parts.

    ``factors`` holds (m, sign, P_m), checked as by ``product_series``, with
    P_m a map v-exponent -> coefficient (``families.exponent_poly``).  By the
    binomial theorem the coefficient of p_lam is the product, over each part
    value m of multiplicity j in lam, of sign^j * binom(P_m(v), j); powers of
    v above n are dropped.  It is read off the walk of ``product_series``,
    and like it multiplies no series.  Each row entry and each walk node's
    coefficient is a v-polynomial held as integer numerators over one
    denominator, reduced by one gcd per product; each term of a layer is
    brought to the layer's common denominator once, when it is built.
    """

    def mul(a, b):
        # the product of two v-polynomials (numerators, den), powers above n dropped, reduced; None for zero
        out: dict[int, int] = {}
        for i, x in a[0].items():
            for k, y in b[0].items():
                if i + k <= n:
                    out[i + k] = out.get(i + k, 0) + x * y
        out = {e: c for e, c in out.items() if c}
        if not out:
            return None
        g = gcd(a[1] * b[1], *out.values())
        return {e: c // g for e, c in out.items()}, a[1] * b[1] // g

    def exact(d: int, terms: dict[int, tuple[int, int]]) -> SymFunc:
        den = lcm(*(dx for _, dx in terms.values()))
        return SymFunc._make(d, {k: x * (den // dx) for k, (x, dx) in terms.items()}, den)

    factors = list(factors)
    _factor_weights(((m, s, 1) for m, s, _ in factors), n)
    # binoms[m][j] = sign^j * binom(P_m(v), j) = binoms[m][j-1] * sign * (P_m(v) - j + 1) / j
    binoms: dict[int, list[tuple[dict[int, int], int]]] = {}
    for m, s, P in factors:
        P = {e: Fraction(c) for e, c in P.items()}
        den = lcm(*(c.denominator for c in P.values()))
        row = [({0: 1}, 1)]
        for j in range(1, n // m + 1):
            step = {e: s * c.numerator * (den // c.denominator) for e, c in P.items()}
            step[0] = step.get(0, 0) - s * (j - 1) * den
            # binom(c, j) = 0 for an integer 0 <= c < j ends the row in zero polynomials ({}, 1)
            row.append(mul(row[-1], (step, j * den)) or ({}, 1))
        binoms[m] = row
    layers: list[dict[int, dict[int, tuple[int, int]]]] = [{} for _ in range(n + 1)]
    for d, key, (c, den) in _factor_partitions(binoms, n, ({0: 1}, 1), mul):
        for r, x in c.items():
            layers[r].setdefault(d, {})[key] = x, den
    return [Series(n, {d: exact(d, t) for d, t in comps.items()}) for comps in layers]


def pleth_inverse(F: Series) -> Series:
    """The series G with F[G] = G[F] = p_1 up to the truncation window.

    Requires F constant-free with degree-1 component exactly p_1.  With
    F = p_1 + T, G = p_1 - T[G] degree by degree: the plethysm kernel runs
    over the monomials of T, and G's degree-t component is set from step t.
    At window 0 the inverse, like F, is the zero series.
    """
    n = F.max_degree
    if not F.is_constant_free:
        raise ValueError("plethystic inversion requires a constant-free series")
    if n == 0:
        return Series(0)
    if F.component(1) != p_of((1,)):
        raise ValueError("plethystic inversion requires degree-1 component p_1")
    tail_monos = _monomials(F.components[d] for d in range(2, n + 1) if d in F.components)
    comps = {1: p_of((1,))}
    # step t reads G below degree t only, so its degree-t component is solved right after
    for t, acc in _pleth_degrees(tail_monos, comps, n):
        if not acc.is_zero:
            comps[t] = -acc
    return Series(n, comps)


def _stretches(w, X: dict[int, SymFunc], t: int) -> SymFunc:
    """sum over the divisors k of t of (w(k)/k) p_k[X_{t/k}], over the components X holds."""
    pairs = [(Fraction(c, k), _stretch(X[t // k], k)) for k in divisors(t) if t // k in X and (c := w(k))]
    return _sum_scaled(pairs) if pairs else ZERO


def _stretch_solve(w, Z, n: int) -> dict[int, SymFunc]:
    """X_1..X_n with sum_{k | t} (w(k)/k) p_k[X_{t/k}] = Z(t) for w(1) = 1: X_t is Z(t) less the lower stretches."""
    X: dict[int, SymFunc] = {}
    for t in range(1, n + 1):
        f = Z(t) - _stretches(w, X, t)
        if not f.is_zero:
            X[t] = f
    return X


def _family_pleth(w, G: Series) -> Series:
    """F_w[G] = sum_d (w(d)/d) p_d[Λ], Λ = -log(1 - G), for the divisor family F_w of the weight w.

    Λ comes from t Λ_t = t G_t + sum_{s<t} s Λ_s G_{t-s}, the degree-t
    component of D Λ = D G / (1 - G), D scaling degree s by s.
    """
    if not G.is_constant_free:
        raise ValueError("plethysm requires a constant-free inner series")
    n, g = G.max_degree, _maps(G.components)
    lam, dlam = {}, {}  # Λ_s, and s Λ_s as a packed map
    for t in range(1, n + 1):
        pairs = [(x, g[t - s]) for s, x in dlam.items() if t - s in g]
        f = _reduced_products(t, pairs + [(g[t], ({0: t}, 1))] if t in g else pairs)
        if not f.is_zero:
            dlam[t], lam[t] = (f._num, f.den), SymFunc._make(t, f._num, f.den * t)
    return Series(n, {t: _stretches(w, lam, t) for t in range(1, n + 1)})


def _family_inverse(w, n: int) -> Series:
    """The plethystic inverse of F_w truncated at n: G = 1 - exp(-Λ), Λ = -log(1 - G).

    F_w[G] = p_1 reads Λ_t = [t = 1] p_1 - sum_{d | t, d >= 2} (w(d)/d) p_d[Λ_{t/d}], which needs w(1) = 1.
    """
    if w(1) != 1:
        raise ValueError(f"the family inverse needs w(1) = 1; the weight {w.tag} has w(1) = {w(1)}")
    return Series.one(n) - series_exp(-Series(n, _stretch_solve(w, lambda t: p_of((1,)) if t == 1 else ZERO, n)))


def _exp_inverse(sign, n: int) -> Series:
    """The G with exp(sum_k sign(k) p_k[G] / k) = 1 + p_1, truncated at n, for sign(1) = 1.

    Sign 1 inverts H - 1 and sign (-1)^{k-1} inverts E - 1.  At degree t the log reads
    sum_{k | t} (sign(k)/k) p_k[G_{t/k}] = (-1)^{t-1} p_1^t / t; the key of p_1^t is t.
    """
    return Series(n, _stretch_solve(sign, lambda t: SymFunc._make(t, {t: 1 if t % 2 else -1}, t), n))
