"""Exact integer-coefficient polynomials with Sturm-chain real-root isolation.

Coefficients are arbitrary-precision Python ints, stored ascending by degree.
Sturm chains, gcds and squarefree parts are all integer work: remainders come
from one pseudo-division that scales by |leading coefficient| and so keeps
the sign of the rational remainder, followed by division by the content (the
primitive remainder sequence). The Sturm chain of a primitive p ends in
gcd(p, p'), so one remainder sequence both tests p for repeated roots and,
when the last element is constant, is the chain of p's squarefree part.

The sign of q(a/b), b > 0, is the sign of the integer sum
c_i * a^i * b^(deg q - i). With zero signs skipped, the Sturm count
V(a) - V(b) of a squarefree p counts its roots in (a, b], also when a is a
root. A bracket of the largest root starts at the Cauchy root bound and is
halved while two brackets overlap. A midpoint that lands on a root is moved
off it, so isolating intervals have non-root ends.

A caller that holds float estimates of the two largest roots, such as the
Perron roots of the matrices whose characteristic polynomials they are, may
pass them to a comparison, which then tries a sign certificate before any
chain: at the point x halfway between the estimates, by Descartes' rule of
signs, a Taylor shift of p at x without sign variations leaves p no root in
[x, oo). The estimates are a hint that never decides anything, and the
module computes none of its own. Pairs without estimates, or that the
certificate does not settle, go to the chains.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isfinite
from typing import Iterable, Sequence

LESS = -1
EQUAL = 0
GREATER = 1


class IntPolynomial:
    """Univariate polynomial over the integers, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        return self.text()

    def text(self, var: str = "x") -> str:
        """Human-readable descending-power form, e.g. ``x^3 - 13x^2 + 40x - 24``."""
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = f"{var}" if mag == 1 else f"{mag}{var}"
            else:
                body = f"{var}^{k}" if mag == 1 else f"{mag}{var}^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# -- integer remainder sequences ------------------------------------------


def _divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of c*a divided by b, for some integer c > 0.

    Ascending integer coefficients, b nonzero; the remainder has degree below
    deg b. Each step scales by |leading(b)|, so quotient and remainder are
    positive multiples of the rational ones and keep their signs.
    """
    r = list(a)
    scale = abs(b[-1])
    quot = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        t = r[-1] if b[-1] > 0 else -r[-1]
        quot = [scale * c for c in quot]
        quot[k] = t
        r = [scale * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= t * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return quot, r


def _primitive(cs: Sequence[int]) -> IntPolynomial:
    """cs divided by its content; the sign of the leading coefficient is kept."""
    g = gcd(*cs)
    return IntPolynomial([c // g for c in cs] if g else [])


def _normalised(cs: Sequence[int]) -> IntPolynomial:
    """cs divided by its content, with a positive leading coefficient."""
    q = _primitive(cs)
    return -q if q.leading < 0 else q


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd with positive leading coefficient."""
    while not q.is_zero:
        p, q = q, _primitive(_divide(p.coeffs, q.coeffs)[1])
    return _normalised(p.coeffs) if p.coeffs else p


@functools.lru_cache(maxsize=64)
def _squarefree_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Sturm chain of p's squarefree part, which is its first element.

    The chain of the normalised p ends in gcd(p, p') up to a constant; when
    that end is constant, p is squarefree and the chain is used as it is.
    Otherwise p is divided by it and the quotient gets its own chain.
    Memoised on p (polynomials are immutable): a polynomial compared with
    itself, or in several pairs the sign certificate does not settle, is
    checked and isolated through one chain. The appendix's fan-width chain
    builds none, since the certificate decides each of its pairs.
    """
    if p.degree <= 0:
        raise ValueError("constant polynomial has no squarefree part")
    chain = sturm_chain(_normalised(p.coeffs))
    if chain[-1].degree > 0:
        chain = sturm_chain(_normalised(_divide(chain[0].coeffs, chain[-1].coeffs)[0]))
    return tuple(chain)


def sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        r = _divide(chain[-2].coeffs, chain[-1].coeffs)[1]
        if not r:
            break
        chain.append(-_primitive(r))
    return chain


def _values_at(chain: Sequence[IntPolynomial], num: int, den: int) -> list[int]:
    """den^k * q(num/den) for each q of degree k in the chain (den > 0).

    Each value is an integer with the sign of q(num/den): the homogenised
    Horner sum of c_i * num^i * den^(k-i), with no rational arithmetic.
    """
    powers = [1]
    for _ in range(chain[0].degree):
        powers.append(powers[-1] * den)
    values = []
    for q in chain:
        acc = 0
        for c, s in zip(reversed(q.coeffs), powers):
            acc = acc * num + c * s
        values.append(acc)
    return values


def _variations(values: Iterable) -> int:
    count = 0
    prev = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at_inf(chain: Sequence[IntPolynomial]) -> int:
    return _variations(0 if q.is_zero else q.leading for q in chain)


def round_largest_root(p: IntPolynomial, estimate: float, places: int) -> int:
    """The largest real root of a monic p times 10^places, correctly rounded
    to an integer k: the root lies in ((2k - 1) / d, (2k + 1) / d), with
    d = 2 10^places.

    k starts at the rounded ``estimate`` and steps by one until the Sturm
    chain of p's squarefree part counts a root above the lower point and
    none above the upper one. Neither point can be a root: a rational root
    of a monic integer polynomial is an integer. So the count is exact and
    the rounding has no tie. Each step moves k towards the root, so a wrong
    estimate costs steps, never a wrong k.
    """
    chain = _squarefree_chain(p)
    den = 2 * 10**places
    at_inf = _variations_at_inf(chain)

    def above(num: int) -> int:
        return _variations(_values_at(chain, num, den)) - at_inf

    k = round(estimate * 10**places)
    while True:
        if above(2 * k + 1):
            k += 1
        elif not above(2 * k - 1):
            k -= 1
        else:
            return k


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(m, lead) + 1


class _Bracket:
    """Open interval (lo/den, hi/den) around the largest real root of the
    squarefree chain[0], with the chain's sign variations vlo, vhi at its ends.

    It starts at the Cauchy root bound. Neither end is a root and no root
    lies above hi, so vlo - vhi counts the roots inside, and a midpoint with
    more variations than vhi has a root above it. Each halving evaluates the
    chain once, at the midpoint.
    """

    __slots__ = ("chain", "lo", "hi", "den", "vlo", "vhi")

    def __init__(self, chain: Sequence[IntPolynomial]):
        bound = root_bound(chain[0])
        self.chain = chain
        self.lo, self.hi = -bound.numerator, bound.numerator
        self.den = bound.denominator
        self.vlo = _variations(q.leading * (-1) ** q.degree for q in chain)
        self.vhi = _variations_at_inf(chain)

    def roots(self) -> int:
        return self.vlo - self.vhi

    def halve(self) -> None:
        """Keep the half above or below the midpoint that holds the largest
        root; a midpoint that is a root is first moved off it."""
        x, lo, hi, den = self.lo + self.hi, 2 * self.lo, 2 * self.hi, 2 * self.den
        values = _values_at(self.chain, x, den)
        while not values[0]:
            # x is a root: halve the grid step and move x one step up. x stays
            # at least one step below hi, and each try is a new point less
            # than one first-grid step above the first one, so this ends
            x, lo, hi, den = 2 * x + 1, 2 * lo, 2 * hi, 2 * den
            values = _values_at(self.chain, x, den)
        vx = _variations(values)
        if vx > self.vhi:
            self.lo, self.hi, self.vlo = x, hi, vx
        else:
            self.lo, self.hi, self.vhi = lo, x, vx
        self.den = den


def _bracket_largest_root(p: IntPolynomial) -> _Bracket:
    """Bracket of the largest root of p's squarefree part; ValueError when p
    is constant or has no real root."""
    bracket = _Bracket(_squarefree_chain(p))
    if bracket.roots() == 0:
        raise ValueError("polynomial without real roots")
    return bracket


def _taylor_shift(p: IntPolynomial, num: int, den: int) -> list[int]:
    """Coefficients of den^d * p((num + u) / den) in u, ascending (den > 0):
    Horner's rule on the sum of c_i * (num + u)^i * den^(d - i)."""
    shifted: list[int] = []
    scale = 1
    for c in reversed(p.coeffs):
        shifted = [num * a + b for a, b in zip(shifted + [0], [0] + shifted)]
        shifted[0] += c * scale
        scale *= den
    return shifted


def _certified_below(p: IntPolynomial, q: IntPolynomial, rp: float, rq: float) -> bool:
    """Whether three integer sign checks at x = (rp + rq) / 2 put the largest
    root of p below x and a root of q above it. (1) The Taylor shift of p at
    x has no sign variation and a nonzero constant term: p has no root in
    [x, oo). (2) p changes sign in (y, x), y = rp - 1e-9 max(1, |rp|): p has
    a real root. (3) q(x) lead(q) < 0. False proves nothing."""
    x, y = (rp + rq) / 2, rp - 1e-9 * max(1.0, abs(rp))
    if not (isfinite(x) and isfinite(y)):
        return False
    num, den = x.as_integer_ratio()
    lead = p.leading
    shifted = _taylor_shift(p, num, den)
    return (shifted[0] != 0 and all(c * lead >= 0 for c in shifted)
            and _values_at((p,), *y.as_integer_ratio())[0] * lead < 0
            and _values_at((q,), num, den)[0] * q.leading < 0)


def _apart(bp: _Bracket, bq: _Bracket) -> int | None:
    """LESS or GREATER when the brackets are disjoint, else None.

    Each bracket holds its largest root and no root above it, so disjoint
    brackets decide; endpoints compare by cross-multiplying the positive
    denominators.
    """
    if bp.hi * bq.den <= bq.lo * bp.den:
        return LESS
    if bq.hi * bp.den <= bp.lo * bq.den:
        return GREATER
    return None


def compare_largest_roots(p: IntPolynomial, q: IntPolynomial,
                          estimates: tuple[float, float] | None = None) -> int:
    """Exact ordering of the largest real roots of p and q.

    Both must have at least one real root (true for characteristic polynomials
    of symmetric matrices); identical polynomials are EQUAL once p is checked.
    Any other pair is bisected from the root bounds until the brackets are
    disjoint or share a root of gcd(p*, q*), the common-root factor of the
    squarefree parts, so exact ties terminate.

    ``estimates``, when given, is a pair of floats (rp, rq) near p's and q's
    largest roots that the caller holds already, such as the Perron roots of
    the matrices whose characteristic polynomials p and q are. Only then is
    a sign certificate halfway between them tried first, which decides pairs
    whose roots are well apart with no Sturm chain; no Newton step or other
    float root-finding runs here. Any pair is safe, nan, inf or wrong ones
    included: the estimates only place the certificate's test point, whose
    integer checks decide, so a wrong pair makes the certificate decline and
    the pair goes to the Sturm chains.
    """
    if p == q:
        _bracket_largest_root(p)
        return EQUAL
    if estimates is not None:
        rp, rq = estimates
        if rp < rq and _certified_below(p, q, rp, rq):
            return LESS
        if rq < rp and _certified_below(q, p, rq, rp):
            return GREATER
    bp = _bracket_largest_root(p)
    bq = _bracket_largest_root(q)
    g = poly_gcd(bp.chain[0], bq.chain[0])
    gchain = sturm_chain(g) if g.degree >= 1 else None
    while True:
        verdict = _apart(bp, bq)
        if verdict is not None:
            return verdict
        if gchain is not None and bp.roots() == 1 and bq.roots() == 1:
            # the intervals overlap in (lo, hi); its ends are non-roots of p*
            # resp. q*, and every root of g is a root of both, so they are not
            # roots of g
            lo = (bp.lo, bp.den) if bp.lo * bq.den >= bq.lo * bp.den else (bq.lo, bq.den)
            hi = (bp.hi, bp.den) if bp.hi * bq.den <= bq.hi * bp.den else (bq.hi, bq.den)
            if _variations(_values_at(gchain, *lo)) > _variations(_values_at(gchain, *hi)):
                # a shared root inside both isolating intervals is the largest
                # root of each factor, hence of both polynomials
                return EQUAL
        bp.halve()
        bq.halve()
