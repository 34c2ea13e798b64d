import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chordspec import polynomials
from chordspec.appendix import appendix_polynomial
from chordspec.polynomials import (
    EQUAL,
    GREATER,
    LESS,
    IntPolynomial,
    _Bracket,
    _values_at,
    compare_largest_roots,
    poly_gcd,
    root_bound,
    round_largest_root,
    sturm_chain,
)
from oracles import (
    count_roots_above,
    count_roots_in_interval,
    oracle_compare_largest_roots,
    oracle_poly_gcd,
    oracle_squarefree_part,
    oracle_sturm_chain,
)


def poly(*ascending):
    return IntPolynomial(ascending)


def squarefree_part(p):
    """p's squarefree part, primitive with a positive leading coefficient:
    the first element of its memoised Sturm chain."""
    return polynomials._squarefree_chain(p)[0]


def _load_bench():
    """benchmarks/bench_kernels.py as a module, without running its main."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _float_largest_root(p):
    """The largest real root of p by numpy's companion-matrix eigenvalues;
    nan when it finds none."""
    return max((r.real for r in np.roots(p.coeffs[::-1]) if abs(r.imag) < 1e-7),
               default=math.nan)


def test_arithmetic_and_normalization():
    p = poly(1, 2, 3)
    q = poly(-1, -2, -3, 0, 0)
    assert (p + q).is_zero
    assert p - q == poly(2, 4, 6)
    assert p * poly(0, 1) == poly(0, 1, 2, 3)
    assert 2 * p == poly(2, 4, 6)
    assert p.derivative() == poly(2, 6)
    assert p.degree == 2 and q.degree == 2


def test_evaluation_exact():
    p = poly(-24, 40, -13, 1)  # x^3 - 13x^2 + 40x - 24
    assert p(0) == -24
    assert p(1) == 4
    assert p(Fraction(1, 2)) == Fraction(-24) + 20 - Fraction(13, 4) + Fraction(1, 8)


def test_text_rendering_matches_layout():
    p = poly(-24, 40, -13, 1)
    assert str(p) == "x^3 - 13x^2 + 40x - 24"
    assert poly(0, -1, 1).text() == "x^2 - x"
    assert poly(5).text() == "5"
    assert poly(0, 0, 0).text() == "0"


def test_gcd_and_squarefree():
    p = poly(-1, 1) * poly(-1, 1) * poly(-2, 1)  # (x-1)^2 (x-2)
    sf = squarefree_part(p)
    assert sf == poly(2, -3, 1)  # (x-1)(x-2)
    g = poly_gcd(p, poly(-1, 1) * poly(-3, 1))
    assert g == poly(-1, 1)
    assert squarefree_part(poly(-6, 2)) == poly(-3, 1)  # already squarefree
    assert squarefree_part(poly(6, -2)) == poly(-3, 1)


def test_root_counts():
    # the Sturm root counts with which test_spectral checks the float index
    p = poly(2, -3, 1)  # roots 1, 2
    assert count_roots_above(p, Fraction(0)) == 2
    assert count_roots_above(p, Fraction(3, 2)) == 1
    assert count_roots_above(p, Fraction(5, 2)) == 0
    assert count_roots_in_interval(p, Fraction(1, 2), Fraction(3, 2)) == 1
    # ends that are roots are excluded from the open interval
    assert count_roots_in_interval(p, 1, 2) == 0
    assert count_roots_in_interval(p, 1, 3) == 1
    assert count_roots_above(p, 1) == 1


def test_root_counts_at_a_root_end_with_a_root_closer_than_any_fixed_step():
    p = poly(0, -1, 1 << 31)  # x * (2^31 x - 1): roots 0 and 2^-31
    assert count_roots_above(p, 0) == 1
    assert count_roots_in_interval(p, 0, 1) == 1
    assert count_roots_in_interval(p, -1, Fraction(1, 1 << 31)) == 1


def test_bracket_halving_steps_off_roots():
    # p: (x - 1)(x - 2); p2: roots -2, 2, an integer largest root; p3: bound
    # 2, so the first halving point, 0, is a root, and so is the first point
    # 1/4 stepped to from it
    p3 = poly(0, 3, -16, 16)  # x (4x - 1) (4x - 3)
    for p, top in ((poly(2, -3, 1), 2), (poly(-4, 0, 1), 2), (p3, Fraction(3, 4))):
        bracket = _Bracket(sturm_chain(p))
        assert bracket.roots() == p.degree
        while bracket.roots() > 1 or (bracket.hi - bracket.lo) * 8 > bracket.den:
            bracket.halve()
            lo, hi = Fraction(bracket.lo, bracket.den), Fraction(bracket.hi, bracket.den)
            assert p(lo) != 0 and p(hi) != 0, (p, lo, hi)
            assert lo < top < hi, (p, lo, hi)
            assert bracket.roots() == count_roots_in_interval(p, lo, hi)
        assert count_roots_above(p, hi) == 0
    assert _Bracket(sturm_chain(poly(1, 0, 1))).roots() == 0


def test_compare_largest_roots_orders():
    a = poly(2, -3, 1)  # max root 2
    b = poly(6, -5, 1)  # max root 3
    assert compare_largest_roots(a, b) == LESS
    assert compare_largest_roots(b, a) == GREATER
    assert compare_largest_roots(a, a) == EQUAL


def test_compare_equal_roots_across_distinct_polynomials():
    # both have largest root exactly 3, with different other factors
    a = poly(-3, 1) * poly(1, 1)
    b = poly(-3, 1) * poly(5, 1) * poly(-1, 1)
    assert compare_largest_roots(a, b) == EQUAL


def test_compare_close_irrational_roots():
    # x^2 - 2 (max root sqrt2) vs x^2 - 2 + tiny perturbation
    a = poly(-2, 0, 1)
    b = poly(-2 * 10**20 + 1, 0, 10**20)
    assert compare_largest_roots(b, a) == LESS
    assert compare_largest_roots(a, b) == GREATER


def test_separated_roots_compare_with_or_without_estimates():
    # the same verdicts with no estimates and with nan ones, where the
    # brackets decide from the root bounds, and with the real roots
    one = poly(-1, 1)  # root 1, root bound 2
    cubic = poly(-3, 1) * poly(1, 1) * poly(2, 1)  # largest root 3, root bound 8
    pairs = ((one, poly(-100, 1)), (one, poly(-2, 1)), (cubic, poly(-1000, 0, 1)),
             (one, poly(-2, 0, 1)))
    for p, q in pairs:
        rp, rq = _float_largest_root(p), _float_largest_root(q)
        for estimates, swapped in ((None, None), ((math.nan, math.nan), (math.nan, math.nan)),
                                   ((rp, rq), (rq, rp))):
            assert compare_largest_roots(p, q, estimates) == LESS
            assert compare_largest_roots(q, p, swapped) == GREATER


def _rooted(*roots, extra=poly(1)):
    """Product of (b x - a) over the rational roots a/b, times extra."""
    p = extra
    for r in roots:
        r = Fraction(r)
        p = p * poly(-r.numerator, r.denominator)
    return p


# (polynomial, its real roots as floats, descending; at least two)
_SEEDED_CASES = [
    (_rooted(1, 2, 5), [5.0, 2.0, 1.0]),
    (_rooted(5, Fraction(1, 3)), [5.0, 1 / 3]),
    (_rooted(Fraction(5 * 10**10 + 1, 10**10), -1), [5.0000000001, -1.0]),
    (_rooted(Fraction(5 * 10**11 - 1, 10**11), 2), [4.99999999999, 2.0]),
    (_rooted(5, extra=poly(-2, 0, 1)), [5.0, math.sqrt(2), -math.sqrt(2)]),
    (_rooted(-2, extra=poly(-2, 0, 1)), [math.sqrt(2), -math.sqrt(2), -2.0]),
    (_rooted(0, -1), [0.0, -1.0]),
    (_rooted(0, 3, extra=poly(1, 0, 1)), [3.0, 0.0]),
    (_rooted(Fraction(-7, 2), -4), [-3.5, -4.0]),
]


# estimates to pass to the sign certificate, from the polynomial and its
# known roots
_FORCED_ESTIMATES = {
    "bound": lambda p, roots: float(root_bound(p)),
    "-bound": lambda p, roots: -float(root_bound(p)),
    "largest root": lambda p, roots: roots[0],
    "smallest root": lambda p, roots: roots[-1],
    "between roots": lambda p, roots: (roots[0] + roots[1]) / 2,
    "nan": lambda p, roots: math.nan,
    "inf": lambda p, roots: math.inf,
    "-inf": lambda p, roots: -math.inf,
}


def test_seeded_comparison_agrees_with_oracle_whatever_the_estimate():
    # every case against every case, and against it times (x^3 - 7)(x^2 + 1),
    # which adds the root 7^(1/3) and a pair of complex roots, with no
    # estimates and with each kind of passed estimate. The estimates reach
    # only the sign certificate: a bad one can make it decline, never
    # decide wrong
    roots_of = {}
    pairs = []
    for p, roots in _SEEDED_CASES:
        roots_of[p] = roots
    for p, _ in _SEEDED_CASES:
        for q, q_roots in _SEEDED_CASES:
            wider = q * poly(-7, 0, 0, 1) * poly(1, 0, 1)
            roots_of[wider] = sorted(q_roots + [7 ** (1 / 3)], reverse=True)
            pairs += [(p, q), (p, wider)]
    want = [oracle_compare_largest_roots(a, b) for a, b in pairs]
    for (a, b), w in zip(pairs, want):
        assert compare_largest_roots(a, b) == w, (a, b)
        assert compare_largest_roots(b, a) == -w, (b, a)
    for label, force in _FORCED_ESTIMATES.items():
        for (a, b), w in zip(pairs, want):
            ra, rb = force(a, roots_of[a]), force(b, roots_of[b])
            assert compare_largest_roots(a, b, (ra, rb)) == w, (label, a, b)
            assert compare_largest_roots(b, a, (rb, ra)) == -w, (label, b, a)


def test_compare_on_coefficients_beyond_floats():
    # (p, q, the order of their largest roots; None: ask the Fraction oracle),
    # with no estimates and with the nan ones a float solve of such
    # coefficients gives
    cases = [
        # (10^200 x - 1)(10^200 x - 3): leading coefficient 10^400
        (_rooted(Fraction(1, 10**200), Fraction(3, 10**200)), _rooted(Fraction(2, 10**200)),
         None),
        # a root at 10^310, beyond the float range
        (_rooted(10**310, 1), _rooted(10**310 + 1), None),
        # x^10 - c x with c = 10^300, 2 * 10^300: the coefficients fit in
        # floats, the tenth power of a root bound does not. The largest root
        # is the one real root of x^9 = c, c^(1/9), which grows with c
        (poly(0, -(10**300), *[0] * 8, 1), poly(0, -2 * 10**300, *[0] * 8, 1), LESS),
    ]
    for p, q, want in cases:
        if want is None:
            want = oracle_compare_largest_roots(p, q)
        for estimates in (None, (math.nan, math.nan)):
            assert compare_largest_roots(p, q, estimates) == want, (p, q)
            assert compare_largest_roots(q, p, estimates) == -want, (q, p)


def test_compare_identical_polynomials_still_checks_input():
    with pytest.raises(ValueError):
        compare_largest_roots(poly(5), poly(5))
    with pytest.raises(ValueError):
        compare_largest_roots(poly(1, 0, 1), poly(1, 0, 1))  # x^2 + 1
    p = poly(1, 0, 1) * poly(-3, 1)
    assert compare_largest_roots(p, p) == EQUAL
    # the chain of a polynomial without real roots is memoised like any
    # other, and a comparison that finds it there still raises
    rootless = poly(2, 0, 3, 0, 1)  # (x^2 + 1)(x^2 + 2)
    polynomials._squarefree_chain(rootless)
    hits = polynomials._squarefree_chain.cache_info().hits
    for _ in range(2):
        with pytest.raises(ValueError):
            compare_largest_roots(rootless, rootless)
    assert polynomials._squarefree_chain.cache_info().hits == hits + 2


def test_squarefree_chain_is_built_once_per_polynomial(monkeypatch):
    calls = []
    chain = polynomials.sturm_chain
    monkeypatch.setattr(polynomials, "sturm_chain", lambda p: calls.append(p) or chain(p))
    polynomials._squarefree_chain.cache_clear()
    p = poly(-3, 1) * poly(1, 1) * poly(-2, 0, 1)  # largest root 3
    q = poly(-2, 1) * poly(5, 1)  # largest root 2
    for _ in range(3):
        assert compare_largest_roots(p, p) == EQUAL
        assert compare_largest_roots(p, q, (3.0, 2.0)) == GREATER
        assert compare_largest_roots(q, p, (2.0, 3.0)) == LESS
    # with estimates, p against q is settled by the sign certificate, which
    # builds no chain; without, q's chain is built once too
    assert calls == [p]
    for _ in range(3):
        assert compare_largest_roots(p, q) == GREATER
        assert compare_largest_roots(q, p) == LESS
    assert calls == [p, q]
    assert isinstance(polynomials._squarefree_chain(p), tuple)


def _bracketed(monkeypatch):
    """The polynomials compare_largest_roots hands to the Sturm bracket path,
    in call order; a pair the sign certificate settles adds none."""
    calls = []
    bracket = polynomials._bracket_largest_root
    monkeypatch.setattr(polynomials, "_bracket_largest_root",
                        lambda p: calls.append(p) or bracket(p))
    return calls


def test_certificate_declines_when_q_has_two_roots_above_the_split(monkeypatch):
    calls = _bracketed(monkeypatch)
    p = poly(-1, 1)  # root 1
    one_above = _rooted(2, 6)  # split at 3.5: one root above it
    two_above = _rooted(5, 6)  # both roots above it: q(3.5) has q's leading sign
    assert compare_largest_roots(p, one_above, (1.0, 6.0)) == LESS
    assert compare_largest_roots(one_above, p, (6.0, 1.0)) == GREATER
    assert calls == []
    assert compare_largest_roots(p, two_above, (1.0, 6.0)) == LESS
    assert compare_largest_roots(two_above, p, (6.0, 1.0)) == GREATER
    assert calls == [p, two_above, two_above, p]


def test_certificate_declines_a_split_point_that_is_a_root(monkeypatch):
    # estimates passed so that the split point (rp + rq) / 2 is exactly 3
    calls = _bracketed(monkeypatch)
    low, high = poly(-1, 1), _rooted(3, 5)  # 3 is a root of high: q(x) = 0
    assert compare_largest_roots(low, high, (1.0, 5.0)) == LESS
    assert compare_largest_roots(high, low, (5.0, 1.0)) == GREATER
    assert calls == [low, high, high, low]
    # 3 is the largest root of low: the Taylor shift's constant term is 0
    calls.clear()
    low, high = _rooted(1, 3), poly(-5, 1)
    assert compare_largest_roots(low, high, (2.0, 4.0)) == LESS
    assert compare_largest_roots(high, low, (4.0, 2.0)) == GREATER
    assert calls == [low, high, high, low]


def test_certificate_does_not_vouch_for_a_rootless_polynomial():
    # the Taylor shift of x^2 + 1 at any x >= 0 has positive coefficients,
    # and q has a root above x: only the sign change below the estimate
    # shows that x^2 + 1 has no root, and the bracket path raises
    rootless, q = poly(1, 0, 1), poly(-5, 1)
    for r in (-3.0, 0.0, 1.0, 4.0):
        with pytest.raises(ValueError):
            compare_largest_roots(rootless, q, (r, 5.0))
        with pytest.raises(ValueError):
            compare_largest_roots(q, rootless, (5.0, r))


def test_certificate_settles_every_appendix_fan_chain_pair(monkeypatch):
    # all g12/g18 pairs verify_appendix compares at orders 7..30, both ways
    # round, with the templates' Perron roots it passes: the certificate
    # settles each with no chain and no division, and agrees with the Sturm
    # path, which runs when no estimates are passed
    pairs, estimates = _load_bench().appendix_pairs(7, 30)
    assert len(pairs) == 484
    pairs += [(b, a) for a, b in pairs]
    estimates += [(rb, ra) for ra, rb in estimates]
    calls = _bracketed(monkeypatch)
    divisions = []
    divide = polynomials._divide
    monkeypatch.setattr(polynomials, "_divide", lambda a, b: divisions.append(1) or divide(a, b))
    got = [compare_largest_roots(a, b, e) for (a, b), e in zip(pairs, estimates)]
    assert calls == [] and divisions == []
    assert got == [compare_largest_roots(a, b) for a, b in pairs]
    assert len(calls) == 2 * len(pairs)
    assert got.count(GREATER) == got.count(LESS) and EQUAL not in got


def test_passed_estimates_never_change_a_verdict(monkeypatch):
    # every fan-width chain pair verify_appendix compares at orders 7..30 and
    # the order-6 exact ties, in both argument orders, with estimates passed
    # in: nan, the true roots swapped, both equal, and each 1 off either way.
    # Each gives the Fraction oracle's verdict, so a certificate that trusted
    # the estimates' order without its integer checks fails here. With the
    # true roots, as with the templates' Perron roots verify_appendix passes,
    # the certificate settles every chain pair with no Sturm chain, so the
    # swapped ones do reach it
    bench = _load_bench()
    chain_pairs, perron = bench.appendix_pairs(7, 30)
    pairs = chain_pairs + list(dict.fromkeys(bench.tie_pairs(6)))
    assert len(chain_pairs) == len(perron) == 484 and len(pairs) == 485
    calls = _bracketed(monkeypatch)
    for a, b in pairs:
        want = oracle_compare_largest_roots(a, b)
        ra, rb = _float_largest_root(a), _float_largest_root(b)
        for ea, eb in [(math.nan, math.nan), (rb, ra), (ra, ra), (rb, rb)] + [
                (ra + da, rb + db) for da in (-1, 1) for db in (-1, 1)]:
            assert compare_largest_roots(a, b, (ea, eb)) == want, (a, b, ea, eb)
            assert compare_largest_roots(b, a, (eb, ea)) == -want, (b, a, eb, ea)
    assert calls
    calls.clear()
    for (a, b), (pa, pb) in zip(chain_pairs, perron):
        ra, rb = _float_largest_root(a), _float_largest_root(b)
        for ea, eb in ((ra, rb), (pa, pb)):
            compare_largest_roots(a, b, (ea, eb))
            compare_largest_roots(b, a, (eb, ea))
    assert calls == []


def _random_factor(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return poly(-rng.randint(-6, 6), 1)  # integer root
    if kind == 1:
        return poly(-rng.randint(-9, 9), rng.randint(2, 4))  # rational root
    if kind == 2:
        return poly(-rng.randint(2, 15), 0, 1)  # +-sqrt(k)
    return poly(rng.randint(1, 5), rng.randint(-1, 1), 1)  # no real root


def _random_real_rooted(rng, shared=None):
    p = poly(-rng.randint(-6, 6), 1)
    for _ in range(rng.randint(0, 3)):
        p = p * _random_factor(rng)
    if rng.random() < 0.4:
        f = _random_factor(rng)
        p = p * f * f  # a repeated factor
    if shared is not None:
        p = p * shared
    return p


def _oracle_checked_compare(p, q):
    """compare_largest_roots(p, q) with no estimates, then with numpy's
    roots as estimates, each checked against the Fraction oracle."""
    want = oracle_compare_largest_roots(p, q)
    assert compare_largest_roots(p, q) == want, (p, q)
    estimates = _float_largest_root(p), _float_largest_root(q)
    assert compare_largest_roots(p, q, estimates) == want, (p, q, estimates)
    return want


def test_compare_agrees_with_fraction_oracle_on_random_polynomials():
    rng = random.Random(20260601)
    verdicts = {LESS: 0, EQUAL: 0, GREATER: 0}
    for _ in range(300):
        shared = None
        if rng.random() < 0.4:
            # a common factor whose roots often include both largest roots
            shared = poly(-rng.randint(4, 8), 1) * _random_factor(rng)
        p = _random_real_rooted(rng, shared)
        q = p if rng.random() < 0.05 else _random_real_rooted(rng, shared)
        got = _oracle_checked_compare(p, q)
        verdicts[got] += 1
    assert min(verdicts.values()) >= 30, verdicts
    # largest roots less than 1e-9 apart: a, a + 1/d or a - 1/d with
    # d >= 10^10, above every root of the random factors
    close = {LESS: 0, GREATER: 0}
    for _ in range(60):
        a, d = rng.randint(7, 9), rng.randint(10**10, 10**12)
        p = _random_real_rooted(rng) * poly(-a, 1)
        q = _random_real_rooted(rng) * poly(-(a * d + rng.choice((-1, 1))), d)
        if rng.random() < 0.5:
            p, q = q, p
        got = _oracle_checked_compare(p, q)
        close[got] += 1
    assert min(close.values()) >= 20, close


def _primitive_part(p):
    g = math.gcd(*p.coeffs)
    return IntPolynomial([c // g for c in p.coeffs])


def _random_integer_polynomial(rng):
    """Non-monic products with repeated factors, leading coefficients of
    either sign and often a zero constant term, or dense random coefficients."""
    if rng.random() < 0.3:
        return IntPolynomial([rng.randint(-50, 50) for _ in range(rng.randint(2, 9))])
    p = poly(rng.choice((-3, -2, -1, 1, 2, 5)))
    for _ in range(rng.randint(1, 4)):
        f = _random_factor(rng)
        p = p * f * f if rng.random() < 0.3 else p * f
    if rng.random() < 0.3:
        p = p * poly(0, rng.choice((-2, 1, 3)))  # zero constant term
    return p


def _assert_remainders_match_oracle(p, *gcd_partners):
    assert sturm_chain(p) == oracle_sturm_chain(p), p
    if p.degree >= 1:
        assert squarefree_part(p) == _primitive_part(oracle_squarefree_part(p)), p
    for q in gcd_partners:
        assert poly_gcd(p, q) == oracle_poly_gcd(p, q), (p, q)


def test_integer_remainders_match_fraction_oracle():
    rng = random.Random(20261018)
    for _ in range(2000):
        p = _random_integer_polynomial(rng)
        kind = rng.randrange(4)
        if kind == 0:
            q = p.derivative()
        elif kind == 1:
            q = _random_integer_polynomial(rng)
        elif kind == 2:
            q = _random_integer_polynomial(rng) * _random_factor(rng)
            p = p * _random_factor(rng) * q  # a shared factor
        else:
            q = poly()
        _assert_remainders_match_oracle(p, q)
    # every closed form the appendix suite builds at orders 7..22: s = 3..n-2
    # covers the fixtures and both ends of every fan-width chain pair
    for n in range(7, 23):
        threshold = appendix_polynomial("g", n)
        for pid in ["g", "f"] + [f"g{i}" for i in range(1, 19)]:
            for s in range(3, n - 1) if pid in ("g12", "g18") else [None]:
                p = appendix_polynomial(pid, n, s)
                partners = [threshold, p.derivative()]
                if s is not None:
                    partners.append(appendix_polynomial(pid, n, s + 4))
                _assert_remainders_match_oracle(p, *partners)


@given(
    st.lists(st.integers(-40, 40), min_size=2, max_size=9),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_integer_signs_match_fraction_evaluation(coeffs, num, den):
    p = IntPolynomial(coeffs)
    assume(p.degree >= 1)
    chain = sturm_chain(p)
    x = Fraction(num, den)
    got = [(v > 0) - (v < 0) for v in _values_at(chain, num, den)]
    assert got == [(q(x) > 0) - (q(x) < 0) for q in chain]


def test_zero_and_constant_guards():
    with pytest.raises(ValueError):
        squarefree_part(poly(5))
    with pytest.raises(ValueError):
        poly().leading


def test_round_largest_root_steps_to_the_correct_rounding():
    # sqrt(2) = 1.41421356237309504880...; estimates a few units off in the
    # last place step back to the correctly rounded value
    p = poly(-2, 0, 1)
    for est in (math.sqrt(2), 1.414213562370, 1.414213562377):
        assert round_largest_root(p, est, 12) == 1414213562373
    assert round_largest_root(p, 1.41, 3) == 1414
    # only the largest root counts, and an integer root is never an end point
    p = poly(-6, 1) * poly(-1, 1) * poly(1, 1)
    for est in (6.0, 5.999999999998, 6.000000000003):
        assert round_largest_root(p, est, 12) == 6 * 10**12
    # a repeated largest root goes through the squarefree part
    assert round_largest_root(poly(-3, 1) * poly(-3, 1) * poly(0, 1), 3.0, 12) == 3 * 10**12
    # the midpoint of 0.5 and 0.5 + 10^-12 is no root of a monic integer
    # polynomial; x^2 - x - 1 has (1 + sqrt 5)/2 = 1.6180339887498948482...
    assert round_largest_root(poly(-1, -1, 1), 1.618033988749895, 12) == 1618033988750
