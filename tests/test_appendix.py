from fractions import Fraction
from itertools import islice

import pytest

from chordspec.appendix import (
    FIXTURES,
    AppendixError,
    appendix_polynomial,
    fan_chain,
    fixture_graphs,
    quotient_template,
    template_keys,
    threshold_partition,
    threshold_quotient_template,
)
from chordspec.families import k11n2_plus
from chordspec.polynomials import LESS, IntPolynomial, _Bracket, compare_largest_roots
from chordspec.spectral import charpoly_int_matrix, perron_roots, q_index, quotient_matrix
from oracles import (
    oracle_compare_largest_roots,
    oracle_fan_chain,
    oracle_fixture_orders,
    oracle_template_keys,
)


def test_threshold_polynomial_and_template():
    g7 = appendix_polynomial("g", 7)
    assert g7.coeffs == (-24, 40, -13, 1)
    assert charpoly_int_matrix(threshold_quotient_template(7)) == g7
    for n in range(6, 31):
        assert charpoly_int_matrix(threshold_quotient_template(n)) == \
            appendix_polynomial("g", n)


def test_threshold_bound_value_exact():
    for n in range(6, 41):
        pt = Fraction(n + 2) - Fraction(4, n + 2)
        val = appendix_polynomial("g", n)(pt)
        want = -Fraction(8 * n**3 + 32 * n**2 + 96 * n + 192,
                         n**3 + 6 * n**2 + 12 * n + 8)
        assert val == want and val < 0


def test_named_polynomial_samples():
    assert appendix_polynomial("g14", 13).coeffs == (72, -19, 1)
    g1 = appendix_polynomial("g1", 10)
    assert g1.coeffs[::-1] == (1, -25, 218, -776, 928)
    h1 = appendix_polynomial("h1", 10, 3)
    assert h1.degree == 4 and h1.leading == 8


def test_h1_expansion_matches_direct_formula():
    for n, s in ((10, 3), (12, 4), (20, 5), (30, 9)):
        direct = IntPolynomial([
            -72 * s**2 + (48 * n - 304) * s + 144 * n - 560,
            -((56 * n - 112) * s + 240 * n - 400),
            (8 * n + 48) * s + 84 * n + 104,
            -(8 * s + 8 * n + 76),
            8,
        ])
        assert appendix_polynomial("h1", n, s) == direct


def test_g4_factors_through_x_minus_one():
    for n in (8, 11, 15, 30):
        g4 = appendix_polynomial("g4", n)
        assert g4(1) == 0
        assert g4 == charpoly_int_matrix(quotient_template(4, n))


def test_g7_factors_through_x_minus_six():
    for n in (8, 12, 16):
        g7 = appendix_polynomial("g7", n)
        assert g7(6) == 0
        f = appendix_polynomial("f", n)
        assert IntPolynomial([-6, 1]) * f == g7


def test_templates_match_polynomials_everywhere():
    for fx in FIXTURES:
        for n, s in template_keys(fx, 7, 30):
            tmpl = quotient_template(fx.item, n, s)
            assert charpoly_int_matrix(tmpl) == \
                appendix_polynomial(fx.poly_id, n, s), (fx.item, n, s)


def test_fixture_orders_and_widths_match_the_reference_rules():
    # the builders' own range checks give the graph orders, and the fixture
    # table the template widths and chains, exactly as the per-item rules did
    for fx in FIXTURES:
        for n_lo in range(7, 31):
            for n_hi in range(n_lo, 31):
                orders = [(n, s) for n, s, _ in fixture_graphs(fx, n_lo, n_hi)]
                assert orders == oracle_fixture_orders(fx.item, n_lo, n_hi), \
                    (fx.item, n_lo, n_hi)
                keys = template_keys(fx, n_lo, n_hi)
                assert keys == oracle_template_keys(fx.item, n_lo, n_hi), \
                    (fx.item, n_lo, n_hi)
                if fx.s_gap is None:
                    continue
                assert fan_chain(keys) == oracle_fan_chain(fx.item, n_lo, n_hi)
                assert fan_chain(orders) == [
                    (n, s) for n, s in orders if (n, s + 4) in orders
                ]


def test_third_derivative_leading_terms():
    # degree-5 closed forms drop to 60x^2 after three derivatives
    for pid in ("g2", "g3", "g5", "g8"):
        d3 = appendix_polynomial(pid, 12).derivative().derivative().derivative()
        assert d3.degree == 2 and d3.leading == 60


def test_fixture_partitions_are_equitable():
    for fx in FIXTURES:
        orders = list(islice(fixture_graphs(fx, 7, 30), 2))
        assert orders, fx.item
        for n, s, g in orders:
            qm = quotient_matrix(g, fx.partition(n, s))
            assert qm is not None, (fx.item, n, s)
            assert abs(perron_roots([qm])[0] - q_index(g).q) < 1e-8


def test_fixture_full_templates_match_graph_quotients():
    for fx in FIXTURES:
        for n, s, g in islice(fixture_graphs(fx, fx.template_min_n, 30), 2):
            qm = quotient_matrix(g, fx.partition(n, s))
            tmpl = quotient_template(fx.item, n, s)
            assert qm == tmpl, fx.item


def test_monotone_chain_sample():
    a = appendix_polynomial("g12", 20, 3)
    b = appendix_polynomial("g12", 20, 7)
    assert compare_largest_roots(a, b) == LESS
    # the hub-star-pack family is NOT monotone at small fan width: at n=20
    # the s=3 index strictly beats s=7 (pinned by exact root comparison and
    # reproduced by the dense eigensolver on the matrices); it flips back to
    # increasing at moderate s
    from chordspec.polynomials import GREATER

    c = appendix_polynomial("g18", 20, 3)
    d = appendix_polynomial("g18", 20, 7)
    assert compare_largest_roots(c, d) == GREATER
    e = appendix_polynomial("g18", 20, 6)
    f = appendix_polynomial("g18", 20, 10)
    assert compare_largest_roots(e, f) == LESS


def test_bad_parameters():
    with pytest.raises(AppendixError):
        appendix_polynomial("g99", 10)
    with pytest.raises(AppendixError):
        appendix_polynomial("g12", 10)  # missing s
    with pytest.raises(AppendixError):
        appendix_polynomial("g3", 10, 3)  # stray s
    with pytest.raises(AppendixError):
        appendix_polynomial("g", 5)
    with pytest.raises(AppendixError):
        quotient_template(99, 10)


def test_threshold_quotient_of_actual_graph():
    for n in (7, 10, 19):
        g = k11n2_plus(n).graph
        assert threshold_partition(n) == [[0, 1], [2, 3], list(range(4, n))]
        qm = quotient_matrix(g, threshold_partition(n))
        assert qm is not None
        assert qm == threshold_quotient_template(n)
        assert abs(perron_roots([qm])[0] - q_index(g).q) < 1e-8


def test_fan_width_chains_agree_with_fraction_oracle(monkeypatch):
    # every g12/g18 pair verify_appendix compares at orders 7..22; the sign
    # certificate at the templates' Perron roots, the estimates
    # verify_appendix passes, decides each of them without bisection
    halvings = []
    halve = _Bracket.halve
    monkeypatch.setattr(_Bracket, "halve", lambda self: halvings.append(1) or halve(self))
    pairs = [
        (fx, n, s)
        for fx in FIXTURES if fx.s_gap is not None
        for n, s in fan_chain(template_keys(fx, 7, 22))
    ]
    assert len(pairs) == 196
    roots = iter(perron_roots([quotient_template(fx.item, n, t)
                               for fx, n, s in pairs for t in (s, s + 4)]))
    not_less = []
    for fx, n, s in pairs:
        pid = fx.poly_id
        a = appendix_polynomial(pid, n, s)
        b = appendix_polynomial(pid, n, s + 4)
        got = compare_largest_roots(a, b, (next(roots), next(roots)))
        assert got == oracle_compare_largest_roots(a, b), (pid, n, s)
        if got != LESS:
            not_less.append((pid, n, s))
    assert not_less == [("g18", n, 3) for n in range(19, 23)]
    assert halvings == []
