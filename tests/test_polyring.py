"""Polynomial ring, operators, and their algebraic identities."""

import ast
import glob
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowpoly import compositions, permutations, schubert
from snowpoly.compositions import enumerate_cn
from snowpoly.permutations import all_permutations
from snowpoly.polyring import (
    Monomial,
    Polynomial,
    Remainder,
    beta_component,
    check_divided_difference,
    demazure,
    divided_difference,
    leading_monomial_taillex,
    packed_key,
    swap_action,
    top_component,
)
from snowpoly.verify import same_partition

X1, X2, X3 = Polynomial.x(1), Polynomial.x(2), Polynomial.x(3)
B = Polynomial.beta()
ONE = Polynomial.one()


def poly_of(*triples):
    return Polynomial.from_terms(triples)


# -- arithmetic ------------------------------------------------------------


def test_addition_cancels():
    assert (X1 + X2) + (-X2) == X1


def test_monomial_product():
    assert X1 * X2 == poly_of((1, (1, 1), 0))


def test_beta_product_from_recursion_step():
    assert (ONE + B * X2) * X1 == X1 + poly_of((1, (1, 1), 1))


def test_scale_and_integer_multiplication():
    assert (X1 + X2).scale(3) == 3 * (X1 + X2)
    assert (X1 * 0).is_zero()
    # only a Polynomial is equal to a Polynomial, and only an int scales one
    assert (ONE == 1) is False
    for op in (lambda: ONE + 1, lambda: ONE - 1, lambda: ONE * "a"):
        with pytest.raises(TypeError):
            op()


def test_repr_lists_the_terms():
    assert repr(Polynomial.zero()) == "Polynomial(0)"
    assert repr(X1 + B) == "Polynomial(1*x^()*b^1 + 1*x^(1,)*b^0)"


def test_canonical_form_trims_and_drops_zeros():
    p = poly_of((1, (1, 0, 0), 0), (-1, (1,), 0))
    assert p.is_zero()
    assert Monomial.make((2, 0, 0)) == Monomial((2,), 0)
    assert Polynomial({Monomial((2, 0), 1): 1}) == poly_of((1, (2,), 1))


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial.make((-1,))
    with pytest.raises(ValueError):
        packed_key(bexp=-1)


def _random_triples(rng, nvars=4, max_exp=3, terms=6):
    return [
        (
            rng.randint(-5, 5),
            tuple(rng.randint(0, max_exp) for _ in range(rng.randint(0, nvars))),
            rng.randint(0, 2),
        )
        for _ in range(rng.randint(0, terms))
    ]


def test_items_and_coefficients_round_trip():
    rng = random.Random(2718)
    for _ in range(200):
        triples = _random_triples(rng)
        p = Polynomial.from_terms(triples)
        assert Polynomial(p.items()) == p
        assert Polynomial(dict(p.items())) == p
        assert list(p.monomials()) == [m for m, _ in p.items()]
        expected: dict[tuple, int] = {}
        for c, x, b in triples:
            mono = Monomial.make(x, b)
            expected[mono] = expected.get(mono, 0) + c
        assert dict(p.items()) == {m: c for m, c in expected.items() if c}
        for c, x, b in triples:
            assert p.coefficient(x, b) == expected[Monomial.make(x, b)]
            assert p.coefficient(tuple(x) + (0, 0), b) == p.coefficient(x, b)
        for m, c in p.items():
            assert m == Monomial.make(m.xexp, m.bexp)
            assert p.coefficient(m.xexp, m.bexp) == c


def naive_product(f, g):
    """Oracle product over Monomial views: exponents added with zip_longest."""
    out: dict[Monomial, int] = {}
    for ma, ca in f.items():
        for mb, cb in g.items():
            xexp = tuple(a + b for a, b in zip_longest(ma.xexp, mb.xexp, fillvalue=0))
            mono = Monomial.make(xexp, ma.bexp + mb.bexp)
            out[mono] = out.get(mono, 0) + ca * cb
    return Polynomial(out)


_TRIPLES = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.lists(st.integers(0, 3), max_size=5),
        st.integers(0, 2),
    ),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, _TRIPLES)
def test_product_matches_naive_reference(ftriples, gtriples):
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in ftriples)
    g = Polynomial.from_terms((c, tuple(x), b) for c, x, b in gtriples)
    assert f * g == naive_product(f, g)
    assert g * f == f * g


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, _TRIPLES)
def test_subtraction_is_addition_of_the_negative(ftriples, gtriples):
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in ftriples)
    g = Polynomial.from_terms((c, tuple(x), b) for c, x, b in gtriples)
    assert f - g == f + (-g)
    assert len(f - f) == 0


def _observed(f):
    """Everything a caller can read off f that must not depend on the order
    its terms are stored in."""
    layers = [beta_component(f, d) for d in range(f.beta_degree() + 2)]
    return (
        hash(f),
        f.ray(),
        list(f.items()),
        list(f.monomials()),
        [f.coefficient(m.xexp, m.bexp) for m, _ in f.items()],
        f.coefficient((9,)),
        [(hash(g), list(g.items())) for g in layers],
        top_component(f) if f else None,
    )


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, st.integers(1, 4), st.integers(-3, 3), st.data())
def test_term_order_is_invisible(triples, i, scale, data):
    # the same terms inserted in two orders are stored in two orders, and
    # nothing read off them, nor off -f, c * f or swap_action(f, i), differs
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
    terms = data.draw(st.permutations(list(f.items())))
    g = Polynomial(terms)
    assert g._keys == tuple(packed_key(*m) for m, _ in terms)
    for p, q in ((f, g), (-f, -g), (scale * f, scale * g), (swap_action(f, i), swap_action(g, i))):
        assert p == q and q == p
        assert _observed(p) == _observed(q)
    if len(terms) >= 2:
        # a changed coefficient, or a monomial that f lacks, in place of
        # one term: equal lengths in another order, and unequal
        (m, k), rest = terms[0], terms[1:]
        for changed in ([(m, k + 1 if k != -1 else 2)], [(Monomial((9,)), k)]):
            h = Polynomial(rest + changed)
            assert len(h) == len(f) and h != f and f != h


# -- field limits ------------------------------------------------------------------


def test_exponent_127_round_trips():
    high = (0,) * 199 + (127,)
    for p, mono, coeff in (
        (Polynomial.x_monomial((127,)), Monomial((127,), 0), 1),
        (Polynomial.term(1, (), 127), Monomial((), 127), 1),
        (Polynomial.term(-2, high, 127), Monomial(high, 127), -2),
    ):
        assert list(p.items()) == [(mono, coeff)]
        assert Polynomial(p.items()) == p
        assert p.coefficient(mono.xexp, mono.bexp) == coeff
    assert Polynomial.x_monomial((63,)) * Polynomial.x_monomial((64,)) == poly_of((1, (127,), 0))
    assert B * Polynomial.term(1, (), 126) == Polynomial.term(1, (), 127)


def test_exponent_128_is_rejected():
    for build in (
        lambda: Polynomial.x_monomial((128,)),
        lambda: Monomial.make((0, 128)),
        lambda: packed_key((0, 128)),
        lambda: Polynomial.term(1, (), 128),
        lambda: X1.coefficient((128,)),
        lambda: Polynomial({Monomial((0,) * 150 + (128,), 0): 1}),
    ):
        with pytest.raises(ValueError, match="127"):
            build()


def _x200(e):
    return Polynomial.x_monomial((0,) * 199 + (e,))


def _warm_step(f):
    """The Grothendieck step at 1 on f, after a call on x1 + x2^2 has built
    the tables of the pairs (1, 0) and (0, 2) and filled the pool."""
    factor, tables, pool = ONE + B * X2, {}, {}
    divided_difference(X1 + X2 * X2, 1, factor, tables, pool)
    return divided_difference(f, 1, factor, tables, pool)


OVERFLOWS = [
    lambda: Polynomial.x_monomial((64,)) * Polynomial.x_monomial((64,)),
    lambda: B * Polynomial.term(1, (), 127),
    lambda: demazure(Polynomial.x_monomial((127,)), 1),
    lambda: _x200(64) * _x200(64),
    lambda: (ONE + B * X2) * Polynomial.x_monomial((0, 127)),
    lambda: (ONE + B * X2) * Polynomial.term(1, (), 127),
    lambda: X1 * (ONE + B * X2) * Polynomial.x_monomial((127,)),
    lambda: divided_difference(Polynomial.x_monomial((0, 127)), 1, ONE + B * X2),
    lambda: divided_difference(Polynomial.term(1, (), 127), 1, ONE + B * X2),
    lambda: divided_difference(Polynomial.x_monomial((127,)), 1, X1 * (ONE + B * X2)),
    # the product holds x1 x2 b^128, whose image is zero: only the input shows it
    lambda: divided_difference(Polynomial.term(1, (1,), 127), 1, ONE + B * X2),
    # the same with the pair's table warm: the guard reads f before any table
    lambda: _warm_step(Polynomial.term(1, (1,), 127)),
    lambda: Remainder(B).subtract(1, 100, X1 + poly_of((1, (1, 1), 28))),
]


def test_overflow_raises_instead_of_carrying():
    for op in OVERFLOWS:
        with pytest.raises(OverflowError):
            op()
    # the ORs of these exponents reach 127, but no product exponent passes 65
    high_x = Polynomial.x_monomial((64,)) + Polynomial.x_monomial((63,))
    high_b = Polynomial.term(1, (), 64) + Polynomial.term(1, (), 63)
    for f, m in ((high_x, X1), (high_b, B * X2)):
        assert divided_difference(f, 1, m) == divided_difference(m * f, 1)


OVERFLOW_SCRIPT = """
from tests.test_polyring import OVERFLOWS

for op in OVERFLOWS:
    try:
        print("returned", list(op().items()))
    except OverflowError:
        print("OverflowError")
"""


def test_overflow_raises_under_optimize():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), root, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OVERFLOW_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["OverflowError"] * len(OVERFLOWS)


# -- variable swap ------------------------------------------------------------


def test_swap_examples():
    assert swap_action(X1, 1) == X2
    assert swap_action(X1 * X2, 1) == X1 * X2
    assert swap_action(poly_of((1, (2, 0, 1), 0)), 2) == poly_of((1, (2, 1), 0))


def test_swap_is_involutive():
    p = poly_of((2, (1, 2), 0), (3, (0, 0, 4), 1), (-1, (), 2))
    for i in (1, 2, 3, 5):
        assert swap_action(swap_action(p, i), i) == p


def _padded(mono: Monomial, i: int) -> list[int]:
    """The x-exponents of mono, padded with zeros to at least i + 1 entries."""
    return [e for e, _ in zip_longest(mono.xexp, range(i + 1), fillvalue=0)]


def naive_swap(f, i):
    """Oracle swap over Monomial views."""
    out: dict[Monomial, int] = {}
    for mono, c in f.items():
        xexp = _padded(mono, i)
        xexp[i - 1], xexp[i] = xexp[i], xexp[i - 1]
        out[Monomial.make(xexp, mono.bexp)] = c
    return Polynomial(out)


def naive_divided_difference(f, i):
    """Oracle divided difference over Monomial views: x_i^a x_{i+1}^b with
    a > b goes to (x_i x_{i+1})^b * h_{a-b-1}(x_i, x_{i+1}) times the rest,
    and to minus that with a and b exchanged when a < b."""
    out = Polynomial.zero()
    for mono, c in f.items():
        xexp = _padded(mono, i)
        a, b = xexp[i - 1], xexp[i]
        if a == b:
            continue
        lo, hi = min(a, b), max(a, b)
        xexp[i - 1] = xexp[i] = lo
        rest = Polynomial.term(c if a > b else -c, xexp, mono.bexp)
        h = Polynomial.from_terms(
            (1, (0,) * (i - 1) + (j, hi - lo - 1 - j), 0) for j in range(hi - lo)
        )
        out = out + naive_product(rest, h)
    return out


def naive_demazure(f, i):
    return naive_divided_difference(naive_product(Polynomial.x(i), f), i)


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, st.integers(1, 6))
def test_operators_match_naive_references(triples, i):
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
    assert swap_action(f, i) == naive_swap(f, i)
    assert divided_difference(f, i) == naive_divided_difference(f, i)
    assert demazure(f, i) == naive_demazure(f, i)


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, st.integers(1, 6))
def test_divided_difference_takes_its_factor(triples, i):
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
    xi, xnext = Polynomial.x(i), Polynomial.x(i + 1)
    assert divided_difference(f, i, ONE) == divided_difference(f, i)
    # the tables of the last two factors hold several distinct coefficients,
    # and those of xi + xnext add two factor terms at one offset
    several = 2 * ONE + 3 * xi - B * xnext + xi * xnext * xnext
    factors = (ONE, xi, xi * xnext, ONE + B * xnext, xi * (ONE + B * xnext), several, xi + xnext)
    for m in factors:
        product = naive_product(m, f)
        expected = naive_divided_difference(product, i)
        assert divided_difference(f, i, m) == divided_difference(product, i) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(_TRIPLES, min_size=1, max_size=6), st.integers(1, 6), st.integers(0, 4))
def test_divided_difference_keeps_tables_and_pool_across_calls(batch, i, which):
    # one (i, factor) keeps its tables and pool over many calls, as every
    # ascent step does: each call equals a fresh one and the oracle, and
    # every output key and both output tuples are the pool's objects
    xi, xnext = Polynomial.x(i), Polynomial.x(i + 1)
    factor = (ONE, xi, xi * xnext, ONE + B * xnext, xi * (ONE + B * xnext))[which]
    tables, pool, held, tuples = {}, {}, set(), set()
    for triples in batch:
        f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
        kept = divided_difference(f, i, factor, tables, pool)
        expected = naive_divided_difference(naive_product(factor, f), i)
        assert kept == divided_difference(f, i, factor) == expected
        assert all(pool[k] is k for k in kept._keys)
        assert pool[kept._keys] is kept._keys and pool[kept._coeffs] is kept._coeffs
        # only keys that some result kept are interned: cancelled ones are not
        held.update(kept._keys)
        tuples.update((kept._keys, kept._coeffs))
        assert {k for k in pool if type(k) is int} == held
        assert {t for t in pool if type(t) is tuple} == tuples
        assert len(pool) == len(held) + len(tuples)


def test_divided_difference_factor_holds_only_its_pair_and_b():
    f = X1 + X2 * X3
    assert divided_difference(f, 2, B * B * X3 - 3 * X2) == divided_difference(
        (B * B * X3 - 3 * X2) * f, 2
    )
    for i, factor in ((1, X3), (2, X1), (2, ONE + X1 * B), (1, Polynomial.x(40))):
        with pytest.raises(ValueError, match="factor may hold only"):
            divided_difference(f, i, factor)


def test_operators_reject_an_index_below_one():
    # at 0, the check would read the b-field as x_0: (x_0 - x_1)(b + x_1)
    # equals b^2 - s_0 b^2 once x_0 is b
    for op in (
        lambda: check_divided_difference(B * B, 0, B + X1),
        lambda: divided_difference(X1, 0),
        lambda: divided_difference(X1, 0, X1),
        lambda: demazure(X1, 0),
        lambda: swap_action(X1, 0),
        lambda: Polynomial.x(0),
    ):
        with pytest.raises(ValueError, match="index must be positive"):
            op()


# -- divided difference ---------------------------------------------------------


def test_divided_difference_examples():
    assert divided_difference(X1, 1) == ONE
    assert divided_difference(X1 * X1, 1) == X1 + X2
    assert divided_difference(X1 * X2, 1).is_zero()


def test_demazure_examples():
    assert demazure(ONE, 1) == ONE
    assert demazure(X1, 1) == X1 + X2
    assert demazure(X2, 1).is_zero()


def _random_poly(rng, nvars=5, max_deg=5, terms=6, with_beta=True):
    out = Polynomial.zero()
    for _ in range(rng.randint(1, terms)):
        xexp = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            xexp[rng.randrange(nvars)] += 1
        bexp = rng.randint(0, 2) if with_beta else 0
        out = out + poly_of((rng.randint(-4, 4), tuple(xexp), bexp))
    return out


def test_divided_difference_reconstruction_identity():
    # (x_i - x_{i+1}) * divided_difference(f, i) == f - s_i f
    rng = random.Random(20240)
    for _ in range(200):
        f = _random_poly(rng)
        i = rng.randint(1, 4)
        lhs = (Polynomial.x(i) - Polynomial.x(i + 1)) * divided_difference(f, i)
        assert lhs == f - swap_action(f, i)


def test_identity_check_accepts_the_quotient():
    rng = random.Random(4242)
    for _ in range(200):
        f = _random_poly(rng)
        i = rng.randint(1, 4)
        check_divided_difference(f, i, divided_difference(f, i))
    check_divided_difference(Polynomial.zero(), 2, Polynomial.zero())


def _corruptions(q: Polynomial, i: int):
    """Polynomials that differ from q in one term: dropped, sign flipped,
    or with one exponent shifted."""
    terms = list(q.items())
    for k, (mono, c) in enumerate(terms):
        rest = terms[:k] + terms[k + 1 :]
        yield "dropped", Polynomial(rest)
        yield "sign", Polynomial(rest + [(mono, -c)])
        for var in (i, i + 1, i + 2):
            xexp = list(mono.xexp) + [0] * (var - len(mono.xexp))
            xexp[var - 1] += 1
            yield "shifted", Polynomial(rest + [(Monomial.make(xexp, mono.bexp), c)])
        yield "shifted", Polynomial(rest + [(Monomial(mono.xexp, mono.bexp + 1), c)])


def test_identity_check_rejects_corrupted_quotients():
    f = poly_of((1, (3, 1), 0), (2, (0, 2, 1), 1), (-1, (1,), 0))
    q = divided_difference(f, 1)
    assert len(q) >= 3
    rng = random.Random(31)
    cases = [(f, 1, q)]
    while len(cases) < 40:
        g = _random_poly(rng)
        i = rng.randint(1, 4)
        d = divided_difference(g, i)
        if d:
            cases.append((g, i, d))
    seen = set()
    for g, i, d in cases:
        for kind, bad in _corruptions(d, i):
            seen.add(kind)
            with pytest.raises(ArithmeticError):
                check_divided_difference(g, i, bad)
    assert seen == {"dropped", "sign", "shifted"}
    with pytest.raises(ArithmeticError):
        check_divided_difference(X1, 1, Polynomial.zero())


def test_divided_difference_squares_to_zero_and_symmetry():
    rng = random.Random(7)
    for _ in range(100):
        f = _random_poly(rng)
        i = rng.randint(1, 4)
        d = divided_difference(f, i)
        assert divided_difference(d, i).is_zero()
        assert swap_action(d, i) == d


def test_demazure_idempotent():
    rng = random.Random(99)
    for _ in range(100):
        f = _random_poly(rng)
        i = rng.randint(1, 4)
        assert demazure(demazure(f, i), i) == demazure(f, i)


def test_braid_and_commutation_relations():
    rng = random.Random(123)
    for op in (divided_difference, demazure):
        for _ in range(60):
            f = _random_poly(rng)
            assert op(op(f, 1), 3) == op(op(f, 3), 1)
            assert op(op(op(f, 1), 2), 1) == op(op(op(f, 2), 1), 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3),
            st.lists(st.integers(0, 3), max_size=4),
            st.integers(0, 2),
        ),
        max_size=5,
    ),
    st.integers(1, 3),
)
def test_operators_are_linear(triples, i):
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
    g = poly_of((2, (0, 1), 1), (1, (3,), 0))
    assert divided_difference(f + g, i) == divided_difference(f, i) + divided_difference(g, i)
    assert demazure(f + g, i) == demazure(f, i) + demazure(g, i)


# -- beta layers ------------------------------------------------------------------


def test_beta_component_examples():
    groth_1324 = X1 + X2 + poly_of((1, (1, 1), 1))
    assert beta_component(groth_1324, 0) == X1 + X2
    assert beta_component(groth_1324, 1) == X1 * X2
    assert beta_component(X1, 5).is_zero()


def test_top_component_examples():
    groth_1324 = X1 + X2 + poly_of((1, (1, 1), 1))
    assert top_component(groth_1324) == (1, X1 * X2)
    mono = poly_of((1, (3, 2, 1), 0))
    assert top_component(mono) == (0, mono)
    with pytest.raises(ValueError):
        top_component(Polynomial.zero())


def bottom_leading_term(f: Polynomial) -> tuple[int, Monomial, int]:
    """Oracle pivot of the greedy elimination, apart from the heap that
    `Remainder.pivot` keeps: copy out the lowest b-layer of f and take its
    tail-lex leading term, as (b-exponent, monomial of that layer,
    coefficient)."""
    if f.is_zero():
        raise ValueError("bottom layer of the zero polynomial is undefined")
    d = min(m.bexp for m in f.monomials())
    return (d, *leading_monomial_taillex(beta_component(f, d)))


def test_bottom_leading_term_examples():
    groth_1324 = X1 + X2 + poly_of((1, (1, 1), 1))
    mixed = poly_of((4, (1, 1), 2), (2, (1,), 1), (-1, (0, 3), 1), (1, (), 3))
    mono = poly_of((1, (3, 2, 1), 0))
    for f, pivot in [
        (groth_1324, (0, Monomial((0, 1), 0), 1)),
        (mixed, (1, Monomial((0, 3), 0), -1)),
        (B * B, (2, Monomial((), 0), 1)),
        (mono, (0, Monomial((3, 2, 1), 0), 1)),
    ]:
        assert bottom_leading_term(f) == pivot
        assert schubert._select_pivot(Remainder(f)) == pivot
    with pytest.raises(ValueError):
        bottom_leading_term(Polynomial.zero())


@settings(max_examples=100, deadline=None)
@given(_TRIPLES, st.lists(_TRIPLES, max_size=6))
def test_bottom_leading_term_matches_heap_pivots(triples, tails):
    # the heap-driven pivot of a remainder changed in place agrees with the
    # oracle at every step. A step subtracts pivot * (x^m + tail): keys
    # cancel, come back and appear, and a pivot whose coefficient in the
    # element is not one survives its step. Then the remainder is drained
    # term by term, so every term it holds is checked.
    f = Polynomial.from_terms((c, tuple(x), b) for c, x, b in triples)
    remainder = Remainder(f)
    tails = iter(tails)
    while f:
        d, mono, coeff = schubert._select_pivot(remainder)
        assert (d, mono, coeff) == bottom_leading_term(f)
        tail = next(tails, ())
        element = Polynomial.x_monomial(mono.xexp) + Polynomial.from_terms(
            (c, tuple(x), b) for c, x, b in tail
        )
        remainder.subtract(coeff, d, element)
        f = f - Polynomial.term(coeff, (), d) * element
        assert bool(remainder) == bool(f)


def test_top_component_of_lascoux_021():
    from snowpoly.schubert import lascoux

    assert top_component(lascoux((0, 2, 1))) == (2, poly_of((1, (2, 2, 1), 0)))


# -- tail-lex order ------------------------------------------------------------------


def taillex_key(xexp: tuple[int, ...]):
    """Oracle sort key for the tail lexicographic order on trimmed exponents,
    built on tuples, apart from the packed keys that realize it in `polyring`.

    Two exponent vectors are compared at the largest index where they differ.
    A trimmed vector that is longer wins outright (its last entry is positive
    against an implicit zero), and equal-length vectors compare reversed.
    """
    return (len(xexp), tuple(reversed(xexp)))


def test_items_follow_taillex_then_b_exponent():
    # terms given out of order over several b-layers come out in the
    # oracle's order, whatever order they were inserted in
    rng = random.Random(1913)
    layered = 0
    for _ in range(200):
        triples = _random_triples(rng, terms=12)
        p = Polynomial.from_terms(triples)
        expected = sorted(
            {Monomial.make(x, b) for _, x, b in triples if p.coefficient(x, b)},
            key=lambda m: (taillex_key(m.xexp), m.bexp),
        )
        assert list(p.monomials()) == expected
        assert [m for m, _ in p.items()] == expected
        assert [c for _, c in p.items()] == [p.coefficient(*m) for m in expected]
        layered += len({m.bexp for m in expected}) > 1
    assert layered > 100


def test_leading_monomial_examples():
    assert leading_monomial_taillex(X1 + X2) == (Monomial((0, 1), 0), 1)
    p = poly_of((1, (2, 1), 0), (1, (1, 2), 0))
    assert leading_monomial_taillex(p) == (Monomial((1, 2), 0), 1)
    q = poly_of((1, (1, 1, 1), 0))
    assert leading_monomial_taillex(q) == (Monomial((1, 1, 1), 0), 1)


@settings(max_examples=100, deadline=None)
@given(_TRIPLES)
def test_leading_monomial_matches_taillex_sort(triples):
    f = Polynomial.from_terms((c, tuple(x), 0) for c, x, _ in triples)
    if f:
        expected = max(f.items(), key=lambda mc: taillex_key(mc[0].xexp))
        assert leading_monomial_taillex(f) == expected


def test_leading_monomial_errors():
    with pytest.raises(ValueError):
        leading_monomial_taillex(Polynomial.zero())
    with pytest.raises(ValueError):
        leading_monomial_taillex(B * X1)


def test_taillex_compares_highest_index_first():
    # not a graded order: a longer trimmed vector always wins
    assert taillex_key((5,)) < taillex_key((0, 1))
    assert taillex_key((2, 1)) < taillex_key((1, 2))
    assert taillex_key((1, 2)) == taillex_key((1, 2))


def test_demazure_of_shifted_monomial_leading_cases():
    # behavior of f -> demazure(x_{i+1} * f, i) on a monomial x^gamma:
    # descent at i gives x_i * x^(s_i gamma) with coefficient 1, a tie gives 0,
    # an ascent gives x_i * x^gamma with coefficient -1
    rng = random.Random(321)
    for _ in range(200):
        gamma = tuple(rng.randint(0, 4) for _ in range(4))
        i = rng.randint(1, 3)
        image = demazure(Polynomial.x(i + 1) * Polynomial.x_monomial(gamma), i)
        gi, gi1 = gamma[i - 1], gamma[i]
        if gi == gi1:
            assert image.is_zero()
            continue
        mono, coeff = leading_monomial_taillex(image)
        expected = list(gamma)
        if gi > gi1:
            expected[i - 1], expected[i] = expected[i], expected[i - 1]
            expected[i - 1] += 1
            assert (mono, coeff) == (Monomial.make(expected), 1)
        else:
            expected[i - 1] += 1
            assert (mono, coeff) == (Monomial.make(expected), -1)


# -- rays ------------------------------------------------------------------------


def fraction_ray(f):
    """Oracle for Polynomial.ray: each term's coefficient divided, as a
    Fraction, by the one at the least key."""
    if not f:
        return frozenset()
    c0 = next(f.items())[1]  # items come in ascending key order
    return frozenset((packed_key(*m), Fraction(c, c0)) for m, c in f.items())


_SIGNED_TRIPLES = st.lists(
    st.tuples(
        st.integers(-12, 12),
        st.lists(st.integers(0, 2), max_size=3),
        st.integers(0, 1),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(_SIGNED_TRIPLES, _SIGNED_TRIPLES, st.integers(-6, 6))
def test_ray_agrees_with_the_fraction_oracle(ftriples, gtriples, c):
    # small exponents and coefficients make equal supports, and so equal
    # rays of unequal polynomials, common among the drawn pairs
    f = Polynomial.from_terms((k, tuple(x), b) for k, x, b in ftriples)
    g = Polynomial.from_terms((k, tuple(x), b) for k, x, b in gtriples)
    assert (f.ray() == g.ray()) == (fraction_ray(f) == fraction_ray(g))
    if c:
        assert (c * f).ray() == f.ray()
    ray = f.ray()
    assert all(type(k) is int for _, k in ray)
    assert gcd(*(k for _, k in ray)) == (1 if f else 0)
    if f:
        assert dict(ray)[min(dict(ray))] > 0


def test_ray_edge_cases():
    f = poly_of((-6, (1, 2), 0), (4, (0, 1, 1), 1), (10, (), 2))
    assert dict(f.ray()) == {
        packed_key((), 2): 5,
        packed_key((1, 2), 0): -3,
        packed_key((0, 1, 1), 1): 2,
    }
    mixed = poly_of((3, (2,), 0), (-3, (0, 2), 0), (-7, (1, 1), 1))
    for c in (*range(-6, 0), *range(1, 7)):
        assert (c * f).ray() == f.ray() and (c * mixed).ray() == mixed.ray()
    assert f.ray() != mixed.ray()
    # a single term, of either sign, has the ray of its monomial
    for k in (1, -1, 12, -35):
        assert Polynomial.term(k, (0, 3), 2).ray() == {(packed_key((0, 3), 2), 1)}
    assert Polynomial.zero().ray() == frozenset() == fraction_ray(Polynomial.zero())
    assert ONE.ray() != Polynomial.zero().ray()
    # the same support in ratios 1 : 1 : 2 rather than 1 : 1 : 1
    g = poly_of((-6, (1, 2), 0), (4, (0, 1, 1), 1), (20, (), 2))
    assert f.ray() != g.ray() and fraction_ray(f) != fraction_ray(g)


@pytest.mark.parametrize("family", ["S_6", "C_6"])
def test_same_partition_on_integer_and_fraction_rays(family):
    # the psw and top-las proportionality checks decide the same on the
    # integer rays as on the oracle rays, over every top layer at n = 6
    if family == "S_6":
        items = list(all_permutations(6))
        tops = [schubert.top_grothendieck(w) for w in items]
        codes = [permutations.rajcode(w, 6) for w in items]
    else:
        items = enumerate_cn(6)
        tops = [schubert.top_lascoux(a) for a in items]
        codes = [compositions.rajcode(a) for a in items]
    rays, oracle = [f.ray() for f in tops], [fraction_ray(f) for f in tops]
    assert same_partition(rays, oracle)
    assert same_partition(rays, codes) and same_partition(oracle, codes)


def test_no_module_imports_fractions():
    # the package computes in exact integer arithmetic, rays included
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    found = []
    for path in glob.glob(os.path.join(package, "snowpoly", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [path for name in names if name.split(".")[0] == "fractions"]
    assert found == []
