"""Divided-difference recursions for Grothendieck and Lascoux polynomials,
their top-degree components, and basis expansions of the spanned spaces.

Both recursions walk the box C_n of weak compositions: the Lascoux
recursion on alpha itself, the Grothendieck recursion on the inversion code
c of w, and the codes of S_n are exactly C_n. At the first ascent i of the
composition (its i-th entry below the next) one `_ascent_step` climbs from a
parent: s_i alpha for L_alpha, and s_i c raised by one at entry i, the code
of w s_i, for G_w. C_n is closed under both parent rules. The base case is
x^alpha at a weakly decreasing composition: a partition for L_alpha, and
for G_w a dominant (132-avoiding) permutation, whose Rothe diagram is a
Young diagram. s_{n-1} in S_n takes n - 2 steps, not C(n, 2) - 1 as a climb
to the longest element would.

Both recursions are memoized on trimmed compositions; cached values are
immutable polynomials, so concurrent lookups can at worst recompute an
identical value. The top layers are read off these polynomials;
`verify.suite_top_las` checks that the snowy ones satisfy their own ascent
recursion.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from . import compositions, permutations
from .compositions import (
    Composition,
    enumerate_snowy_cn,
    in_cn,
    s_action,
    snowy_from_rajcode,
)
from .permutations import Permutation, all_permutations, is_inverse_fireworks
from .polyring import (
    Monomial,
    Polynomial,
    ascent_product,
    beta_component,
    bottom_leading_term,
    divided_difference,
    packed_key,
    top_component,
)

_EXPANSION_STEP_CAP = 200_000


def grothendieck(w: Iterable[int]) -> Polynomial:
    """The Grothendieck polynomial, by ascent recursion on the inversion code
    c of w: at the first i with c_i < c_{i+1}, G_w is the divided difference
    at i of (1 + b x_{i+1}) G_{w s_i}, where w s_i has code s_i c raised by
    one at entry i, and G_w = x^c once c is weakly decreasing. The memo is
    keyed by codes; the codes of S_n are the box C_n, which holds every
    parent code."""
    return _grothendieck(permutations.invcode(permutations.canonical(w)))


@lru_cache(maxsize=None)
def _grothendieck(code: Composition) -> Polynomial:
    i = _first_ascent(code)
    if i is None:
        return Polynomial.x_monomial(code)
    parent = list(s_action(code, i))
    parent[i - 1] += 1
    return _ascent_step(_grothendieck(tuple(parent)), i)


def schubert_polynomial(w: Iterable[int]) -> Polynomial:
    """The b^0 layer of the Grothendieck polynomial."""
    return beta_component(grothendieck(w), 0)


def top_grothendieck(w: Iterable[int]) -> Polynomial:
    """The Castelnuovo-Mumford polynomial: top b-layer of grothendieck(w)."""
    return top_component(grothendieck(w))[1]


def lascoux(alpha: Iterable[int]) -> Polynomial:
    """The Lascoux polynomial, by ascent recursion toward the decreasing sort."""
    return _lascoux(compositions.canonical(alpha))


@lru_cache(maxsize=None)
def _lascoux(alpha: Composition) -> Polynomial:
    ascent = _first_ascent(alpha)
    if ascent is None:
        return Polynomial.x_monomial(alpha)
    return _ascent_step(_lascoux(s_action(alpha, ascent)), ascent, lascoux=True)


def _ascent_step(f: Polynomial, i: int, lascoux: bool = False) -> Polynomial:
    """One step of either recursion: the divided difference at i of
    (1 + b x_{i+1}) f for Grothendieck, and the Demazure operator at i of it,
    that is the divided difference of x_i (1 + b x_{i+1}) f, for Lascoux. The
    product is built on packed keys; the divided difference is checked."""
    return divided_difference(ascent_product(f, i, raise_i=lascoux), i)


def _first_ascent(seq: tuple[int, ...]) -> int | None:
    """The first i (1-based) with seq[i - 1] < seq[i], or None when seq is
    weakly decreasing."""
    for k in range(len(seq) - 1):
        if seq[k] < seq[k + 1]:
            return k + 1
    return None


def key_polynomial(alpha: Iterable[int]) -> Polynomial:
    """The b^0 layer of the Lascoux polynomial."""
    return beta_component(lascoux(alpha), 0)


def top_lascoux(alpha: Iterable[int]) -> Polynomial:
    """Top b-layer of the Lascoux polynomial."""
    return top_component(lascoux(alpha))[1]


# -- basis expansions ---------------------------------------------------------


def expand_top_into_snowy_basis(f: Polynomial, n: int) -> dict[Composition, int]:
    """Expand a member of the top span into the snowy top Lascoux basis.

    Runs `_eliminate`: each pivot x^m must be the rajcode of a snowy
    composition alpha in the box for n, and top_lascoux(alpha) has leading
    monomial x^m with coefficient one. Raises ValueError when no basis
    element matches, which signals that f lies outside the span.
    """
    if f.beta_degree() > 0:
        raise ValueError("top-layer expansion expects a polynomial free of b")

    def basis(code: Composition) -> tuple[Composition, Polynomial]:
        try:
            alpha = snowy_from_rajcode(code)
        except ValueError:
            raise ValueError(f"leading monomial {code} matches no snowy basis element") from None
        if not in_cn(alpha, n):
            raise ValueError(f"basis element {alpha} falls outside the box for n={n}")
        return alpha, top_lascoux(alpha)

    return {alpha: layer[0] for alpha, layer in _eliminate(f, basis, "top layer").items()}


def expand_grothendieck_into_lascoux(
    w: Iterable[int], n: int | None = None
) -> dict[Composition, Polynomial]:
    """Coefficients g_alpha(b) with grothendieck(w) = sum g_alpha * lascoux(alpha).

    Runs `_eliminate`: a pivot b^d x^alpha is matched with lascoux(alpha),
    whose lowest layer is the key polynomial with leading monomial x^alpha.
    The elimination stops only on a zero remainder, so the coefficients
    rebuild grothendieck(w) exactly; `verify.suite_expansions` rebuilds it
    independently. Raises ValueError when n is below len(w), before any
    work, and ArithmeticError for an index outside the box for n or a
    negative coefficient.
    """
    w = permutations.canonical(w)
    least = max(len(w), 1)
    if n is None:
        n = least
    if n < least:
        raise ValueError(
            f"the box for n={n} cannot hold the expansion of {w}, which needs n >= {least}"
        )
    out: dict[Composition, Polynomial] = {}
    for alpha, layer in _eliminate(grothendieck(w), lambda a: (a, lascoux(a)), w).items():
        if not in_cn(alpha, n):
            raise ArithmeticError(f"expansion of {w} leaves the box for n={n}: {alpha}")
        if any(c < 0 for c in layer.values()):
            raise ArithmeticError(f"expansion of {w} has a negative coefficient at {alpha}")
        out[alpha] = Polynomial({Monomial((), d): c for d, c in layer.items()})
    return out


def _select_pivot(remainder: Polynomial) -> tuple[int, Monomial, int]:
    """Pivot term: the tail-lex leading term of the lowest b-layer, as
    (b-exponent, monomial of that layer, coefficient)."""
    return bottom_leading_term(remainder)


def _eliminate(target: Polynomial, basis, name) -> dict[Composition, dict[int, int]]:
    """Greedy triangular elimination, shared by both expansions; returns
    {alpha: {d: c}}.

    Each step takes the pivot c * b^d * x^m of the remainder, asks basis(m)
    for the index alpha and an element whose pivot is x^m with coefficient
    one, and subtracts c * b^d * element. A pivot must lie in a higher
    b-layer than the one before, or in the same layer and be tail-lex
    smaller; otherwise, or past _EXPANSION_STEP_CAP steps, ArithmeticError
    names the step."""
    coeffs: dict[Composition, dict[int, int]] = {}
    remainder = target
    last = None
    steps = 0
    while remainder:
        if steps == _EXPANSION_STEP_CAP:
            raise ArithmeticError(
                f"greedy expansion of {name} did not finish within {steps} steps"
            )
        steps += 1
        d, mono, coeff = _select_pivot(remainder)
        order = (-d, packed_key(mono.xexp))
        if last is not None and order >= last:
            raise ArithmeticError(
                f"greedy expansion of {name} stalled at step {steps}: pivot "
                f"b^{d} x^{mono.xexp} does not follow the previous pivot"
            )
        last = order
        alpha, element = basis(mono.xexp)
        coeffs.setdefault(alpha, {})[d] = coeff
        remainder = remainder + Polynomial.term(-coeff, (), d) * element
    return coeffs


# -- bases of the top span ------------------------------------------------------


def vhat_basis(n: int) -> tuple[list[Permutation], list[Composition]]:
    """Index sets for the two bases of the degree-n top span: inverse
    fireworks permutations and snowy box compositions. `verify.suite_qbell`
    checks that both have Bell(n) elements, and the psw and top-las suites
    that each meets every rajcode class once."""
    if n < 1:
        raise ValueError("n must be positive")
    fireworks = [
        permutations.canonical(w)
        for w in all_permutations(n)
        if is_inverse_fireworks(w)
    ]
    return fireworks, enumerate_snowy_cn(n)
