"""Divided-difference recursions for Grothendieck and Lascoux polynomials,
their top-degree components, and basis expansions of the spanned spaces.

Both recursions walk the box C_n of weak compositions: the Lascoux
recursion on alpha itself, the Grothendieck recursion on the inversion code
c of w, and the codes of S_n are exactly C_n. At the first ascent i of the
composition (its i-th entry below the next) `_climb` takes one step from
the parent that `_ascent` names: s_i alpha for L_alpha, and s_i c raised by
one at entry i, the code of w s_i, for G_w. C_n is closed under both parent
rules. The base case is x^alpha at a weakly decreasing composition: a
partition for L_alpha, and for G_w a dominant (132-avoiding) permutation,
whose Rothe diagram is a Young diagram. s_{n-1} in S_n takes n - 2 steps,
not C(n, 2) - 1 as a climb to the longest element would.
`verify.suite_recursions` checks the divided-difference identity on every
step of both recursions over a box.

The snowy top Lascoux polynomials, the basis of the top span, have a
b-free recursion of their own on the Lascoux parents, `snowy_top_lascoux`;
`verify.suite_top_las` checks it against the top layer of the full
polynomial, which `top_lascoux` reads off for any alpha.

All three recursions are memoized on trimmed compositions, and
`clear_caches` empties their memos; cached values are immutable
polynomials, so concurrent lookups can at worst recompute an identical
value. The three memos share one body, `_climb`: every step is one call
of `polyring.divided_difference` with the factor of its kind,
1 + b x_{i+1}, x_i (1 + b x_{i+1}) or x_i x_{i+1}. Each factor keeps its
pair tables across steps, and every step interns the keys of its frozen
result in one pool, and then its two tuples, of keys and of coefficients.
So all memoized polynomials share one int per monomial and one object per
equal tuple: 16 bytes a term beside the tuples' headers, paid once for
each distinct tuple. The 9,222 stepped entries of G over S_7 and L over
C_7 hold only 7,046 distinct key tuples and 1,750 coefficient tuples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from . import compositions, permutations
from .compositions import (
    Composition,
    enumerate_snowy_cn,
    in_cn,
    is_snowy,
    snowy_from_rajcode,
)
from .permutations import Permutation
from .polyring import (
    Monomial,
    Polynomial,
    Remainder,
    beta_component,
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
    return _climb(code, "grothendieck", _grothendieck)


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
    return _climb(alpha, "lascoux", _lascoux)


def _climb(c: Composition, kind: str, memo: Callable[[Composition], Polynomial]) -> Polynomial:
    """The member of a family at c, for any of the three recursions: x^c
    when c has no ascent, and otherwise the divided difference at the first
    ascent i of `_step_factor(i, kind)` times memo(parent), for the i and
    parent that `_ascent` names. `divided_difference` takes the factor and
    never builds the product; it also takes the factor's shared pair
    tables and interns the result's keys and tuples in `_KEY_POOL`. No
    step checks itself here: `verify.suite_recursions` checks the identity
    on every step of a box.

    Each memo passes itself by its module-level name, looked up when it
    runs, so a wrapper installed under that name (perfbench's tracer) and
    the memo's `cache_info()` see every level of the climb, not only the
    first call."""
    step = _ascent(c, kind)
    if step is None:
        return Polynomial.x_monomial(c)
    i, parent = step
    factor, tables = _step_factor(i, kind)
    return divided_difference(memo(parent), i, factor, tables, _KEY_POOL)


# {obj: obj}: the one int object per monomial that the keys of every step's
# result are interned to when it is frozen, and the one object per equal key
# tuple or coefficient tuple, so the memos share their keys and their tuples
_KEY_POOL: dict = {}


@lru_cache(maxsize=None)
def _step_factor(i: int, kind: str) -> tuple[Polynomial, dict[int, tuple]]:
    """The factor one step at i hands to `divided_difference`: 1 + b x_{i+1}
    for Grothendieck, x_i (1 + b x_{i+1}) for Lascoux and x_i x_{i+1} for
    the snowy top, with the pair tables that every step with this factor
    shares. At most three per index are ever built, and each holds at most
    one table per (x_i, x_{i+1}) exponent pair."""
    low = (0,) * (i - 1)
    factor = Polynomial.from_terms(
        {
            "grothendieck": [(1, (), 0), (1, low + (0, 1), 1)],
            "lascoux": [(1, low + (1,), 0), (1, low + (1, 1), 1)],
            "snowy": [(1, low + (1, 1), 0)],
        }[kind]
    )
    return factor, {}


def _ascent(c: Composition, kind: str) -> tuple[int, Composition] | None:
    """(i, parent) for the step that builds the family member at c, for the
    kind that `_step_factor` takes: i is the first ascent of c (1-based,
    c_i < c_{i+1}), and the parent is s_i c raised by one at entry i for
    "grothendieck", and s_i c for "lascoux" and "snowy". None when c is
    weakly decreasing, where the member is x^c."""
    for k in range(len(c) - 1):
        a, b = c[k], c[k + 1]
        if a < b:
            parent = c[:k] + (b + 1 if kind == "grothendieck" else b, a) + c[k + 2 :]
            # c is trimmed, so only a swapped-in last entry can be zero
            return k + 1, parent if parent[-1] else parent[:-1]
    return None


def key_polynomial(alpha: Iterable[int]) -> Polynomial:
    """The b^0 layer of the Lascoux polynomial."""
    return beta_component(lascoux(alpha), 0)


def top_lascoux(alpha: Iterable[int]) -> Polynomial:
    """Top b-layer of the Lascoux polynomial."""
    return top_component(lascoux(alpha))[1]


def snowy_top_lascoux(alpha: Iterable[int]) -> Polynomial:
    """The top layer of L_alpha for a snowy alpha, by its own b-free
    recursion: x^alpha when alpha has no ascent, and otherwise
    demazure(x_{i+1} * snowy_top_lascoux(s_i alpha), i) at the first ascent
    i, where s_i alpha is snowy too. No full Lascoux polynomial is built.
    Raises ValueError when alpha is not snowy."""
    alpha = compositions.canonical(alpha)
    if not is_snowy(alpha):
        raise ValueError(f"{alpha} is not snowy: its positive entries repeat")
    return _snowy_top(alpha)


@lru_cache(maxsize=None)
def _snowy_top(alpha: Composition) -> Polynomial:
    return _climb(alpha, "snowy", _snowy_top)


def clear_caches() -> None:
    """Empty the memos of the three recursions, the step factors with
    their pair tables, and the key pool, so that their polynomials can be
    freed. Later calls recompute identical values.

    The pool holds each distinct key, key tuple and coefficient tuple that
    a step's result has kept since the last clear, and nothing else: a key
    whose coefficient cancelled never reaches it. After G over S_7 and L
    over C_7 that is 24,718 keys, against 831,846 terms in those
    polynomials, and 8,796 tuples, against 9,222 stepped entries holding
    two each. Concurrent steps can at worst insert an identical table
    twice, or keep two objects for one key or tuple when a clear runs
    between them; no result changes."""
    for memo in (_grothendieck, _lascoux, _snowy_top, _step_factor):
        memo.cache_clear()
    _KEY_POOL.clear()


# -- basis expansions ---------------------------------------------------------


def expand_top_into_snowy_basis(f: Polynomial, n: int) -> dict[Composition, int]:
    """Expand a member of the top span into the snowy top Lascoux basis.

    Runs `_eliminate` on a private copy of f, so f is left as it was: each
    pivot x^m must be the rajcode of a snowy composition alpha in the box
    for n, and snowy_top_lascoux(alpha) has leading monomial x^m with
    coefficient one. Raises ValueError when no basis
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
        return alpha, snowy_top_lascoux(alpha)

    return {alpha: layer[0] for alpha, layer in _eliminate(f, basis, "top layer").items()}


def expand_grothendieck_into_lascoux(
    w: Iterable[int], n: int | None = None
) -> dict[Composition, Polynomial]:
    """Coefficients g_alpha(b) with grothendieck(w) = sum g_alpha * lascoux(alpha).

    Runs `_eliminate` on a private copy of grothendieck(w), so the memoized
    value is left as it was: a pivot b^d x^alpha is matched with
    lascoux(alpha), whose lowest layer is the key polynomial with leading
    monomial x^alpha.
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


def _select_pivot(remainder: Remainder) -> tuple[int, Monomial, int]:
    """Pivot term: the tail-lex leading term of the lowest b-layer, as
    (b-exponent, monomial of that layer, coefficient), read off the
    remainder's heap. Kept as a named function, called by that name once per
    step of `_eliminate`, because perfbench's `schubert.pivot` span wraps it
    by name to count `schubert.expand_full.steps`; inlined, that figure
    would read 0 without any error."""
    return remainder.pivot()


def _eliminate(target: Polynomial, basis, name) -> dict[Composition, dict[int, int]]:
    """Greedy triangular elimination, shared by both expansions; returns
    {alpha: {d: c}}.

    The remainder is one private `Remainder` copy of target, changed in
    place. Each step takes the pivot c * b^d * x^m of the remainder, asks
    basis(m) for the index alpha and an element whose pivot is x^m with
    coefficient one, and subtracts c * b^d * element, which touches only
    the element's terms. A pivot must lie in a higher b-layer than the one
    before, or in the same layer and be tail-lex smaller; otherwise, or
    past _EXPANSION_STEP_CAP steps, ArithmeticError names the step. A
    shifted element term whose b-exponent would reach 128 raises
    OverflowError."""
    coeffs: dict[Composition, dict[int, int]] = {}
    remainder = Remainder(target)
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
        remainder.subtract(coeff, d, element)
    return coeffs


# -- bases of the top span ------------------------------------------------------


def vhat_basis(n: int) -> tuple[list[Permutation], list[Composition]]:
    """Index sets for the two bases of the degree-n top span: inverse
    fireworks permutations and snowy box compositions, Bell(n) of each:
    `verify.suite_qbell` counts both from their definitions, and the psw
    and top-las suites check that each meets every rajcode class once.

    The inverse fireworks are built directly, not filtered out of S_n. Write
    each block of a set partition of [n] in decreasing order, and order the
    blocks by increasing maximum: this is a fireworks permutation, the heads
    of its decreasing runs increasing, and each one arises once, since its
    runs are its blocks. Its inverse is inverse fireworks. The partitions
    of [k] grow from those of [k - 1] by adding k to a block or as a block
    of its own; the blocks stay in order of their maxima, so the block that
    takes k moves last. The result is sorted into lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    partitions: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(1, n + 1):
        grown = []
        for blocks in partitions:
            grown.extend(
                blocks[:j] + blocks[j + 1 :] + ((k, *block),) for j, block in enumerate(blocks)
            )
            grown.append(blocks + ((k,),))
        partitions = grown
    fireworks = sorted(
        permutations.canonical(permutations.inverse([v for block in blocks for v in block]))
        for blocks in partitions
    )
    return fireworks, enumerate_snowy_cn(n)
