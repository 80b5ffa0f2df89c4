"""Recursions, top layers, and basis expansions."""

import random
from fractions import Fraction

import pytest

from snowpoly import compositions, permutations, schubert
from snowpoly.compositions import enumerate_cn, is_snowy, s_action
from snowpoly.permutations import all_permutations, canonical, is_inverse_fireworks
from snowpoly.polyring import (
    Polynomial,
    demazure,
    divided_difference,
    leading_monomial_taillex,
    taillex_key,
)
from snowpoly.schubert import (
    _grothendieck,
    _lascoux,
    expand_grothendieck_into_lascoux,
    expand_top_into_snowy_basis,
    grothendieck,
    key_polynomial,
    lascoux,
    schubert_polynomial,
    top_grothendieck,
    top_lascoux,
    top_lascoux_recursive,
    vhat_basis,
)

ONE = Polynomial.one()
B = Polynomial.beta()


def poly_of(*triples):
    return Polynomial.from_terms(triples)


# -- independent recursion oracles (largest ascent instead of smallest) --------


def groth_largest_ascent(w):
    w = canonical(w)
    n = len(w)
    if n == 0:
        return ONE
    if all(w[k] > w[k + 1] for k in range(n - 1)):
        return Polynomial.x_monomial(range(n - 1, 0, -1))
    i = max(k + 1 for k in range(n - 1) if w[k] < w[k + 1])
    longer = list(w)
    longer[i - 1], longer[i] = longer[i], longer[i - 1]
    return divided_difference(
        (ONE + B * Polynomial.x(i + 1)) * groth_largest_ascent(longer), i
    )


def lascoux_largest_ascent(alpha):
    alpha = compositions.canonical(alpha)
    ascents = [k + 1 for k in range(len(alpha) - 1) if alpha[k] < alpha[k + 1]]
    if not ascents:
        return Polynomial.x_monomial(alpha)
    i = max(ascents)
    return demazure(
        (ONE + B * Polynomial.x(i + 1)) * lascoux_largest_ascent(s_action(alpha, i)), i
    )


# -- recursion values ------------------------------------------------------------


def test_grothendieck_examples():
    assert grothendieck((1, 3, 2, 4)) == poly_of(
        (1, (1,), 0), (1, (0, 1), 0), (1, (1, 1), 1)
    )
    assert grothendieck(()) == ONE
    assert grothendieck((1, 2, 3)) == ONE
    assert grothendieck((2, 1, 4, 3)) == poly_of(
        (1, (1, 1), 0),
        (1, (1, 0, 1), 0),
        (1, (2,), 0),
        (1, (1, 1, 1), 1),
        (1, (2, 1), 1),
        (1, (2, 0, 1), 1),
        (1, (2, 1, 1), 2),
    )


def test_lascoux_examples():
    assert lascoux((3, 2, 1)) == poly_of((1, (3, 2, 1), 0))
    assert lascoux((0, 2, 0)) == poly_of(
        (1, (2,), 0), (1, (1, 1), 0), (1, (0, 2), 0), (1, (2, 1), 1), (1, (1, 2), 1)
    )


def test_schubert_and_key_layers():
    assert schubert_polynomial((1, 3, 2, 4)) == Polynomial.x(1) + Polynomial.x(2)
    assert key_polynomial((0, 2, 0)) == poly_of(
        (1, (2,), 0), (1, (1, 1), 0), (1, (0, 2), 0)
    )
    # the bottom layer is homogeneous of the inversion degree
    for w in all_permutations(4):
        s = schubert_polynomial(w)
        assert {m.x_degree() for m in s.monomials()} == {permutations.inv(w)}
        assert leading_monomial_taillex(s)[0].xexp == permutations.invcode(w)


def test_top_examples():
    assert top_grothendieck((1, 4, 3, 2)) == poly_of((1, (2, 2, 1), 0))
    assert top_lascoux((0, 2, 1)) == poly_of((1, (2, 2, 1), 0))
    assert top_grothendieck(()) == ONE


def test_top_lascoux_recursive_examples():
    assert top_lascoux_recursive((0, 2, 0)) == poly_of((1, (2, 1), 0), (1, (1, 2), 0))
    assert top_lascoux_recursive((3, 1)) == poly_of((1, (3, 1), 0))
    assert top_lascoux_recursive((0, 1)) == poly_of((1, (1, 1), 0))
    with pytest.raises(ValueError):
        top_lascoux_recursive((1, 1))


def test_ascent_choice_independence():
    for w in all_permutations(4):
        assert grothendieck(w) == groth_largest_ascent(w)
    for alpha in enumerate_cn(4):
        assert lascoux(alpha) == lascoux_largest_ascent(alpha)


def test_caches_replay_fresh_computations():
    sample_w = (2, 4, 1, 3)
    sample_a = (0, 2, 1)
    before = grothendieck(sample_w), lascoux(sample_a)
    _grothendieck.cache_clear()
    _lascoux.cache_clear()
    assert (grothendieck(sample_w), lascoux(sample_a)) == before


def test_monomial_support_bound():
    # every monomial of a Grothendieck polynomial divides the staircase monomial
    for n in (3, 4):
        bound = tuple(range(n - 1, 0, -1))
        for w in all_permutations(n):
            for m in grothendieck(w).monomials():
                assert len(m.xexp) <= len(bound)
                assert all(e <= b for e, b in zip(m.xexp, bound))


def test_proportional_tops_within_equivalence_classes():
    from snowpoly.verify import is_scalar_multiple

    comps = enumerate_cn(4)
    for a in comps:
        for b in comps:
            if compositions.rajcode(a) == compositions.rajcode(b):
                assert is_scalar_multiple(top_lascoux(a), top_lascoux(b))


def test_is_scalar_multiple_edge_cases():
    from snowpoly.verify import is_scalar_multiple

    zero = Polynomial.zero()
    x1 = Polynomial.x(1)
    f = poly_of((3, (1, 2), 0), (-2, (0, 1, 1), 1), (5, (), 2))
    assert is_scalar_multiple(zero, zero)
    assert not is_scalar_multiple(zero, f)
    assert not is_scalar_multiple(f, zero)
    assert is_scalar_multiple(f, -2 * f)
    assert is_scalar_multiple(-2 * f, f)
    assert not is_scalar_multiple(f, f + x1)
    # same support, coefficients in ratios 1 : 1 : 2 rather than a constant
    g = poly_of((3, (1, 2), 0), (-2, (0, 1, 1), 1), (10, (), 2))
    assert not is_scalar_multiple(f, g)


# -- expansions ---------------------------------------------------------------------


def test_expand_top_examples():
    assert expand_top_into_snowy_basis(top_grothendieck((1, 3, 2, 4)), 4) == {(0, 1): 1}
    assert expand_top_into_snowy_basis(top_lascoux((0, 2, 0)), 4) == {(0, 2): 1}
    assert expand_top_into_snowy_basis(top_grothendieck((1, 4, 3, 2)), 4) == {
        (0, 2, 1): 1
    }


def test_expand_top_rejects_outsiders():
    with pytest.raises(ValueError):
        expand_top_into_snowy_basis(Polynomial.x(2), 4)  # x2 alone is no rajcode
    with pytest.raises(ValueError):
        expand_top_into_snowy_basis(B * Polynomial.x(1), 4)


def test_tops_of_positive_combinations_expand_positively():
    rng = random.Random(2718)
    comps = enumerate_cn(4)
    for _ in range(40):
        picks = rng.sample(comps, rng.randint(1, 4))
        f = Polynomial.zero()
        for alpha in picks:
            f = f + rng.randint(1, 3) * lascoux(alpha)
        from snowpoly.polyring import top_component

        top = top_component(f)[1]
        coeffs = expand_top_into_snowy_basis(top, 4)
        assert all(c > 0 for c in coeffs.values())


def test_expand_grothendieck_examples():
    assert expand_grothendieck_into_lascoux(()) == {(): ONE}
    assert expand_grothendieck_into_lascoux((1, 3, 2, 4), 4) == {(0, 1): ONE}
    coeffs = expand_grothendieck_into_lascoux((2, 1, 4, 3), 4)
    rebuilt = Polynomial.zero()
    for alpha, g in coeffs.items():
        assert all(m.xexp == () and c > 0 for m, c in g.items())
        rebuilt = rebuilt + g * lascoux(alpha)
    assert rebuilt == grothendieck((2, 1, 4, 3))


def test_expand_grothendieck_over_s4():
    for w in all_permutations(4):
        coeffs = expand_grothendieck_into_lascoux(w, 4)
        for alpha, g in coeffs.items():
            assert compositions.in_cn(alpha, 4)
            assert all(c > 0 for _, c in g.items())


def expand_by_linear_solve(target, n):
    """Oracle for the greedy Lascoux expansion: exact rational solve of target
    against the spanning set b^j * lascoux(alpha), alpha in the box for n."""
    bmax = target.beta_degree()
    columns = []
    for alpha in enumerate_cn(n):
        base = lascoux(alpha)
        for j in range(bmax + 1):
            columns.append((alpha, j, Polynomial.term(1, (), j) * base))
    monos = sorted(
        {m for _, _, p in columns for m in p.monomials()} | set(target.monomials()),
        key=lambda m: (taillex_key(m.xexp), m.bexp),
    )
    index = {m: k for k, m in enumerate(monos)}
    rows = len(monos)
    matrix = [[Fraction(0)] * (len(columns) + 1) for _ in range(rows)]
    for col, (_, _, p) in enumerate(columns):
        for m, c in p.items():
            matrix[index[m]][col] = Fraction(c)
    for m, c in target.items():
        matrix[index[m]][-1] = Fraction(c)
    pivots = []
    row_at = 0
    for col in range(len(columns)):
        pivot_row = next((r for r in range(row_at, rows) if matrix[r][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[row_at], matrix[pivot_row] = matrix[pivot_row], matrix[row_at]
        inv_p = 1 / matrix[row_at][col]
        matrix[row_at] = [v * inv_p for v in matrix[row_at]]
        for r in range(rows):
            if r != row_at and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row_at])]
        pivots.append((row_at, col))
        row_at += 1
    assert all(matrix[r][-1] == 0 for r in range(row_at, rows)), "outside the span"
    coeffs = {}
    for r, col in pivots:
        value = matrix[r][-1]
        if value:
            assert value.denominator == 1, "coefficient is not an integer"
            alpha, j, _ = columns[col]
            coeffs.setdefault(alpha, {})[j] = int(value)
    return coeffs


def test_linear_solve_fallback_agrees_with_greedy():
    for w in [(2, 1, 4, 3), (1, 4, 3, 2), (2, 4, 1, 3)]:
        greedy = expand_grothendieck_into_lascoux(w, 4)
        solved = expand_by_linear_solve(grothendieck(w), 4)
        solved_polys = {
            alpha: Polynomial.from_terms((c, (), b) for b, c in layer.items())
            for alpha, layer in solved.items()
        }
        assert solved_polys == greedy


def test_expansion_step_cap_raises(monkeypatch):
    monkeypatch.setattr(schubert, "_EXPANSION_STEP_CAP", 1)
    with pytest.raises(ArithmeticError, match="within 1 steps"):
        expand_grothendieck_into_lascoux((2, 1, 4, 3), 4)


# -- bases ---------------------------------------------------------------------------


def test_vhat_basis_sizes():
    fireworks, snowy = vhat_basis(4)
    assert (len(fireworks), len(snowy)) == (15, 15)
    assert vhat_basis(1) == ([()], [()])
    f5, s5 = vhat_basis(5)
    assert (len(f5), len(s5)) == (52, 52)


def test_vhat_basis_members():
    fireworks, snowy = vhat_basis(4)
    assert all(is_inverse_fireworks(w) for w in fireworks)
    assert all(is_snowy(a) for a in snowy)
    codes_f = {permutations.rajcode(w, 4) for w in fireworks}
    codes_s = {compositions.rajcode(a) for a in snowy}
    assert codes_f == codes_s


def test_product_of_tops_expands_into_top_basis():
    # small filtered-algebra check: products of top layers from S_2 expand
    # nonnegatively into the top layers indexed by inverse fireworks in S_4
    fireworks, _ = vhat_basis(4)
    by_code = {permutations.rajcode(w, 4): w for w in fireworks}
    for u in all_permutations(2):
        for v in all_permutations(2):
            f = top_grothendieck(u) * top_grothendieck(v)
            while f:
                mono, coeff = leading_monomial_taillex(f)
                w = by_code[mono.xexp]
                assert coeff > 0
                f = f - coeff * top_grothendieck(w)
