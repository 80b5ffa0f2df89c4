"""Recursions, top layers, and basis expansions."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from snowpoly import compositions, permutations, schubert
from snowpoly.compositions import enumerate_cn, is_snowy, s_action
from snowpoly.permutations import all_permutations, canonical, is_inverse_fireworks
from snowpoly.polyring import (
    Polynomial,
    demazure,
    divided_difference,
    leading_monomial_taillex,
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
    snowy_top_lascoux,
    top_grothendieck,
    top_lascoux,
    vhat_basis,
)
from snowpoly.verify import run_suite
from tests.test_polyring import bottom_leading_term, fraction_ray, taillex_key

ONE = Polynomial.one()
B = Polynomial.beta()


def poly_of(*triples):
    return Polynomial.from_terms(triples)


# -- independent recursion oracles ----------------------------------------------


def groth_w0_route(w, memo, pick=min):
    """Oracle: the recursion before the dominant stop. It climbs at an ascent
    of w (the first, or the one `pick` chooses) all the way to the longest
    element of S_len(w), where G = x^(n-1, ..., 1), with the general
    product; memoized in the caller's dict."""
    w = canonical(w)
    if w not in memo:
        n = len(w)
        ascents = [k + 1 for k in range(n - 1) if w[k] < w[k + 1]]
        if n == 0:
            memo[w] = ONE
        elif not ascents:
            memo[w] = Polynomial.x_monomial(range(n - 1, 0, -1))
        else:
            i = pick(ascents)
            longer = list(w)
            longer[i - 1], longer[i] = longer[i], longer[i - 1]
            f = (ONE + B * Polynomial.x(i + 1)) * groth_w0_route(longer, memo, pick)
            memo[w] = divided_difference(f, i)
    return memo[w]


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


def test_grothendieck_matches_the_w0_route_over_s6():
    memo = {}
    for w in all_permutations(6):
        assert grothendieck(w) == groth_w0_route(w, memo), w


def test_parent_code_is_s_i_code_raised_at_i_over_s7():
    # the recursion steps on codes alone: at the first ascent i of the code c
    # of w, the code of w s_i is s_i c with entry i raised by one
    steps = 0
    for n in range(1, 8):
        for w in all_permutations(n):
            c = permutations.invcode(w)
            i = next((k + 1 for k in range(len(c) - 1) if c[k] < c[k + 1]), None)
            if i is None:
                continue
            longer = list(w)
            longer[i - 1], longer[i] = longer[i], longer[i - 1]
            raised = list(s_action(c, i))
            raised[i - 1] += 1
            assert permutations.invcode(longer) == tuple(raised), w
            steps += 1
    # every w in S_1..S_7 but the dominant ones, counted by Catalan(1..7)
    assert steps == 5913 - (1 + 2 + 5 + 14 + 42 + 132 + 429)


def test_ascent_names_the_parent_rules_over_c7():
    # schubert._ascent swaps entries in place; the reference is s_action, and
    # for Grothendieck the swapped-in entry i raised by one (the test above);
    # the snowy top climbs on the Lascoux parents
    steps = 0
    for c in enumerate_cn(7):
        i = next((k + 1 for k in range(len(c) - 1) if c[k] < c[k + 1]), None)
        for kind in ("lascoux", "grothendieck", "snowy"):
            if i is None:
                assert schubert._ascent(c, kind) is None, c
                continue
            parent = list(s_action(c, i))
            parent[i - 1] += kind == "grothendieck"
            assert schubert._ascent(c, kind) == (i, tuple(parent)), c
            steps += 1
    assert steps == 3 * 4611


def test_grothendieck_of_simple_transpositions_closed_form():
    # G(s_k) = (prod_{i<=k} (1 + b x_i) - 1) / b: b^(|S|-1) x^S for each nonempty S
    for k in range(1, 13):
        s_k = tuple(range(1, k)) + (k + 1, k)
        expected = Polynomial.from_terms(
            (1, tuple((m >> j) & 1 for j in range(k)), m.bit_count() - 1)
            for m in range(1, 1 << k)
        )
        g = grothendieck(s_k)
        assert len(g) == 2**k - 1
        assert g == expected


def test_dominant_permutations_are_monomials():
    # 132-avoiding permutations have a Young diagram as Rothe diagram
    dominant = [
        w for w in all_permutations(7)
        if not any(w[i] < w[k] < w[j] for i, j, k in combinations(range(7), 3))
    ]
    assert len(dominant) == 429  # Catalan(7)
    for w in dominant:
        assert grothendieck(w) == Polynomial.x_monomial(permutations.invcode(w))


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
        assert {sum(m.xexp) for m in s.monomials()} == {sum(permutations.invcode(w))}
        assert leading_monomial_taillex(s)[0].xexp == permutations.invcode(w)


def test_top_examples():
    assert top_grothendieck((1, 4, 3, 2)) == poly_of((1, (2, 2, 1), 0))
    assert top_lascoux((0, 2, 1)) == poly_of((1, (2, 2, 1), 0))
    assert top_grothendieck(()) == ONE


def test_top_lascoux_snowy_examples():
    assert top_lascoux((0, 2, 0)) == poly_of((1, (2, 1), 0), (1, (1, 2), 0))
    assert top_lascoux((3, 1)) == poly_of((1, (3, 1), 0))
    assert top_lascoux((0, 1)) == poly_of((1, (1, 1), 0))


@pytest.mark.parametrize("alpha", [(3, 2, 1), (0, 0, 1)])
def test_top_las_suite_catches_a_wrong_snowy_top_layer(monkeypatch, alpha):
    # no snowy composition of the box C_4 reaches either alpha by its ascent
    # step, so each is checked only by its own: (3, 2, 1) has no ascent and
    # its layer must be x^alpha, (0, 0, 1) has its first ascent at 2
    top = schubert.top_lascoux
    monkeypatch.setattr(
        schubert, "top_lascoux", lambda a: top(a) * 2 if a == alpha else top(a)
    )
    results = {r.name: r.passed for r in run_suite("top-las", 4)}
    assert results["snowy top recursion agrees"] is False


def test_snowy_top_recursion_examples():
    assert snowy_top_lascoux((0, 2, 0)) == poly_of((1, (2, 1), 0), (1, (1, 2), 0))
    assert snowy_top_lascoux([3, 1, 0]) == poly_of((1, (3, 1), 0))
    assert snowy_top_lascoux(()) == ONE
    for alpha in [(1, 1), (0, 2, 2)]:
        with pytest.raises(ValueError, match="not snowy"):
            snowy_top_lascoux(alpha)


def test_snowy_expansion_builds_no_lascoux_polynomial():
    schubert.clear_caches()
    tops = [(w, top_grothendieck(w)) for w in all_permutations(5)]
    before = _lascoux.cache_info()
    for w, top in tops:
        assert expand_top_into_snowy_basis(top, 5)
    assert _lascoux.cache_info() == before
    assert schubert._snowy_top.cache_info().currsize > 0


def test_recursions_suite_catches_a_wrong_divided_difference(monkeypatch):
    # one stray term in every divided difference of both recursions
    stray = Polynomial.x_monomial((0, 0, 0, 9))
    real = schubert.divided_difference
    monkeypatch.setattr(
        schubert,
        "divided_difference",
        lambda f, i, factor=None, tables=None, pool=None: real(f, i, factor, tables, pool) + stray,
    )
    schubert.clear_caches()
    try:
        results = run_suite("recursions", 4)
    finally:
        monkeypatch.undo()
        schubert.clear_caches()
    assert [(r.passed, r.detail) for r in results] == [
        (False, "24 compositions, 10 ascent steps")
    ] * 2
    assert all(r.passed for r in run_suite("recursions", 4))


def test_recursions_suite_spells_its_own_step_factors(monkeypatch):
    # with the factor x_i alone every Lascoux step is a Demazure step, which
    # builds the key polynomials; a suite that read the factor from
    # schubert._step_factor would check that wrong product and pass.
    # clear_caches clears _step_factor too, so it runs only without the patch
    schubert.clear_caches()
    real = schubert._step_factor
    monkeypatch.setattr(
        schubert,
        "_step_factor",
        lambda i, kind: (Polynomial.x(i), {}) if kind == "lascoux" else real(i, kind),
    )
    try:
        results = run_suite("recursions", 4)
    finally:
        monkeypatch.undo()
        schubert.clear_caches()
    assert [(r.passed, r.detail) for r in results] == [
        (True, "24 compositions, 10 ascent steps"),
        (False, "24 compositions, 10 ascent steps"),
    ]


STRAY_SCRIPT = """
import sys
from snowpoly import cli, schubert
from snowpoly.polyring import Polynomial

real = schubert.divided_difference
stray = Polynomial.x_monomial((0, 0, 0, 9))
schubert.divided_difference = (
    lambda f, i, factor=None, tables=None, pool=None: real(f, i, factor, tables, pool) + stray
)
sys.exit(cli.main(["verify", "recursions", "4"]))
"""


def test_recursions_suite_fails_under_optimize():
    # the suite raises no assertion, so `python -O` cannot skip its check
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", STRAY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "[FAIL] Grothendieck ascent steps satisfy the divided-difference identity",
        "[FAIL] Lascoux ascent steps satisfy the divided-difference identity",
    ]
    assert lines[2:] == ["0/2 checks passed"]


def test_ascent_choice_independence():
    memo = {}
    for w in all_permutations(4):
        assert grothendieck(w) == groth_w0_route(w, memo, max)
    for alpha in enumerate_cn(4):
        assert lascoux(alpha) == lascoux_largest_ascent(alpha)


def test_caches_replay_fresh_computations():
    sample_w = (2, 4, 1, 3)
    sample_a = (0, 2, 1)
    before = grothendieck(sample_w), lascoux(sample_a), snowy_top_lascoux(sample_a)
    assert schubert._KEY_POOL
    schubert.clear_caches()
    for memo in (_grothendieck, _lascoux, schubert._snowy_top, schubert._step_factor):
        assert memo.cache_info().currsize == 0
    assert not schubert._KEY_POOL
    after = grothendieck(sample_w), lascoux(sample_a), snowy_top_lascoux(sample_a)
    assert after == before
    terms = [sorted(zip(f._keys, f._coeffs)) for f in after]
    assert terms == [sorted(zip(f._keys, f._coeffs)) for f in before]


def test_memos_share_one_key_object_per_monomial():
    # a memory guard: every step interns its output keys, and its two
    # tuples, in one pool, so only the base cases x^c hold key objects of
    # their own
    schubert.clear_caches()
    members = [
        (memo(c), schubert._ascent(c, kind) is None)
        for memo, kind in ((_grothendieck, "grothendieck"), (_lascoux, "lascoux"))
        for c in enumerate_cn(6)
    ]
    keys = [k for f, _ in members for k in f._keys]
    bases = sum(base for _, base in members)
    assert (len(keys), len(set(keys)), bases) == (28_984, 2_508, 264)
    assert len({id(k) for k in keys}) <= 2_508 + bases
    pool = schubert._KEY_POOL
    stepped = [f for f, base in members if not base]
    assert all(pool[k] is k for f in stepped for k in f._keys)
    # keys are interned when a step's result is frozen, so the pool's ints
    # are exactly the keys that the stepped entries keep, and no cancelled one
    assert {k for k in pool if type(k) is int} == {k for f in stepped for k in f._keys}
    # so are the result's two tuples: the pool's tuples are exactly the
    # distinct key and coefficient tuples, and every stepped entry holds
    # the pool's own objects
    key_tuples, coeff_tuples = {f._keys for f in stepped}, {f._coeffs for f in stepped}
    assert (len(key_tuples), len(coeff_tuples)) == (810, 196)
    assert {t for t in pool if type(t) is tuple} == key_tuples | coeff_tuples
    assert all(pool[f._keys] is f._keys and pool[f._coeffs] is f._coeffs for f in stepped)
    assert {type(k) for k in pool} == {int, tuple}
    # a call that passes no tables or pool leaves the shared ones untouched,
    # though it needs tables and keys that they do not hold
    factor, tables = schubert._step_factor(4, "lascoux")
    held, before = dict(tables), dict(pool)
    f = lascoux((0, 3, 1, 2)) * Polynomial.x(5)
    out = divided_difference(f, 4, factor)
    assert out == divided_difference(factor * f, 4)
    assert demazure(f, 4) == divided_difference(Polynomial.x(4) * f, 4)
    assert (tables, pool) == (held, before)
    assert not set(out._keys) <= pool.keys()
    assert divided_difference(f, 4, factor, tables) == out
    assert len(tables) > len(held)


def test_memo_polynomials_hold_two_tuples():
    # a memory guard that reads sizes, not the resident set: each memoized
    # polynomial holds its terms in two tuples, 16 bytes a term beside the
    # two tuple headers, and no per-instance dict, and equal tuples are
    # stored once
    assert Polynomial.__slots__ == ("_keys", "_coeffs")
    members = [memo(c) for memo in (_grothendieck, _lascoux) for c in enumerate_cn(6)]
    assert not any(hasattr(f, "__dict__") for f in members)
    assert all(type(f._keys) is type(f._coeffs) is tuple for f in members)
    terms = sum(len(f) for f in members)
    held = sum(sys.getsizeof(f._keys) + sys.getsizeof(f._coeffs) for f in members)
    assert terms == 28_984
    assert held <= 16 * terms + 2 * sys.getsizeof(()) * len(members)
    # equal tuples are shared through the pool, so the distinct tuple
    # objects take well under the per-entry sum (about 57% of it)
    distinct = {id(t): t for f in members for t in (f._keys, f._coeffs)}
    assert sum(map(sys.getsizeof, distinct.values())) <= 0.6 * held


def test_monomial_support_bound():
    # every monomial of a Grothendieck polynomial divides the staircase monomial
    for n in (3, 4):
        bound = tuple(range(n - 1, 0, -1))
        for w in all_permutations(n):
            for m in grothendieck(w).monomials():
                assert len(m.xexp) <= len(bound)
                assert all(e <= b for e, b in zip(m.xexp, bound))


def is_scalar_multiple(f, g):
    """Oracle for the proportionality the psw and top-las suites decide
    through rays: f = c * g for some nonzero rational c, or both are zero.
    It compares Fraction rays, not the production `Polynomial.ray`."""
    return fraction_ray(f) == fraction_ray(g)


def test_proportional_tops_within_equivalence_classes():
    comps = enumerate_cn(4)
    for a in comps:
        for b in comps:
            if compositions.rajcode(a) == compositions.rajcode(b):
                assert is_scalar_multiple(top_lascoux(a), top_lascoux(b))


def test_is_scalar_multiple_edge_cases():
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


def pairs_agree(xs, ys):
    """Oracle for verify.same_partition: decide every pair of items."""
    return all(
        (xu == xv) == (yu == yv) for (xu, yu), (xv, yv) in combinations(zip(xs, ys), 2)
    )


def _ray_and_code_labels(n):
    """The labels of the psw and top-las proportionality checks at scale n."""
    perms = list(all_permutations(n))
    comps = enumerate_cn(n)
    return [
        ([top_grothendieck(w).ray() for w in perms], [permutations.rajcode(w, n) for w in perms]),
        ([top_lascoux(a).ray() for a in comps], [compositions.rajcode(a) for a in comps]),
    ]


def test_partition_test_matches_pair_loop():
    from snowpoly.verify import same_partition

    for n in range(1, 6):
        for rays, codes in _ray_and_code_labels(n):
            assert same_partition(rays, codes) and pairs_agree(rays, codes)


def test_partition_test_and_pair_loop_reject_merged_labels():
    from snowpoly.verify import same_partition

    for rays, codes in _ray_and_code_labels(4):
        # two items in different classes: give the second the first one's ray
        u = 0
        v = next(k for k, c in enumerate(codes) if c != codes[u])
        merged_rays = list(rays)
        merged_rays[v] = rays[u]
        assert not same_partition(merged_rays, codes)
        assert not pairs_agree(merged_rays, codes)
        # ... or the first one's rajcode
        merged_codes = list(codes)
        merged_codes[v] = codes[u]
        assert not same_partition(rays, merged_codes)
        assert not pairs_agree(rays, merged_codes)
        # merging both whole classes at once keeps the partitions equal
        both_rays = [rays[u] if r == rays[v] else r for r in rays]
        both_codes = [codes[u] if c == codes[v] else c for c in codes]
        assert same_partition(both_rays, both_codes) and pairs_agree(both_rays, both_codes)


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
    with pytest.raises(ValueError, match=r"basis element \(0, 2, 1\) falls outside the box for n=3"):
        expand_top_into_snowy_basis(top_grothendieck((1, 4, 3, 2)), 3)


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


def expand_by_linear_solve(targets, n):
    """Oracle for the greedy Lascoux expansion: an exact rational solve of
    each target against the spanning set b^j * lascoux(alpha), alpha in the
    box for n. Sparse Gauss-Jordan elimination over the rows (one per
    monomial), with every target as one more column on the right."""
    bmax = max(t.beta_degree() for t in targets)
    columns = [(alpha, j) for alpha in enumerate_cn(n) for j in range(bmax + 1)]
    by_mono = {}
    for col, (alpha, j) in enumerate(columns):
        for m, c in lascoux(alpha).items():
            by_mono.setdefault((m.xexp, m.bexp + j), {})[col] = Fraction(c)
    width = len(columns)
    for k, target in enumerate(targets):
        for m, c in target.items():
            by_mono.setdefault((m.xexp, m.bexp), {})[width + k] = Fraction(c)
    rows = list(by_mono.values())
    free = list(range(len(rows)))
    pivots = []
    for col in range(width):
        at = next((r for r in free if col in rows[r]), None)
        if at is None:
            continue
        free.remove(at)
        inv_p = 1 / rows[at][col]
        prow = rows[at] = {k: v * inv_p for k, v in rows[at].items()}
        for r, row in enumerate(rows):
            if r != at and col in row:
                factor = row[col]
                for k, v in prow.items():
                    value = row.get(k, 0) - factor * v
                    if value:
                        row[k] = value
                    else:
                        row.pop(k, None)
        pivots.append((at, col))
    solutions = []
    for k in range(len(targets)):
        assert all(width + k not in rows[r] for r in free), "outside the span"
        coeffs = {}
        for r, col in pivots:
            value = rows[r].get(width + k, 0)
            if value:
                assert value.denominator == 1, "coefficient is not an integer"
                alpha, j = columns[col]
                coeffs.setdefault(alpha, {})[j] = int(value)
        solutions.append(coeffs)
    return solutions


def test_linear_solve_fallback_agrees_with_greedy():
    for n in (4, 5):
        perms = list(all_permutations(n))
        solved = expand_by_linear_solve([grothendieck(w) for w in perms], n)
        for w, coeffs in zip(perms, solved):
            solved_polys = {
                alpha: Polynomial.from_terms((c, (), b) for b, c in layer.items())
                for alpha, layer in coeffs.items()
            }
            assert solved_polys == expand_grothendieck_into_lascoux(w, n), w


def test_expand_grothendieck_rejects_a_box_too_small():
    with pytest.raises(ValueError, match="box for n=2"):
        expand_grothendieck_into_lascoux((1, 2, 4, 3), 2)
    with pytest.raises(ValueError):
        expand_grothendieck_into_lascoux((), 0)


@pytest.mark.parametrize("coeffs, match", [
    ({(3,): {0: 1}}, r"leaves the box for n=2: \(3,\)"),
    ({(1,): {0: 1, 1: -1}}, r"negative coefficient at \(1,\)"),
], ids=["box", "sign"])
def test_expand_grothendieck_guards_fire_on_a_broken_elimination(monkeypatch, coeffs, match):
    # an exact elimination never trips these guards, so a patched one does
    monkeypatch.setattr(schubert, "_eliminate", lambda target, basis, name: coeffs)
    with pytest.raises(ArithmeticError, match=match):
        expand_grothendieck_into_lascoux((2, 1), 2)


def test_expansion_step_cap_raises(monkeypatch):
    monkeypatch.setattr(schubert, "_EXPANSION_STEP_CAP", 1)
    with pytest.raises(ArithmeticError, match="within 1 steps"):
        expand_grothendieck_into_lascoux((2, 1, 4, 3), 4)


def _double(fn):
    return lambda alpha: 2 * fn(alpha)


def test_stalled_elimination_raises(monkeypatch):
    # a basis element whose pivot coefficient is 2 leaves the pivot in place
    monkeypatch.setattr(schubert, "lascoux", _double(schubert.lascoux))
    monkeypatch.setattr(schubert, "snowy_top_lascoux", _double(schubert.snowy_top_lascoux))
    with pytest.raises(ArithmeticError, match="stalled at step 2"):
        expand_grothendieck_into_lascoux((2, 1, 4, 3), 4)
    with pytest.raises(ArithmeticError, match="stalled at step 2"):
        expand_top_into_snowy_basis(top_grothendieck((1, 4, 3, 2)), 4)


STALL_SCRIPT = """
from snowpoly import schubert
schubert.lascoux = lambda alpha, f=schubert.lascoux: 2 * f(alpha)
schubert.snowy_top_lascoux = lambda alpha, f=schubert.snowy_top_lascoux: 2 * f(alpha)
for expand in (
    lambda: schubert.expand_grothendieck_into_lascoux((2, 1, 4, 3), 4),
    lambda: schubert.expand_top_into_snowy_basis(schubert.top_grothendieck((1, 4, 3, 2)), 4),
):
    try:
        expand()
    except ArithmeticError as err:
        print(err)
"""


def test_stalled_elimination_raises_under_optimize():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", STALL_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert all("stalled at step 2" in line for line in lines)


def test_snowy_top_memo_keeps_no_patched_value(monkeypatch):
    # the stall tests double the public wrapper; the memo under it must
    # still hold the true top layers afterwards
    schubert.clear_caches()
    monkeypatch.setattr(schubert, "snowy_top_lascoux", _double(schubert.snowy_top_lascoux))
    with pytest.raises(ArithmeticError, match="stalled at step 2"):
        expand_top_into_snowy_basis(top_grothendieck((1, 4, 3, 2)), 4)
    monkeypatch.undo()
    for alpha in (a for a in enumerate_cn(4) if is_snowy(a)):
        assert snowy_top_lascoux(alpha) == top_lascoux(alpha), alpha


def test_grothendieck_pivots_have_x_degree_length_plus_b(monkeypatch):
    # so the lowest b-layer is also the least x-degree, as for the key-term order
    pivots = []
    select = schubert._select_pivot

    def record(remainder):
        pivots.append(select(remainder))
        return pivots[-1]

    monkeypatch.setattr(schubert, "_select_pivot", record)
    for w in all_permutations(5):
        pivots.clear()
        expand_grothendieck_into_lascoux(w, 5)
        assert {sum(m.xexp) - d for d, m, _ in pivots} == {sum(permutations.invcode(w))}


def eliminate_by_copy(target, basis, name):
    """Oracle for `schubert._eliminate`: the copy-per-step greedy
    elimination. Each step finds the pivot with the oracle
    `bottom_leading_term` and rebuilds the whole remainder by polynomial
    arithmetic, remainder + (-c * b^d) * element."""
    coeffs = {}
    remainder = target
    last = None
    while remainder:
        d, mono, coeff = bottom_leading_term(remainder)
        order = (-d, taillex_key(mono.xexp))
        assert last is None or order < last, f"{name} stalled at {order}"
        last = order
        alpha, element = basis(mono.xexp)
        coeffs.setdefault(alpha, {})[d] = coeff
        remainder = remainder + Polynomial.term(-coeff, (), d) * element
    return coeffs


def _both_expansions(ws):
    out = []
    for w in ws:
        n = max(len(w), 1)
        out.append((expand_grothendieck_into_lascoux(w, n),
                    expand_top_into_snowy_basis(top_grothendieck(w), n)))
    return out


def test_expansions_agree_with_copy_per_step_elimination(monkeypatch):
    ws = [*all_permutations(5), (4, 3, 2, 1, 8, 5, 7, 6)]
    in_place = _both_expansions(ws)
    monkeypatch.setattr(schubert, "_eliminate", eliminate_by_copy)
    assert _both_expansions(ws) == in_place
    assert sum(len(g) for g in in_place[-1][0].values()) == 197


def test_elimination_past_b_exponent_127_raises():
    # the pivot b^100 x1 meets an element with a b^28 term, which would
    # land at b^128: no packed key holds it, as no product may build it
    target = Polynomial.term(1, (1,), 100)
    element = Polynomial.x(1) + Polynomial.term(1, (1, 1), 28)
    for eliminate in (schubert._eliminate, eliminate_by_copy):
        with pytest.raises(OverflowError):
            eliminate(target, lambda m: (m, element), "b^100 x1")


def test_expansions_leave_their_inputs_unchanged():
    # the elimination changes a private copy in place; the memoized G_w and
    # the top layer handed in keep their values
    for w in list(all_permutations(6))[::45]:
        top = top_grothendieck(w)
        top_before = Polynomial(top.items())
        expand_top_into_snowy_basis(top, 6)
        expand_grothendieck_into_lascoux(w, 6)
        assert top == top_before
        cached = grothendieck(w)
        schubert.clear_caches()
        assert cached == grothendieck(w), w


# -- bases ---------------------------------------------------------------------------


def test_vhat_basis_sizes():
    fireworks, snowy = vhat_basis(4)
    assert (len(fireworks), len(snowy)) == (15, 15)
    assert vhat_basis(1) == ([()], [()])
    f5, s5 = vhat_basis(5)
    assert (len(f5), len(s5)) == (52, 52)
    with pytest.raises(ValueError, match="n must be positive"):
        vhat_basis(0)


def test_vhat_basis_matches_the_filter_oracle():
    # oracle: S_n filtered through is_inverse_fireworks, in lexicographic order
    for n in range(1, 9):
        oracle = [canonical(w) for w in all_permutations(n) if is_inverse_fireworks(w)]
        assert vhat_basis(n)[0] == oracle, n


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
