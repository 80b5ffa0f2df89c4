"""q-analogues, rook statistics, and the Hilbert series."""

from itertools import product
from math import comb

import pytest

from snowpoly import qbell
from snowpoly.compositions import (
    canonical,
    dark_inverse,
    is_snowy,
    raj,
    rajcode_snowy_direct,
)
from snowpoly.diagrams import RookDiagram, rook_placements
from snowpoly.qbell import (
    bell,
    enumerate_rook_n,
    gr_stat,
    hilb_v_stabilized,
    hilb_v_truncated,
    hilb_vn,
    nw_stat,
    q_bell,
    q_stirling,
    qp_add,
    qp_mul,
    qp_rev,
    stirling,
)


def test_q_stirling_and_q_bell_values():
    assert q_bell(0) == (1,)
    assert q_bell(3) == (1, 2, 1, 1)
    assert q_stirling(3, 2) == (0, 2, 1)
    assert q_stirling(0, 0) == (1,)
    assert q_stirling(0, 2) == ()
    for n in range(8):
        assert sum(q_bell(n)) == bell(n)
        for k in range(n + 2):
            assert sum(q_stirling(n, k)) == stirling(n, k)


def test_integer_stirling_and_bell():
    assert [bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert stirling(4, 2) == 7
    assert stirling(5, 0) == 0


def test_q_bell_degree():
    for n in range(1, 8):
        assert len(q_bell(n)) - 1 == n * (n - 1) // 2


def test_q_bell_binomial_recurrence():
    # B_{n+1}(q) = sum_j q^j C(n, j) B_j(q)
    for n in range(7):
        total = ()
        for j in range(n + 1):
            shift = (0,) * j + (1,)
            total = qp_add(total, qp_mul(shift, tuple(comb(n, j) * c for c in q_bell(j))))
        assert total == q_bell(n + 1)


def test_rook_enumeration():
    assert enumerate_rook_n(1) == [RookDiagram()]
    assert len(enumerate_rook_n(3)) == 5
    assert {frozenset(r.cells) for r in enumerate_rook_n(3)} == {
        frozenset(),
        frozenset({(1, 1)}),
        frozenset({(1, 2)}),
        frozenset({(2, 1)}),
        frozenset({(1, 2), (2, 1)}),
    }
    assert len(enumerate_rook_n(4)) == 15
    for n in range(1, 8):
        assert len(enumerate_rook_n(n)) == bell(n)


def test_gr_and_nw_examples():
    assert gr_stat(RookDiagram(), 3) == 3
    assert gr_stat(RookDiagram({(2, 1)}), 3) == 1
    assert nw_stat(RookDiagram({(2, 1)})) == 2
    assert nw_stat(RookDiagram()) == 0
    with pytest.raises(ValueError):
        gr_stat(RookDiagram({(1, 4)}), 3)


def test_nw_equals_raj_of_snowy_inverse():
    for n in range(1, 7):
        for rook in enumerate_rook_n(n):
            assert nw_stat(rook) == raj(dark_inverse(rook))


def test_snow_raj_matches_closed_formula_and_nw_per_placement():
    # oracle for both transfers in hilb_vn: the snow construction agrees with
    # the closed formula and with the northwest statistic on every placement
    for n in range(1, 9):
        for placement in rook_placements(n):
            alpha = dark_inverse(placement)
            snow_raj = raj(alpha)
            assert snow_raj == sum(rajcode_snowy_direct(alpha))
            assert snow_raj == nw_stat(RookDiagram(placement))


def test_hilb_vn_values():
    assert hilb_vn(1) == (1,)
    assert hilb_vn(3) == (1, 1, 2, 1)
    for n in range(1, 13):
        assert sum(hilb_vn(n)) == bell(n)
        assert hilb_vn(n) == qp_rev(q_bell(n))


def test_hilb_vn_raises_when_routes_disagree(monkeypatch):
    monkeypatch.setattr(qbell, "q_bell", lambda n: (1,) * (n + 1))
    hilb_vn.cache_clear()
    with pytest.raises(ArithmeticError, match="disagree at n=4"):
        hilb_vn(4)


def test_hilb_v_truncated_values():
    assert hilb_v_truncated(0) == (1,)
    assert hilb_v_truncated(3) == (1, 1, 2, 4)


def test_hilb_truncation_against_snowy_enumeration_oracle():
    # all snowy compositions with raj at most 3 live in a 3-entry box
    counts = [0, 0, 0, 0]
    seen = set()
    for vec in product(range(4), repeat=3):
        alpha = canonical(vec)
        if alpha in seen or not is_snowy(alpha):
            continue
        seen.add(alpha)
        r = raj(alpha)
        if r <= 3:
            counts[r] += 1
    assert tuple(counts) == hilb_v_truncated(3)


def test_hilb_stabilization():
    for degrees in (3, 5, 8):
        assert hilb_v_stabilized(degrees) == hilb_v_truncated(degrees)


def test_prepend_largest_entry_shifts_raj():
    # prepending a strictly largest entry M raises raj by exactly M
    for vec in product(range(4), repeat=3):
        alpha = canonical(vec)
        if not is_snowy(alpha):
            continue
        m = (max(alpha) if alpha else 0) + 1
        assert raj((m,) + alpha) == raj(alpha) + m
