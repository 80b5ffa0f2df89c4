"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (integer arithmetic throughout) and carries
the runtime budget it must meet. Criteria 1 and 3-12 run the exhaustive
checks of `snowpoly.verify` and assert their counts; the literal goldens
stay here.
"""

import time

from snowpoly import qbell, schubert, verify
from snowpoly.compositions import enumerate_cn
from snowpoly.kkohnert import enumerate_kkd, lascoux_via_kkd
from snowpoly.permutations import all_permutations
from snowpoly.polyring import Polynomial, demazure, divided_difference, swap_action


class Budget:
    """Times a criterion and prints its pass line on a clean exit."""

    def __init__(self, number, seconds, label):
        self.number, self.seconds, self.label = number, seconds, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"PASS criterion {self.number} ({elapsed:.2f}s): {self.label}")
        else:
            print(f"FAIL criterion {self.number} ({elapsed:.2f}s): {self.label}")
        return False


def assert_suite(suite, scale, expected):
    """Run a verify suite, assert that every check passed and that the checks
    and their details (the item counts) are exactly `expected`; returns the
    details by check name."""
    results = verify.run_suite(suite, scale)
    assert [f"{r.name}: {r.detail}" for r in results if not r.passed] == []
    details = {r.name: r.detail for r in results}
    assert details == expected
    return details


def test_criterion_01_golden_tables():
    with Budget(1, 1.0, "both golden tables reproduced exactly"):
        assert_suite("tables", None, {"tables": "48/48 table rows match"})


def test_criterion_02_kkd_021_enumeration():
    from .test_kkohnert import KKD_021

    with Budget(2, 1.0, "the 11 ghost diagrams and the generating sum for (0,2,1)"):
        assert enumerate_kkd((0, 2, 1)) == frozenset(KKD_021)
        assert lascoux_via_kkd((0, 2, 1)) == schubert.lascoux((0, 2, 1))
        assert lascoux_via_kkd((0, 2, 1)) == Polynomial.from_terms(
            [
                (1, (0, 2, 1), 0),
                (1, (1, 1, 1), 0),
                (1, (2, 0, 1), 0),
                (1, (1, 2), 0),
                (1, (2, 1), 0),
                (2, (1, 2, 1), 1),
                (2, (2, 1, 1), 1),
                (1, (2, 2), 1),
                (1, (2, 2, 1), 2),
            ]
        )


def test_criterion_03_rajcode_equivalence():
    with Budget(3, 5.0, "rajcode agrees with the diagram statistic through S_6"):
        assert_suite(
            "rajcode-equiv",
            6,
            {
                f"rajcode-equiv S_{n}": f"{count} permutations checked"
                for n, count in enumerate([1, 2, 6, 24, 120, 720], start=1)
            },
        )


def test_criterion_04_top_grothendieck_statements():
    with Budget(4, 30.0, "leading monomials and classes of top layers over S_6"):
        assert_suite(
            "psw",
            6,
            {
                "leading monomial is x^rajcode": "720 permutations checked",
                "proportional iff equal rajcode": "258840 pairs checked",
                "inverse fireworks leading coefficient 1": "203 inverse fireworks permutations",
                "one inverse fireworks element per class": "203 rajcode classes",
            },
        )


def test_criterion_05_top_lascoux_statements():
    with Budget(5, 30.0, "leading monomials and classes of top layers over the box for 6"):
        assert_suite(
            "top-las",
            6,
            {
                "leading monomial is x^rajcode": "720 compositions checked",
                "proportional iff equal rajcode": "258840 pairs checked",
                "snowy leading coefficient 1": "203 snowy compositions",
                "one snowy element per class": "203 rajcode classes",
                "snowy top recursion agrees": "203 snowy compositions",
            },
        )


KKOHNERT_6 = {
    "K-Kohnert sum equals recursive Lascoux": "720 compositions checked",
    "witness diagram realizes rajcode": "720 compositions checked",
}


def test_criterion_06_kkd_formula():
    with Budget(6, 10.0, "K-Kohnert sums equal the recursion over the box for 6"):
        assert_suite("kkohnert", 6, KKOHNERT_6)


def test_criterion_07_witness_construction():
    with Budget(7, 60.0, "lifted extreme diagrams realize rajcode over the box for 6"):
        assert_suite("kkohnert", 6, KKOHNERT_6)


def test_criterion_08_insertion_correspondences():
    with Budget(8, 10.0, "insertion, dark-cloud and shadow correspondences over S_6"):
        assert_suite(
            "shadow", 6, {"insertion and shadow correspondences": "873 permutations checked"}
        )


QBELL_7 = {
    "rook statistics and q-Bell sums": "n up to 7",
    "basis sizes are Bell numbers": "n up to 6",
    "Hilbert series routes agree": "n up to 7",
    "stable Hilbert series product formula": "coefficients 1 1 2 4 7 12 20 33 53",
}


def test_criterion_09_dimension_counts():
    with Budget(9, 5.0, "inverse fireworks and snowy counts are Bell numbers"):
        assert_suite("qbell", 7, QBELL_7)
        assert [qbell.bell(n) for n in range(1, 7)] == [1, 2, 5, 15, 52, 203]


def test_criterion_10_qbell_suite():
    with Budget(10, 10.0, "rook statistics match the q-Bell polynomials through n=7"):
        assert_suite("qbell", 7, QBELL_7)
        assert qbell.hilb_vn(3) == (1, 1, 2, 1)


def test_criterion_11_hilbert_product_formula():
    with Budget(11, 10.0, "stable Hilbert series matches the product formula"):
        details = assert_suite("qbell", 7, QBELL_7)
        detail = details["stable Hilbert series product formula"]
        product = tuple(int(c) for c in detail.split()[1:])
        assert product[:4] == (1, 1, 2, 4)


def test_criterion_12_positive_expansions():
    with Budget(12, 60.0, "positive expansions into the snowy and Lascoux bases"):
        assert_suite(
            "expansions",
            6,
            {
                "top layers expand positively into the snowy basis": "720 permutations at n=6",
                "Grothendieck expands into Lascoux over nonnegative b-polynomials": (
                    "24 permutations at n=4"
                ),
            },
        )


def test_criterion_13_operator_algebra():
    import random

    with Budget(13, 30.0, "operator identities and ascent-order independence"):
        rng = random.Random(1789)
        cases = 0
        while cases < 1000:
            terms = [
                (
                    rng.randint(-4, 4),
                    tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 5))),
                    rng.randint(0, 2),
                )
                for _ in range(rng.randint(1, 6))
            ]
            f = Polynomial.from_terms(terms)
            i = rng.randint(1, 4)
            assert divided_difference(divided_difference(f, i), i).is_zero()
            assert demazure(demazure(f, i), i) == demazure(f, i)
            assert (Polynomial.x(i) - Polynomial.x(i + 1)) * divided_difference(
                f, i
            ) == f - swap_action(f, i)
            assert divided_difference(divided_difference(f, 1), 3) == divided_difference(
                divided_difference(f, 3), 1
            )
            assert divided_difference(
                divided_difference(divided_difference(f, 1), 2), 1
            ) == divided_difference(divided_difference(divided_difference(f, 2), 1), 2)
            assert demazure(demazure(demazure(f, 1), 2), 1) == demazure(
                demazure(demazure(f, 2), 1), 2
            )
            cases += 1
        from .test_schubert import groth_w0_route, lascoux_largest_ascent

        memo = {}
        for w in all_permutations(4):
            assert schubert.grothendieck(w) == groth_w0_route(w, memo, max)
        for alpha in enumerate_cn(4):
            assert schubert.lascoux(alpha) == lascoux_largest_ascent(alpha)
        assert_suite(
            "recursions",
            6,
            {
                "Grothendieck ascent steps satisfy the divided-difference identity": (
                    "720 compositions, 588 ascent steps"
                ),
                "Lascoux ascent steps satisfy the divided-difference identity": (
                    "720 compositions, 588 ascent steps"
                ),
            },
        )
