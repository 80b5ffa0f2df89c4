"""Command-line interface: text goldens, JSON round trips, exit codes."""

import importlib.util
import json
import os
import random
import subprocess
import sys

import pytest

from snowpoly import cli, permutations, verify
from snowpoly.cli import (
    main,
    parse_cells,
    parse_composition,
    polynomial_doc,
    render_composition,
    render_polynomial,
)
from snowpoly.kkohnert import PackedClosure
from snowpoly.permutations import all_permutations
from snowpoly.polyring import Polynomial


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_perfbench(name):
    """perfbench/<name>.py, one of the benchmark's stdlib-only modules:
    `checks` is its output checker, `spans` its tracer."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_groth_golden(capsys):
    code, out, _ = run_cli(capsys, "groth", "1324")
    assert code == 0
    assert out.strip() == "(x1 + x2) + b*x1*x2"
    code, out, _ = run_cli(capsys, "groth", "1")
    assert out.strip() == "1"


def test_lascoux_top_golden(capsys):
    code, out, _ = run_cli(capsys, "lascoux", "0,2,1", "--top")
    assert code == 0
    assert out.strip() == "x1^2*x2^2*x3"


def test_rajcode_goldens(capsys):
    _, out, _ = run_cli(capsys, "rajcode", "--perm", "3721564")
    assert out.strip() == "(4,5,2,1,1,1) raj=14"
    _, out, _ = run_cli(capsys, "rajcode", "--comp", "2,0,4,3,1")
    assert "(4,3,4,3,1)" in out
    _, out, _ = run_cli(capsys, "rajcode", "--perm", "1")
    assert out.strip() == "() raj=0"
    _, out, _ = run_cli(capsys, "rajcode", "--cells", "1,3;2,1;2,2;3,3;5,1;5,2")
    assert "(3,3,2,1,2) raj=11" in out


def test_rajcode_perm_matches_the_permutation_route_over_s5(capsys):
    # the CLI reads --perm off the Rothe diagram; permutations.rajcode is the
    # independent route, and text and --json must be exactly what it gives
    count = 0
    for n in range(1, 6):
        for w in all_permutations(n):
            code = permutations.rajcode(w, len(w))
            one_line = "".join(map(str, w))
            doc = {"kind": "composition", "rajcode": list(code), "raj": sum(code)}
            assert run_cli(capsys, "rajcode", "--perm", one_line) == (
                0, f"{render_composition(code)} raj={sum(code)}\n", ""
            )
            assert run_cli(capsys, "rajcode", "--perm", one_line, "--json") == (
                0, json.dumps(doc, indent=2) + "\n", ""
            )
            count += 1
    assert count == 153


def test_kkd_count_and_dump(capsys, monkeypatch):
    # the count is read off the packed closure, with no diagram decoded
    with monkeypatch.context() as m:
        m.setattr(cli, "enumerate_kkd", None)
        m.setattr(PackedClosure, "diagrams", None)
        _, out, _ = run_cli(capsys, "kkd", "0,2,1", "--count")
    assert out.strip() == "11"
    _, out, _ = run_cli(capsys, "kkd", "0,2,1", "--count", "--json")
    assert json.loads(out) == {"kind": "report", "count": 11}
    _, out, _ = run_cli(capsys, "kkd", "0,2,1")
    assert out == KKD_021
    _, out, _ = run_cli(capsys, "kkd", "0,2,1", "--json")
    diagrams = [
        {"cells": cells, "ghosts": ghosts, "weight": weight, "excess": excess}
        for cells, ghosts, weight, excess in KKD_021_DIAGRAMS
    ]
    assert out == json.dumps({"kind": "diagram", "count": 11, "diagrams": diagrams}, indent=2) + "\n"


KKD_021 = """\
excess=0 wt=(2,1) cells: 1,1 1,2 2,1
excess=0 wt=(2,0,1) cells: 1,1 1,2 3,1
excess=0 wt=(1,2) cells: 1,1 2,1 2,2
excess=0 wt=(1,1,1) cells: 1,2 2,1 3,1
excess=0 wt=(0,2,1) cells: 2,1 2,2 3,1
excess=1 wt=(2,2) cells: 1,1 1,2 2,1 2,2X
excess=1 wt=(2,1,1) cells: 1,1 1,2 2,1X 3,1
excess=1 wt=(2,1,1) cells: 1,1 1,2 2,1 3,1X
excess=1 wt=(1,2,1) cells: 1,1 2,1 2,2 3,1X
excess=1 wt=(1,2,1) cells: 1,2 2,1 2,2X 3,1
excess=2 wt=(2,2,1) cells: 1,1 1,2 2,1 2,2X 3,1X
"""

KKD_021_DIAGRAMS = [  # (cells, ghosts, weight, excess), as `kkd 0,2,1 --json` lists them
    ([[1, 1], [1, 2], [2, 1]], [], [2, 1], 0),
    ([[1, 1], [1, 2], [3, 1]], [], [2, 0, 1], 0),
    ([[1, 1], [2, 1], [2, 2]], [], [1, 2], 0),
    ([[1, 2], [2, 1], [3, 1]], [], [1, 1, 1], 0),
    ([[2, 1], [2, 2], [3, 1]], [], [0, 2, 1], 0),
    ([[1, 1], [1, 2], [2, 1], [2, 2]], [[2, 2]], [2, 2], 1),
    ([[1, 1], [1, 2], [2, 1], [3, 1]], [[2, 1]], [2, 1, 1], 1),
    ([[1, 1], [1, 2], [2, 1], [3, 1]], [[3, 1]], [2, 1, 1], 1),
    ([[1, 1], [2, 1], [2, 2], [3, 1]], [[3, 1]], [1, 2, 1], 1),
    ([[1, 2], [2, 1], [2, 2], [3, 1]], [[2, 2]], [1, 2, 1], 1),
    ([[1, 1], [1, 2], [2, 1], [2, 2], [3, 1]], [[2, 2], [3, 1]], [2, 2, 1], 2),
]


def test_shadow_golden(capsys):
    _, out, _ = run_cli(capsys, "shadow", "3721564", "--turning")
    assert out.strip() == "(3,1) (1,2) (6,4) (2,6)"
    _, out, _ = run_cli(capsys, "shadow", "3721564")
    assert out.strip().splitlines()[0] == "L1: (7,4) (6,6) (2,7)"


def test_hilb_golden(capsys):
    _, out, _ = run_cli(capsys, "hilb", "3")
    assert out.strip() == "1 1 2 1"
    _, out, _ = run_cli(capsys, "hilb", "--limit", "3")
    assert out.strip() == "1 1 2 4"


def test_snow_output(capsys):
    _, out, _ = run_cli(capsys, "snow", "--comp", "0,2,1")
    lines = out.strip().splitlines()
    assert lines[0].split(" ", 1)[1] == "**"
    assert lines[-1] == "rajcode=(2,2,1) raj=5"


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables")
    assert code == 0
    assert "48/48 table rows match" in out
    code, out, _ = run_cli(capsys, "verify", "rajcode-equiv", "6")
    assert code == 0
    assert "720 permutations checked" in out


def test_verify_all_at_scale_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "4")
    assert code == 0
    assert "[FAIL]" not in out
    # every check's name and detail as the benchmark checker expects them
    msg, checks = load_perfbench("checks").check_verify_output(out, 4)
    assert msg is None
    assert checks == len(out.splitlines()) - 1


# Spans in perfbench/spans.py that name definitions no longer in snowpoly;
# their figures always read 0 until the benchmark retargets them.
DEAD_SPANS = {
    ("schubert", "_top_lascoux_recursive"),
    ("diagrams", "rook_placements"),
    ("kkohnert", "kkohnert_successors"),
}


def test_perfbench_spans_name_live_code():
    # a span whose target is renamed or deleted silently reads 0, so every
    # per-layer figure the tracer reports must name live code
    spans = load_perfbench("spans")
    missing = {
        (module, attr)
        for module, attr, _ in spans.FUNCTIONS
        if not hasattr(importlib.import_module(f"snowpoly.{module}"), attr)
    }
    assert missing == DEAD_SPANS
    assert all(hasattr(Polynomial, attr) for attr, _ in spans.METHODS)


def test_verify_fails_on_an_empty_set(capsys, monkeypatch):
    def suite(scale=1):
        yield "pairs agree", True, "0 pairs checked", 0

    monkeypatch.setitem(verify.SUITES, "fake", suite)
    code, out, _ = run_cli(capsys, "verify", "fake")
    assert code == 1
    assert "[FAIL] pairs agree: 0 pairs checked" in out


def test_verify_refuses_a_scale_below_the_suite_minimum(capsys):
    # S_1 and C_1 have one element each, so psw and top-las have no pair
    for argv in (["psw", "1"], ["top-las", "1"], ["all", "1"]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (2, ""), argv
        assert "scale must be at least 2" in err
    code, out, _ = run_cli(capsys, "verify", "psw", "2")
    assert code == 0
    assert "1 pairs checked" in out


def test_verify_json_is_one_document(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "report"
    [check] = doc["checks"]
    assert check["name"] == "tables" and check["passed"]
    assert check["detail"] == "48/48 table rows match"
    assert check["seconds"] >= 0


def test_verify_times_each_check_from_the_previous_one(monkeypatch):
    ticks = iter([10.0, 11.0, 13.0, 16.0, 20.0])
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(ticks))

    def delegate():
        yield "b", True, "ok", 1
        yield "c", True, "ok", 1
        return "d"

    def suite(scale=1):
        yield "a", True, "ok", 1
        last = yield from delegate()  # as suite_top_las takes the tops
        yield last, True, "ok", 1

    monkeypatch.setitem(verify.SUITES, "fake", suite)
    results = verify.run_suite("fake")
    assert [(r.name, r.seconds) for r in results] == [
        ("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)
    ]
    assert all(r.passed for r in results)
    assert sum(r.seconds for r in results) == 20.0 - 10.0  # the suite's wall time


def test_parse_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "groth", "12x")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "lascoux", "1,a")
    assert code == 2
    code, _, err = run_cli(capsys, "rajcode", "--cells", "1;2")
    assert code == 2
    for argv in (
        ["verify", "psw", "0"],
        ["verify", "qbell", "0"],
        ["verify", "all", "-1"],
        ["groth", "1324", "--beta", "-1"],
        ["lascoux", "0,2,1", "--beta", "-1"],
        ["lascoux", "128"],
        ["lascoux", "0,127"],  # an OverflowError inside the recursion
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "error" in err
    for argv in (
        ["verify", "nonsense"],
        ["groth", "1324", "--top", "--beta", "0"],
        ["lascoux", "0,2,1", "--beta", "1", "--top"],
        ["hilb", "3", "--limit", "4"],
        ["hilb"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_parse_helpers():
    assert parse_composition("0,2,1") == (0, 2, 1)
    assert parse_composition("") == ()
    assert parse_cells("1,3;2,1").cells == {(1, 3), (2, 1)}


def polynomial_from_doc(doc: dict) -> Polynomial:
    """The polynomial of a `polynomial_doc` document: the round-trip oracle."""
    if doc.get("kind") != "polynomial":
        raise ValueError("document is not a polynomial")
    return Polynomial.from_terms(
        (term["coeff"], tuple(term["x"]), term["beta"]) for term in doc["terms"]
    )


def test_polynomial_json_round_trip(capsys):
    from snowpoly.schubert import grothendieck, lascoux

    for poly in [
        grothendieck((2, 1, 4, 3)),
        lascoux((0, 2, 1)),
        Polynomial.zero(),
        Polynomial.from_terms([(-3, (1, 0, 2), 4)]),
    ]:
        doc = polynomial_doc(poly)
        assert polynomial_from_doc(json.loads(json.dumps(doc))) == poly


def test_cli_json_output_round_trips(capsys):
    _, out, _ = run_cli(capsys, "groth", "2143", "--json")
    doc = json.loads(out)
    from snowpoly.schubert import grothendieck

    assert polynomial_from_doc(doc) == grothendieck((2, 1, 4, 3))


def test_rendering_is_order_independent():
    # the text form is a function of the polynomial, not of construction order
    rng = random.Random(31415)
    triples = [(rng.randint(1, 5), (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(0, 2)) for _ in range(6)]
    p = Polynomial.from_terms(triples)
    q = Polynomial.from_terms(reversed(triples))
    assert render_polynomial(p) == render_polynomial(q)
    assert polynomial_doc(p) == polynomial_doc(q)


def test_render_negative_coefficients():
    p = Polynomial.from_terms([(1, (1,), 0), (-2, (0, 1), 0)])
    assert render_polynomial(p) == "x1 - 2*x2"


def test_render_orders_layers_by_b_degree():
    # x1 precedes x2 in tail-lex order, but its b-layer comes later
    p = Polynomial.from_terms([(1, (0, 1), 0), (1, (1,), 1)])
    assert render_polynomial(p) == "x2 + b*x1"


def test_module_entry_point_runs_without_warnings():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "snowpoly.cli", "rajcode", "--perm", "1324"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.strip() == "(1,1) raj=2"
