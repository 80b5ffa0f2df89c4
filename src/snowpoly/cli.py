"""Command-line front end.

Subcommands expose every computation with plain-text output and an
optional canonical JSON document (--json). Exit codes: 0 on success, 1 on
verification failure, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from . import compositions, diagrams, qbell, schubert, verify
from .diagrams import Diagram, SnowDiagram, key_diagram, render_ascii, rothe_diagram, snow
from .kkohnert import PackedClosure, enumerate_kkd
from .permutations import parse_one_line, shadow_lines, turning_points
from .polyring import Polynomial, beta_component, top_component


# -- parsing ---------------------------------------------------------------------


def parse_composition(text: str) -> tuple[int, ...]:
    """Weak compositions are always comma-separated: "0,2,1"."""
    text = text.strip()
    if not text:
        return ()
    try:
        return compositions.canonical(int(part) for part in text.split(","))
    except ValueError as err:
        raise ValueError(f"cannot parse weak composition {text!r}: {err}") from None


def parse_cells(text: str) -> Diagram:
    """Cell lists use "r,c;r,c;..."."""
    text = text.strip()
    if not text:
        return Diagram()
    cells = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"cannot parse cell {chunk!r}")
        cells.append((int(parts[0]), int(parts[1])))
    return Diagram(cells)


# -- rendering ---------------------------------------------------------------------


def _render_x_monomial(xexp: tuple[int, ...]) -> str:
    factors = [
        f"x{i}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(xexp, start=1)
        if e > 0
    ]
    return "*".join(factors)


def _render_layer_term(coeff: int, xexp: tuple[int, ...]) -> str:
    body = _render_x_monomial(xexp)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return f"{coeff}*{body}"


def render_polynomial(p: Polynomial) -> str:
    """Canonical text: ascending b-layers, each sorted in ascending tail-lex.

    The marker prints as "b"; a layer with several terms is parenthesized,
    so the Grothendieck polynomial of 1324 reads "(x1 + x2) + b*x1*x2".
    """
    if p.is_zero():
        return "0"
    layers: dict[int, list[str]] = {}
    for m, c in p.items():
        layers.setdefault(m.bexp, []).append(_render_layer_term(c, m.xexp))
    chunks = []
    for d, terms in sorted(layers.items()):
        body = " + ".join(terms).replace("+ -", "- ")
        prefix = "" if d == 0 else ("b*" if d == 1 else f"b^{d}*")
        if len(terms) > 1 and (prefix or len(layers) > 1):
            chunks.append(f"{prefix}({body})")
        else:
            chunks.append(prefix + body)
    return " + ".join(chunks)


def render_composition(alpha: Iterable[int]) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def polynomial_doc(p: Polynomial) -> dict:
    """Canonical JSON document: terms in the order of `items`, tail-lex
    monomial then b-exponent."""
    return {
        "kind": "polynomial",
        "terms": [
            {"coeff": c, "x": list(m.xexp), "beta": m.bexp}
            for m, c in p.items()
        ],
    }


def diagram_doc(d) -> dict:
    if isinstance(d, SnowDiagram):
        return {
            "kind": "diagram",
            "cells": [
                {"row": r, "col": c, "label": d.label((r, c))}
                for r, c in sorted(d.cells)
            ],
        }
    return {
        "kind": "diagram",
        "cells": [{"row": r, "col": c} for r, c in sorted(d.cells)],
    }


def _emit(args, text: str, doc: dict) -> None:
    print(json.dumps(doc, indent=2) if args.json else text)


# -- subcommands ---------------------------------------------------------------------


def _cmd_polynomial(args) -> int:
    poly = args.compute(args.parse(args.index))
    if args.top:
        poly = top_component(poly)[1]
    elif args.beta is not None:
        poly = beta_component(poly, args.beta)
    _emit(args, render_polynomial(poly), polynomial_doc(poly))
    return 0


def _input_diagram(args) -> Diagram:
    if args.perm is not None:
        return rothe_diagram(parse_one_line(args.perm))
    if args.comp is not None:
        return key_diagram(parse_composition(args.comp))
    return parse_cells(args.cells)


def _cmd_snow(args) -> int:
    base = _input_diagram(args)
    decorated = snow(base)
    code = diagrams.rajcode(base)
    text = render_ascii(decorated)
    tail = f"rajcode={render_composition(code)} raj={sum(code)}"
    _emit(
        args,
        (text + "\n" + tail) if text else tail,
        {
            **diagram_doc(decorated),
            "rajcode": list(code),
            "raj": sum(code),
        },
    )
    return 0


def _cmd_rajcode(args) -> int:
    code = diagrams.rajcode(_input_diagram(args))
    text = f"{render_composition(code)} raj={sum(code)}"
    _emit(
        args,
        text,
        {"kind": "composition", "rajcode": list(code), "raj": sum(code)},
    )
    return 0


def _cmd_kkd(args) -> int:
    alpha = parse_composition(args.comp)
    if args.count:
        count = len(PackedClosure(key_diagram(alpha)))
        _emit(args, str(count), {"kind": "report", "count": count})
        return 0
    ordered = sorted(
        enumerate_kkd(alpha), key=lambda g: (g.excess, sorted(g.cells), sorted(g.ghosts))
    )
    lines = []
    for g in ordered:
        cells = " ".join(
            f"{r},{c}" + ("X" if (r, c) in g.ghosts else "") for r, c in sorted(g.cells)
        )
        lines.append(f"excess={g.excess} wt={render_composition(g.weight())} cells: {cells}")
    doc = {
        "kind": "diagram",
        "count": len(ordered),
        "diagrams": [
            {
                "cells": [list(c) for c in sorted(g.cells)],
                "ghosts": [list(c) for c in sorted(g.ghosts)],
                "weight": list(g.weight()),
                "excess": g.excess,
            }
            for g in ordered
        ],
    }
    _emit(args, "\n".join(lines), doc)
    return 0


def _cmd_shadow(args) -> int:
    w = parse_one_line(args.perm)
    lines = shadow_lines(w)
    turning = sorted(turning_points(w), key=lambda rc: (rc[1], rc[0]))
    turning_text = " ".join(f"({r},{c})" for r, c in turning)
    if args.turning:
        _emit(
            args,
            turning_text,
            {"kind": "diagram", "turning_points": [list(p) for p in turning]},
        )
        return 0
    body = [
        f"L{k}: " + " ".join(f"({i},{v})" for i, v in line.points)
        for k, line in enumerate(lines, start=1)
    ]
    body.append("turning points: " + turning_text)
    doc = {
        "kind": "diagram",
        "lines": [[list(p) for p in line.points] for line in lines],
        "turning_points": [list(p) for p in turning],
    }
    _emit(args, "\n".join(body), doc)
    return 0


def _cmd_hilb(args) -> int:
    if args.limit is not None:
        coeffs = qbell.hilb_v_truncated(args.limit)
    else:
        coeffs = qbell.hilb_vn(args.n)
    _emit(
        args,
        " ".join(str(c) for c in coeffs),
        {"kind": "series", "coefficients": list(coeffs)},
    )
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, args.scale)
    failed = sum(1 for r in results if not r.passed)
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail} ({r.seconds:.2f}s)"
        for r in results
    ]
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    doc = {
        "kind": "report",
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
    }
    _emit(args, "\n".join(lines), doc)
    return 0 if failed == 0 else 1


def _add_diagram_inputs(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", help="one-line permutation, e.g. 3721564")
    group.add_argument("--comp", help="weak composition, e.g. 2,0,4,3,1")
    group.add_argument("--cells", help="explicit cells, e.g. 1,3;2,1;2,2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowpoly",
        description="Grothendieck, Schubert, Lascoux and key polynomials with "
        "snow-diagram statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, metavar, parse, compute in [
        ("groth", "Grothendieck polynomial of a permutation", "perm",
         parse_one_line, schubert.grothendieck),
        ("lascoux", "Lascoux polynomial of a weak composition", "comp",
         parse_composition, schubert.lascoux),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("index", metavar=metavar)
        layer = p.add_mutually_exclusive_group()
        layer.add_argument("--top", action="store_true", help="top b-layer only")
        layer.add_argument("--beta", type=int, help="a single b-layer")
        p.set_defaults(fn=_cmd_polynomial, parse=parse, compute=compute)

    p = sub.add_parser("snow", help="snow diagram of a diagram")
    _add_diagram_inputs(p)
    p.set_defaults(fn=_cmd_snow)

    p = sub.add_parser("rajcode", help="rajcode and raj statistics")
    _add_diagram_inputs(p)
    p.set_defaults(fn=_cmd_rajcode)

    p = sub.add_parser("kkd", help="K-Kohnert diagrams of a weak composition")
    p.add_argument("comp")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(fn=_cmd_kkd)

    p = sub.add_parser("shadow", help="shadow lines of a permutation")
    p.add_argument("perm")
    p.add_argument("--turning", action="store_true", help="print only turning points")
    p.set_defaults(fn=_cmd_shadow)

    p = sub.add_parser("hilb", help="Hilbert series coefficients")
    level = p.add_mutually_exclusive_group(required=True)
    level.add_argument("n", nargs="?", type=int, help="level of the span")
    level.add_argument("--limit", type=int, help="stable series up to this degree")
    p.set_defaults(fn=_cmd_hilb)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("scale", nargs="?", type=int, help="override the suite scale")
    p.set_defaults(fn=_cmd_verify)

    for name, sp in sub.choices.items():
        sp.add_argument("--json", action="store_true", help="emit a JSON document")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
