"""Command-line front end for the checkers, enumerators, and the evaluator.

Subcommands: ``norms``, ``metric``, ``algebra``, ``eval``.  All numeric
input and output is exact rational (``p/q`` or finite decimals on input);
decimal renderings appear only under ``--approx``.  Exit codes: 0 when all
executed checks pass, 1 when a check fails, 2 for usage and precondition
errors.  The environment variable ``RESLAT_GRID`` overrides the default
grid denominator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import DrasticNotResiduated, ReslatError, TheoremViolation
from .finite import algebra_to_document, check_axioms, check_derived_laws, load_algebra
from .formulas import atoms, evaluate, parse, parse_valuation, sweep_values
from .metric import (
    SAlgebra,
    continuity_inequalities_check,
    d_star_closed_form_check,
    dbl_axioms_check,
    dbl_laws_check,
    interval_ball,
    metric_axioms_check,
)
from .norms import (
    NormFamily,
    NormKind,
    NormSide,
    adjointness_check,
    duality_check,
    norm_axioms_check,
    oracle_agreement_check,
    ordering_chain_check,
)
from .reports import all_ok
from .topology import check_radius_lemmas, count_opens, enumerate_topology, verify_operation_continuity
from .unitval import GridSpec, check_digits, format_unit, parse_unit

FAMILY_NAMES = [k.value for k in NormKind]
RESIDUATED_NAMES = [k.value for k in NormKind if k is not NormKind.DRASTIC]


def _default_grid() -> int:
    raw = os.environ.get("RESLAT_GRID")
    if raw is None:
        return 64
    denominator = int(raw)
    if denominator < 2:
        raise ValueError(f"RESLAT_GRID must be >= 2, got {raw}")
    return denominator


def _emit(args, sections, notes=(), extra=None) -> int:
    ok = all(all_ok(reports) for _, reports in sections)
    if args.format == "json":
        doc = {
            "ok": ok,
            "sections": [
                {"title": title, "reports": [r.to_dict() for r in reports]}
                for title, reports in sections
            ],
        }
        if notes:
            doc["notes"] = list(notes)
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        for title, reports in sections:
            print(f"== {title}")
            for report in reports:
                for line in report.lines():
                    print(line)
        for note in notes:
            print(f"note: {note}")
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
        print("result: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _parse_law_selector(selector: str, prefix: str, count: int) -> list[str]:
    selector = selector.strip().lower()
    if ".." in selector:
        lo_text, hi_text = selector.split("..", 1)
        lo = int(lo_text.lstrip(prefix.lower()))
        hi = int(hi_text.lstrip(prefix.lower()))
        if not (1 <= lo <= hi <= count):
            raise ValueError(f"bad law range {selector!r}")
        return [f"{prefix}{i}" for i in range(lo, hi + 1)]
    ids = [int(part.strip().lstrip(prefix.lower())) for part in selector.split(",")]
    bad = [i for i in ids if not 1 <= i <= count]
    if bad:
        raise ValueError(f"law numbers out of range: {bad}")
    return [f"{prefix}{i}" for i in ids]


def cmd_norms(args) -> int:
    grid = GridSpec(args.grid)
    if args.all:
        kinds = list(NormKind)
    else:
        kinds = [NormKind(args.family)]
    sections = []
    notes = []
    for kind in kinds:
        if args.residuum and kind is NormKind.DRASTIC:
            raise DrasticNotResiduated("the drastic family has no residuum")
        for side in (NormSide.TNORM, NormSide.SNORM):
            family = NormFamily(kind, side)
            sections.append((f"{family.describe()}: axioms", norm_axioms_check(family, grid)))
        sections.append((f"{kind.value}: duality", [duality_check(kind, grid)]))
        if kind is not NormKind.DRASTIC:
            family = NormFamily.s_norm(kind)
            sections.append((f"{kind.value}: adjointness", [adjointness_check(family, grid)]))
            oracle_grid = GridSpec(min(args.grid, 16))
            sections.append(
                (f"{kind.value}: residuum vs oracle", [oracle_agreement_check(family, oracle_grid)])
            )
            if oracle_grid.denominator != args.grid:
                notes.append(
                    f"residuum-oracle sweep capped at denominator {oracle_grid.denominator}"
                )
        else:
            notes.append(
                "drastic s-norm uses the standard definition: value 1 when both arguments are nonzero"
            )
    sections.append(
        ("ordering chains", [ordering_chain_check(side, grid) for side in (NormSide.TNORM, NormSide.SNORM)])
    )
    return _emit(args, sections, notes)


def cmd_metric(args) -> int:
    alg = SAlgebra.of(args.family)
    if args.ball:
        center_text, _, radius_text = args.ball.partition(",")
        if not radius_text:
            raise ValueError("--ball expects CENTER,RADIUS")
        center, radius = parse_unit(center_text), parse_unit(radius_text)
        ball = interval_ball(alg, center, radius)
        for piece in ball.pieces:
            for end in piece.ends():
                check_digits(end, "ball end")
        agreement = ball.agreement_check()
        extra = {
            "ball": ball.describe(),
            "center": format_unit(center, args.approx),
            "radius": format_unit(radius, args.approx),
        }
        return _emit(args, [("ball closed form vs predicate", [agreement])], extra=extra)

    if args.laws:
        # Refuse a bad selector or laws grid before any sweep runs.
        ids = _parse_law_selector(args.laws, "D", 15)
        laws_grid = GridSpec(args.laws_grid)
    grid = GridSpec(args.grid)
    grid4 = GridSpec(args.grid4)
    sections = [
        ("induced distance: closed form", [d_star_closed_form_check(alg, grid)]),
        ("induced distance: metric axioms", metric_axioms_check(alg, grid)),
        ("signature axioms on the grid", dbl_axioms_check(alg, GridSpec(min(args.grid, 16)))),
        ("continuity contracts", continuity_inequalities_check(alg, grid4)),
    ]
    notes = []
    if args.laws:
        sections.append((f"derived laws {ids[0]}..{ids[-1]}", dbl_laws_check(alg, laws_grid, ids)))
        notes.append(f"derived-law sweep at denominator {args.laws_grid}")
    return _emit(args, sections, notes)


def cmd_algebra(args) -> int:
    alg = load_algebra(args.file)
    if args.action == "dualize":
        from .finite import dualize_algebra

        print(json.dumps(algebra_to_document(dualize_algebra(alg)), indent=2))
        return 0
    if args.action == "topology":
        topo = enumerate_topology(alg)
        if args.format == "json":
            print(json.dumps({"open_sets": topo.export_lines(), "count": len(topo)}, indent=2))
        else:
            for line in topo.export_lines():
                print(line)
            print(f"{len(topo)} open sets")
        return 0

    sections = [("signature axioms", check_axioms(alg))]
    notes = []
    axioms_ok = all_ok(sections[0][1])
    if axioms_ok:
        sections.append(("derived laws", check_derived_laws(alg)))
        sections.append(("radius lemmas", check_radius_lemmas(alg)))
        notes.append(f"topology: {count_opens(alg)} open sets")
        sections.append(("operation continuity", verify_operation_continuity(alg)))
    else:
        notes.append("axioms failed; skipping derived laws, topology, and continuity")
    return _emit(args, sections, notes)


def cmd_eval(args) -> int:
    formula = parse(args.formula)
    finite = args.algebra is not None
    if finite:
        algebra = load_algebra(args.algebra)
    else:
        algebra = NormFamily.from_name(args.t_algebra, NormSide.TNORM)

    names = atoms(formula)
    direct = args.assign is not None or args.assign_file is not None or (not names and args.sweep is None)
    if direct:
        text = args.assign or ""
        if args.assign_file is not None:
            with open(args.assign_file, encoding="utf-8") as handle:
                text = handle.read()
        valuation = parse_valuation(text, finite=finite)
        value = evaluate(formula, algebra, valuation)
        rendered = value if finite else format_unit(check_digits(value, "result"), args.approx)
        if args.format == "json":
            print(json.dumps({"value": str(value)}))
        else:
            print(rendered)
        return 0

    if args.sweep is not None:
        if finite:
            domain = algebra.labels
        else:
            denominator = args.sweep if args.sweep else _default_grid()
            domain = GridSpec(denominator).points()
        results = sweep_values(formula, algebra, domain)
        order = algebra.index if finite else None
        values = sorted(set(results.values()), key=order)
        if args.format == "json":
            doc = {
                "atoms": list(names),
                "valuations": len(results),
                "values": [str(v) for v in values],
                "constant": str(values[0]) if len(values) == 1 else None,
            }
            print(json.dumps(doc, indent=2))
        elif len(values) == 1:
            print(f"constant {values[0]} over {len(results)} valuations")
        else:
            print(f"{len(values)} distinct values over {len(results)} valuations:")
            for v in values:
                print(f"  {v}")
        return 0

    raise ValueError("eval needs --assign, --assign-file, or --sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslat",
        description="Exact verification workbench for residuated algebras and basic-logic formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default_grid = _default_grid()

    norms = sub.add_parser("norms", help="norm family checks: axioms, duality, ordering, residuation")
    group = norms.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=FAMILY_NAMES)
    group.add_argument("--all", action="store_true")
    norms.add_argument("--grid", type=int, default=default_grid, metavar="N")
    norms.add_argument("--residuum", action="store_true", help="require residuum checks (errors for drastic)")
    norms.add_argument("--format", choices=["text", "json"], default="text")
    norms.add_argument("--approx", action="store_true")
    norms.set_defaults(func=cmd_norms)

    metric = sub.add_parser("metric", help="induced metric checks and interval balls")
    metric.add_argument("--family", choices=RESIDUATED_NAMES, required=True)
    metric.add_argument("--grid", type=int, default=min(default_grid, 32), metavar="N")
    metric.add_argument("--grid4", type=int, default=16, metavar="N", help="denominator for 4-tuple sweeps")
    metric.add_argument("--laws", metavar="SPEC", help="derived-law selector, e.g. d1..d15 or d3,d10")
    metric.add_argument("--laws-grid", type=int, default=8, metavar="N")
    metric.add_argument("--ball", metavar="CENTER,RADIUS", help="print the ball closed form")
    metric.add_argument("--format", choices=["text", "json"], default="text")
    metric.add_argument("--approx", action="store_true")
    metric.set_defaults(func=cmd_metric)

    algebra = sub.add_parser("algebra", help="finite algebra checks, topology, dualization")
    algebra.add_argument("action", choices=["check", "topology", "dualize"])
    algebra.add_argument("file")
    algebra.add_argument("--format", choices=["text", "json"], default="text")
    algebra.set_defaults(func=cmd_algebra)

    evaluate_cmd = sub.add_parser("eval", help="evaluate a formula over an algebra")
    evaluate_cmd.add_argument("formula")
    backend = evaluate_cmd.add_mutually_exclusive_group(required=True)
    backend.add_argument("--t-algebra", choices=RESIDUATED_NAMES, dest="t_algebra")
    backend.add_argument("--algebra", metavar="FILE")
    evaluate_cmd.add_argument("--assign", metavar="A=V,...")
    evaluate_cmd.add_argument("--assign-file", metavar="FILE")
    evaluate_cmd.add_argument("--sweep", type=int, nargs="?", const=0, metavar="N")
    evaluate_cmd.add_argument("--format", choices=["text", "json"], default="text")
    evaluate_cmd.add_argument("--approx", action="store_true")
    evaluate_cmd.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ReslatError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
