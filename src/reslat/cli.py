"""Command-line front end for the checkers, enumerators, and the evaluator.

Subcommands: ``norms``, ``metric``, ``algebra``, ``eval``.  All numeric
input and output is exact rational (``p/q`` or finite decimals on input);
decimal renderings appear only under ``--approx`` (``metric --ball`` and
``eval``).  Exit codes: 0 when all executed checks pass, 1 when a check
fails, 2 for usage and precondition errors.  A command's output depends
only on its arguments and input files; ``--help`` prints each grid default.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys

from .errors import ReslatError, TheoremViolation


def _lazy(name: str):
    """``reslat.<name>``, registered in ``sys.modules`` now but executed only
    on its first attribute access (the ``importlib.util.LazyLoader`` recipe)."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# Every layer is registered here, so tools that patch layer functions in
# ``sys.modules`` (perfbench/tracer.py) find them all after ``import
# reslat.cli``; a command executes only the layers it calls into.
finite = _lazy("finite")
formulas = _lazy("formulas")
laws = _lazy("laws")
metric = _lazy("metric")
norms = _lazy("norms")
reports = _lazy("reports")
topology = _lazy("topology")
unitval = _lazy("unitval")

FAMILY_NAMES = ["lukasiewicz", "goedel", "product", "drastic"]
RESIDUATED_NAMES = ["lukasiewicz", "goedel", "product"]

# The most valuations (and grid points) one ``eval --sweep`` evaluates.  A
# two-atom sweep runs at 20k-35k valuations/s on a shared 2-core x86 host, so
# one at the limit ends within seconds; the largest sweep the tests and the
# benchmark run (33^2) is 120 times smaller.
MAX_SWEEP = 1 << 17

# The grid denominator of a bare ``eval --t-algebra ... --sweep``.
SWEEP_GRID = 64


# The most tuples one ``norms`` or ``metric`` command checks: the sum of the
# ``checked`` counts of its reports, computed before any sweep starts.  On a
# shared 2-core x86 host the row sweeps (norm axioms, adjointness, the
# continuity contracts) check about 2.2M tuples/s, so a command of them at
# the limit ends in about 20 s; the product metric axioms and D-law sweeps
# check about 0.55M/s, about 80 s at the limit.  The largest command the
# tests and the benchmark run, ``norms --all --grid 64`` with 4,213,712
# tuples, is 10.7 times below it.
MAX_TUPLES = 45_000_000


def _refuse_over_budget(tuples: int) -> None:
    if tuples > MAX_TUPLES:
        raise ValueError(f"a sweep of {tuples} tuples is over the limit of {MAX_TUPLES}")


def _emit(args, sections, notes=(), extra=None) -> int:
    ok = all(reports.all_ok(section) for _, section in sections)
    if args.format == "json":
        doc = {
            "ok": ok,
            "sections": [
                {"title": title, "reports": [r.to_dict() for r in section]}
                for title, section in sections
            ],
        }
        if notes:
            doc["notes"] = list(notes)
        if extra:
            doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        for title, section in sections:
            print(f"== {title}")
            for report in section:
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
    number = rf"\s*{prefix.lower()}?([0-9]+)\s*"
    if ".." in selector:
        match = re.fullmatch(rf"{number}\.\.{number}", selector)
        if match is None:
            raise ValueError(f"bad law selector {selector!r}")
        lo, hi = map(int, match.groups())
        if not (1 <= lo <= hi <= count):
            raise ValueError(f"bad law range {selector!r}")
        return [f"{prefix}{i}" for i in range(lo, hi + 1)]
    matches = [re.fullmatch(number, part) for part in selector.split(",")]
    if not all(matches):
        raise ValueError(f"bad law selector {selector!r}")
    ids = [int(match.group(1)) for match in matches]
    bad = [i for i in ids if not 1 <= i <= count]
    if bad:
        raise ValueError(f"law numbers out of range: {bad}")
    return [f"{prefix}{i}" for i in ids]


def cmd_norms(args) -> int:
    grid = unitval.GridSpec(args.grid)
    NormKind, NormSide = norms.NormKind, norms.NormSide
    if args.all:
        kinds = list(NormKind)
    else:
        kinds = [NormKind(args.family)]
    _refuse_over_budget(norms.tuples_checked(kinds, args.grid))
    sections = []
    notes = []
    for kind in kinds:
        for side in (NormSide.TNORM, NormSide.SNORM):
            family = norms.NormFamily(kind, side)
            sections.append((f"{family.describe()}: axioms", norms.norm_axioms_check(family, grid)))
        sections.append((f"{kind.value}: duality", [norms.duality_check(kind, grid)]))
        if kind is not NormKind.DRASTIC:
            family = norms.NormFamily.s_norm(kind)
            sections.append((f"{kind.value}: adjointness", [norms.adjointness_check(family, grid)]))
            oracle_grid = unitval.GridSpec(min(args.grid, norms.MAX_ORACLE_GRID))
            sections.append(
                (f"{kind.value}: residuum vs oracle", [norms.oracle_agreement_check(family, oracle_grid)])
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
        ("ordering chains", [norms.ordering_chain_check(side, grid) for side in (NormSide.TNORM, NormSide.SNORM)])
    )
    return _emit(args, sections, notes)


def cmd_metric(args) -> int:
    alg = metric.SAlgebra.of(args.family)
    if args.ball:
        center_text, _, radius_text = args.ball.partition(",")
        if not center_text.strip() or not radius_text.strip():
            raise ValueError("--ball expects CENTER,RADIUS")
        center, radius = unitval.parse_unit(center_text), unitval.parse_unit(radius_text)
        ball = metric.interval_ball(alg, center, radius)
        for piece in ball.pieces:
            for end in piece.ends():
                unitval.check_digits(end, "ball end")
        agreement = ball.agreement_check()
        extra = {
            "ball": ball.describe(),
            "center": unitval.format_unit(center, args.approx),
            "radius": unitval.format_unit(radius, args.approx),
        }
        return _emit(args, [("ball closed form vs predicate", [agreement])], extra=extra)

    ids = ()
    if args.laws:
        # Refuse a bad selector or laws grid before any sweep runs.
        ids = _parse_law_selector(args.laws, "D", 15)
        laws_grid = unitval.GridSpec(args.laws_grid)
    grid = unitval.GridSpec(args.grid)
    grid4 = unitval.GridSpec(args.grid4)
    axioms_grid = unitval.GridSpec(min(args.grid, metric.MAX_AXIOM_GRID))
    _refuse_over_budget(metric.tuples_checked(args.grid, args.grid4, args.laws_grid, ids))
    sections = [
        ("induced distance: closed form", [metric.d_star_closed_form_check(alg, grid)]),
        ("induced distance: metric axioms", metric.metric_axioms_check(alg, grid)),
        ("signature axioms on the grid", metric.dbl_axioms_check(alg, axioms_grid)),
        ("continuity contracts", metric.continuity_inequalities_check(alg, grid4)),
    ]
    notes = []
    if args.laws:
        sections.append((f"derived laws {ids[0]}..{ids[-1]}", metric.dbl_laws_check(alg, laws_grid, ids)))
        notes.append(f"derived-law sweep at denominator {args.laws_grid}")
    return _emit(args, sections, notes)


def cmd_algebra(args) -> int:
    alg = finite.load_algebra(args.file)
    if args.action == "dualize":
        print(json.dumps(finite.algebra_to_document(finite.dualize_algebra(alg)), indent=2))
        return 0
    if args.action == "topology":
        topo = topology.enumerate_topology(alg)
        if args.format == "json":
            print(json.dumps({"open_sets": topo.export_lines(), "count": len(topo)}, indent=2))
        else:
            for line in topo.export_lines():
                print(line)
            print(f"{len(topo)} open sets")
        return 0

    sections = [("signature axioms", finite.check_axioms(alg))]
    notes = []
    axioms_ok = reports.all_ok(sections[0][1])
    if axioms_ok:
        sections.append(("derived laws", finite.check_derived_laws(alg)))
        sections.append(("radius lemmas", topology.check_radius_lemmas(alg)))
        notes.append(f"topology: {topology.count_opens(alg)} open sets")
        sections.append(("operation continuity", topology.verify_operation_continuity(alg)))
    else:
        notes.append("axioms failed; skipping derived laws, topology, and continuity")
    return _emit(args, sections, notes)


def cmd_eval(args) -> int:
    on_carrier = args.algebra is not None
    if args.sweep is not None and (args.assign is not None or args.assign_file is not None):
        raise ValueError("--sweep evaluates every valuation; it cannot be given with --assign or --assign-file")
    if on_carrier and args.sweep is not None and args.sweep is not True:
        raise ValueError("--sweep N sets a grid for --t-algebra; --algebra sweeps its carrier")
    formula = formulas.parse(args.formula)
    if on_carrier:
        algebra = finite.load_algebra(args.algebra)
    else:
        algebra = norms.NormFamily.from_name(args.t_algebra, norms.NormSide.TNORM)

    names = formulas.atoms(formula)
    direct = args.assign is not None or args.assign_file is not None or (not names and args.sweep is None)
    if direct:
        text = args.assign or ""
        if args.assign_file is not None:
            with open(args.assign_file, encoding="utf-8") as handle:
                text = handle.read()
        valuation = formulas.parse_valuation(text, finite=on_carrier)
        value = formulas.evaluate(formula, algebra, valuation)
        rendered = value if on_carrier else unitval.format_unit(unitval.check_digits(value, "result"), args.approx)
        if args.format == "json":
            print(json.dumps({"value": str(value)}))
        else:
            print(rendered)
        return 0

    if args.sweep is not None:
        if on_carrier:
            domain = algebra.labels
        else:
            denominator = SWEEP_GRID if args.sweep is True else args.sweep
            if denominator > MAX_SWEEP:
                raise ValueError(f"sweep grid denominator {denominator} is over the limit of {MAX_SWEEP}")
            domain = unitval.GridSpec(denominator).points()
        # Past MAX_SWEEP.bit_length() atoms, any domain of two or more values is over the limit.
        size, k = len(domain), len(names)
        if size ** min(k, MAX_SWEEP.bit_length()) > MAX_SWEEP:
            raise ValueError(f"a sweep of {size}^{k} valuations is over the limit of {MAX_SWEEP}")
        results = formulas.sweep_values(formula, algebra, domain)
        order = algebra.index if on_carrier else None
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

    norms_cmd = sub.add_parser("norms", help="norm family checks: axioms, duality, ordering, residuation")
    group = norms_cmd.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=FAMILY_NAMES)
    group.add_argument("--all", action="store_true")
    norms_cmd.add_argument("--grid", type=int, default=64, metavar="N", help="grid denominator (default: %(default)s)")
    norms_cmd.add_argument("--format", choices=["text", "json"], default="text")
    norms_cmd.set_defaults(func=cmd_norms)

    metric_cmd = sub.add_parser("metric", help="induced metric checks and interval balls")
    metric_cmd.add_argument("--family", choices=RESIDUATED_NAMES, required=True)
    metric_cmd.add_argument("--grid", type=int, default=32, metavar="N", help="grid denominator (default: %(default)s)")
    metric_cmd.add_argument("--grid4", type=int, default=16, metavar="N", help="4-tuple grid (default: %(default)s)")
    metric_cmd.add_argument("--laws", metavar="SPEC", help="derived-law selector, e.g. d1..d15 or d3,d10")
    metric_cmd.add_argument("--laws-grid", type=int, default=8, metavar="N", help="--laws grid (default: %(default)s)")
    metric_cmd.add_argument("--ball", metavar="CENTER,RADIUS", help="print the ball closed form")
    metric_cmd.add_argument("--format", choices=["text", "json"], default="text")
    metric_cmd.add_argument("--approx", action="store_true")
    metric_cmd.set_defaults(func=cmd_metric)

    algebra_cmd = sub.add_parser("algebra", help="finite algebra checks, topology, dualization")
    algebra_cmd.add_argument("action", choices=["check", "topology", "dualize"])
    algebra_cmd.add_argument("file")
    algebra_cmd.add_argument("--format", choices=["text", "json"], default="text")
    algebra_cmd.set_defaults(func=cmd_algebra)

    evaluate_cmd = sub.add_parser("eval", help="evaluate a formula over an algebra")
    evaluate_cmd.add_argument("formula")
    backend = evaluate_cmd.add_mutually_exclusive_group(required=True)
    backend.add_argument("--t-algebra", choices=RESIDUATED_NAMES, dest="t_algebra")
    backend.add_argument("--algebra", metavar="FILE")
    evaluate_cmd.add_argument("--assign", metavar="A=V,...")
    evaluate_cmd.add_argument("--assign-file", metavar="FILE")
    sweep_help = f"evaluate all valuations on the --algebra carrier or the --t-algebra grid of N (bare: {SWEEP_GRID})"
    evaluate_cmd.add_argument("--sweep", type=int, nargs="?", const=True, metavar="N", help=sweep_help)  # bare: True
    evaluate_cmd.add_argument("--format", choices=["text", "json"], default="text")
    evaluate_cmd.add_argument("--approx", action="store_true")
    evaluate_cmd.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
