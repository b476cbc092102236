"""Command-line front end for the checkers, enumerators, and the evaluator.

Subcommands: ``norms``, ``metric``, ``algebra``, ``eval``.  All numeric
input and output is exact rational (``p/q`` or finite decimals on input);
decimal renderings appear only under ``--approx``, which applies to
``metric --ball`` and to a single ``eval --t-algebra`` value printed as
text, and is refused with exit 2 elsewhere.  Exit codes: 0 when all
executed checks pass, 1 when a check fails, 2 for usage and precondition
errors.  A command's output depends only on its arguments and input
files; ``--help`` prints each grid default.

The handlers of ``norms`` and ``metric``, their sweep budget and law
selector are in reslat.commands, so that ``eval`` and ``algebra`` compile
none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys

from .errors import ReslatError, TheoremViolation, cut


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
commands = _lazy("commands")
finite = _lazy("finite")
formulas = _lazy("formulas")
kernels = _lazy("kernels")
laws = _lazy("laws")
metric = _lazy("metric")
norms = _lazy("norms")
reports = _lazy("reports")
tables = _lazy("tables")
topology = _lazy("topology")
unitval = _lazy("unitval")

FAMILY_NAMES = ["lukasiewicz", "goedel", "product", "drastic"]
RESIDUATED_NAMES = ["lukasiewicz", "goedel", "product"]

# The most valuations (and grid points) one ``eval --sweep`` evaluates.  A
# two-atom sweep runs at 120k-150k valuations/s on a shared 2-core x86 host,
# so one at the limit ends in about a second; a memory test runs 362^2, and
# the benchmark's largest sweep (33^2) is 120 times smaller.
MAX_SWEEP = 1 << 17

# The grid denominator of a bare ``eval --t-algebra ... --sweep``.
SWEEP_GRID = 64

_APPROX_ONLY = "--approx applies only to metric --ball and to a single eval --t-algebra value printed as text"


def _print_json(doc, indent=2) -> None:
    import json  # only JSON output loads it

    print(json.dumps(doc, indent=indent))


def cmd_algebra(args) -> int:
    alg = finite.load_algebra(args.file)
    if args.action == "dualize":
        _print_json(finite.algebra_to_document(finite.dualize_algebra(alg)))
        return 0
    if args.action == "topology":
        topo = topology.enumerate_topology(alg)
        if args.format == "json":
            _print_json({"open_sets": topo.export_lines(), "count": len(topo)})
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
    return reports.emit(args, sections, notes)


def cmd_eval(args) -> int:
    on_carrier = args.algebra is not None
    if args.sweep is not None and (args.assign is not None or args.assign_file is not None):
        raise ValueError("--sweep evaluates every valuation; it cannot be given with --assign or --assign-file")
    if on_carrier and args.sweep is not None and args.sweep is not True:
        raise ValueError("--sweep N sets a grid for --t-algebra; --algebra sweeps its carrier")
    if args.approx and (on_carrier or args.sweep is not None or args.format == "json"):
        raise ValueError(_APPROX_ONLY)
    formula = formulas.parse(args.formula)
    if on_carrier:
        algebra = finite.load_algebra(args.algebra)
    else:
        algebra = kernels.NormFamily.from_name(args.t_algebra, kernels.NormSide.TNORM)

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
            _print_json({"value": str(value)}, indent=None)
        else:
            print(rendered)
        return 0

    if args.sweep is not None:
        if on_carrier:
            domain = algebra.labels
        else:
            denominator = SWEEP_GRID if args.sweep is True else args.sweep
            if denominator > MAX_SWEEP:
                raise ValueError(f"sweep grid denominator {cut(str(denominator))} is over the limit of {MAX_SWEEP}")
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
            _print_json(doc)
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
    norms_cmd.set_defaults(func=lambda args: commands.cmd_norms(args))

    metric_cmd = sub.add_parser("metric", help="induced metric checks and interval balls")
    metric_cmd.add_argument("--family", choices=RESIDUATED_NAMES, required=True)
    metric_cmd.add_argument("--grid", type=int, default=32, metavar="N", help="grid denominator (default: %(default)s)")
    metric_cmd.add_argument("--grid4", type=int, default=16, metavar="N", help="4-tuple grid (default: %(default)s)")
    metric_cmd.add_argument("--laws", metavar="SPEC", help="derived-law selector, e.g. d1..d15 or d3,d10")
    metric_cmd.add_argument("--laws-grid", type=int, default=8, metavar="N", help="--laws grid (default: %(default)s)")
    metric_cmd.add_argument("--ball", metavar="CENTER,RADIUS", help="print the ball closed form")
    metric_cmd.add_argument("--format", choices=["text", "json"], default="text")
    metric_cmd.add_argument("--approx", action="store_true")
    metric_cmd.set_defaults(func=lambda args: commands.cmd_metric(args))

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

    for command in sub.choices.values():
        command.set_defaults(parser=command)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # Options before the subcommand's name are the top-level parser's; the rest are the subcommand's.
        owner = parser if set(unknown) & set(argv[: argv.index(args.command)]) else args.parser
        owner.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.verdict = 0  # eval, topology and dualize print only once their output is computed
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (``reslat ... | head``): not bad input,
        # so the verdict stands.  The rest of the output goes to the null
        # device, so that the flush at shutdown prints nothing.
        with contextlib.suppress(AttributeError, OSError):  # a stream without a file descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return args.verdict
    except TheoremViolation as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ReslatError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
