"""The handlers of ``reslat norms`` and ``reslat metric``, their sweep
budget and their law selector.

reslat.cli parses the arguments and calls these handlers through its lazy
handle on this module, so the other commands compile none of them.  They
reach the layers through the same lazy handles as reslat.cli.
"""

from __future__ import annotations

import re

from .cli import _APPROX_ONLY, kernels, laws, metric, norms, reports, unitval
from .errors import cut

# The most tuples one ``norms`` or ``metric`` command checks: the sum of the
# ``checked`` counts of its reports, computed before any sweep starts.  On a
# shared 2-core x86 host the row sweeps (norm axioms, adjointness, the
# continuity contracts) check about 2.2M tuples/s, 20 s at the limit, and
# the product metric axioms and D-law sweeps about 0.55M/s, 80 s.  The
# largest command of the tests and the benchmark, ``norms --all --grid 64``
# (4,213,712 tuples), is 10.7 times below it.
MAX_TUPLES = 45_000_000


def _refuse_over_budget(tuples: int, grid: int) -> None:
    # Each sweep checks more tuples than its grid denominator, so ``grid``,
    # the largest, if past the limit stands in for a count maybe too long to print.
    if tuples > MAX_TUPLES:
        count = cut(str(tuples)) if grid <= MAX_TUPLES else f"more than {cut(str(grid))}"
        raise ValueError(f"a sweep of {count} tuples is over the limit of {MAX_TUPLES}")


def _parse_law_selector(selector: str, prefix: str, count: int) -> list[str]:
    selector = selector.strip().lower()
    number, echo = rf"\s*{prefix.lower()}?0*([1-9][0-9]*|0)\s*", cut(repr(selector))
    # Leading zeros aside, a number longer than ``count`` is out of range.
    value = lambda digits: int(digits) if len(digits) <= len(str(count)) else count + 1
    if ".." in selector:
        match = re.fullmatch(rf"{number}\.\.{number}", selector)
        if match is None:
            raise ValueError(f"bad law selector {echo}")
        lo, hi = map(value, match.groups())
        if not (1 <= lo <= hi <= count):
            raise ValueError(f"bad law range {echo}")
        return [f"{prefix}{i}" for i in range(lo, hi + 1)]
    matches = [re.fullmatch(number, part) for part in selector.split(",")]
    if not all(matches):
        raise ValueError(f"bad law selector {echo}")
    numbers = [match.group(1) for match in matches]
    bad = [digits for digits in numbers if not 1 <= value(digits) <= count]
    if bad:
        raise ValueError(f"law numbers out of range: {cut('[' + ', '.join(bad) + ']')}")
    return [f"{prefix}{digits}" for digits in numbers]


def cmd_norms(args) -> int:
    grid = unitval.GridSpec(args.grid)
    NormKind = norms.NormKind
    kinds = list(NormKind) if args.all else [NormKind(args.family)]
    _refuse_over_budget(norms.tuples_checked(kinds, args.grid), args.grid)
    # One table of the grid for the whole run: each norm and residuum square
    # is built once, and every checker reads it from there.
    table = kernels.ValueTable(grid.points())
    sections, notes = [], []
    for kind in kinds:
        for side in norms.NormSide:
            family = norms.NormFamily(kind, side)
            sections.append((f"{family.describe()}: axioms", norms.norm_axioms_check(family, grid, table)))
        sections.append((f"{kind.value}: duality", [norms.duality_check(kind, grid, table)]))
        if kind is not NormKind.DRASTIC:
            family = norms.NormFamily.s_norm(kind)
            sections.append((f"{kind.value}: adjointness", [norms.adjointness_check(family, grid, table)]))
            oracle_grid = unitval.GridSpec(min(args.grid, norms.MAX_ORACLE_GRID))
            sections.append((f"{kind.value}: residuum vs oracle", [norms.oracle_agreement_check(family, oracle_grid)]))
            if oracle_grid.denominator != args.grid:
                notes.append(f"residuum-oracle sweep capped at denominator {oracle_grid.denominator}")
        else:
            notes.append("drastic s-norm uses the standard definition: value 1 when both arguments are nonzero")
    sections.append(("ordering chains", [norms.ordering_chain_check(side, grid, table) for side in norms.NormSide]))
    return reports.emit(args, sections, notes)


def cmd_metric(args) -> int:
    if args.approx and not args.ball:
        raise ValueError(_APPROX_ONLY)
    if args.ball and args.laws is not None:
        raise ValueError("--ball checks one ball; it cannot be given with --laws")
    ids = ()
    if args.laws is not None:
        # Refuse a bad selector or grid before any sweep runs.  Each law runs
        # once, in catalogue order, and is counted once in the budget.
        ids = sorted(set(_parse_law_selector(args.laws, "D", len(laws.D_LAWS))), key=lambda law_id: int(law_id[1:]))
    laws_grid, grid, grid4 = (unitval.GridSpec(n) for n in (args.laws_grid, args.grid, args.grid4))
    alg = metric.SAlgebra.of(args.family)
    if args.ball:
        center_text, _, radius_text = args.ball.partition(",")
        if not center_text.strip() or not radius_text.strip():
            raise ValueError("--ball expects CENTER,RADIUS")
        center, radius = unitval.parse_unit(center_text), unitval.parse_unit(radius_text)
        ball = metric.interval_ball(alg, center, radius)
        printed = [("ball end", ball.piece.lo), ("ball end", ball.piece.hi), ("ball center", center), ("ball radius", radius)]
        for what, value in printed:
            unitval.check_digits(value, what)
        agreement = ball.agreement_check()
        extra = {
            "ball": ball.describe(),
            "center": unitval.format_unit(center, args.approx),
            "radius": unitval.format_unit(radius, args.approx),
        }
        return reports.emit(args, [("ball closed form vs predicate", [agreement])], extra=extra)

    axioms_grid = unitval.GridSpec(min(args.grid, metric.MAX_AXIOM_GRID))
    tuples = metric.tuples_checked(args.grid, args.grid4, args.laws_grid, ids)
    _refuse_over_budget(tuples, max(args.grid, args.grid4, args.laws_grid if ids else 0))
    sections = [
        ("induced distance: closed form", [metric.d_star_closed_form_check(alg, grid)]),
        ("induced distance: metric axioms", metric.metric_axioms_check(alg, grid)),
        ("signature axioms on the grid", metric.dbl_axioms_check(alg, axioms_grid)),
        ("continuity contracts", metric.continuity_inequalities_check(alg, grid4)),
    ]
    notes = []
    if args.laws is not None:
        consecutive = len(ids) > 1 and int(ids[-1][1:]) - int(ids[0][1:]) == len(ids) - 1
        title = f"{ids[0]}..{ids[-1]}" if consecutive else ", ".join(ids)
        sections.append((f"derived laws {title}", metric.dbl_laws_check(alg, laws_grid, ids)))
        notes.append(f"derived-law sweep at denominator {args.laws_grid}")
    return reports.emit(args, sections, notes)
