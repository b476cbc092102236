"""reslat: exact verification workbench for residuated algebras.

Norm families on [0,1] with their residua, the induced distances and ball
topologies, table-driven finite BL/DBL-algebras with exhaustive law
checking, and a parser/evaluator for propositional basic-logic formulas.
All arithmetic is exact rational; every law check is a zero-tolerance
equality or inequality test.

Importing the package runs no layer module.  Each exported name, and each
submodule name such as ``reslat.metric``, is imported from its module on
first access and then cached (PEP 562), so ``python -m reslat`` pays only
for the layers its command runs.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "errors": """CarrierTooLarge DrasticNotResiduated FormulaSyntaxError InadmissibleRadius InvalidRadius
        NotALattice NotAPartialOrder ParseError ReslatError TableOutOfRange TheoremViolation
        UnbalancedParens UnboundAtom UnknownToken""",
    "finite": """FiniteAlgebra Signature algebra_from_document algebra_to_document biresiduum check_axioms
        check_derived_laws dualize_algebra load_algebra loads_algebra pair_biresiduum""",
    "formulas": """Atom Bottom Conj Formula Iff Impl Join Meet Neg Top atoms check_prelinearity_tautology
        desugar evaluate parse parse_valuation sweep_values to_text""",
    "kernels": "NormFamily NormKind NormSide dualize",
    "metric": """IntervalBall PairValue SAlgebra continuity_inequalities_check d_bigstar d_star
        d_star_closed_form d_star_closed_form_check dbl_axioms_check dbl_laws_check interval_ball
        metric_axioms_check pair_metric_axioms_check weaker_than_lukasiewicz""",
    "norms": """adjointness_check apply_norm dual_check duality_check norm_axioms_check oracle_agreement_check
        ordering_chain_check residuum residuum_oracle""",
    "reports": "LawReport Violation all_ok",
    "topology": """Topology admissible_radii ball check_radius_lemmas count_opens enumerate_topology is_open
        product_ball product_is_open verify_operation_continuity""",
    "unitval": "ONE ZERO GridSpec UnitValue format_unit parse_unit",
}
_SUBMODULES = (*_EXPORTS, "cli", "commands", "fixtures", "laws", "tables")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
