"""reslat: exact verification workbench for residuated algebras.

Norm families on [0,1] with their residua, the induced distances and ball
topologies, table-driven finite BL/DBL-algebras with exhaustive law
checking, and a parser/evaluator for propositional basic-logic formulas.
All arithmetic is exact rational; every law check is a zero-tolerance
equality or inequality test.
"""

from .errors import (
    CarrierTooLarge,
    DrasticNotResiduated,
    FormulaSyntaxError,
    InadmissibleRadius,
    InvalidRadius,
    NotALattice,
    NotAPartialOrder,
    ParseError,
    ReslatError,
    TableOutOfRange,
    TheoremViolation,
    UnbalancedParens,
    UnboundAtom,
    UnknownToken,
)
from .finite import (
    FiniteAlgebra,
    Signature,
    algebra_from_document,
    algebra_to_document,
    biresiduum,
    check_axioms,
    check_derived_laws,
    dualize_algebra,
    load_algebra,
    loads_algebra,
    pair_biresiduum,
)
from .formulas import (
    Atom,
    Bottom,
    Conj,
    Formula,
    Iff,
    Impl,
    Join,
    Meet,
    Neg,
    Top,
    atoms,
    check_prelinearity_tautology,
    desugar,
    evaluate,
    parse,
    parse_valuation,
    sweep_values,
    to_text,
)
from .metric import (
    IntervalBall,
    PairValue,
    SAlgebra,
    continuity_inequalities_check,
    d_bigstar,
    d_star,
    d_star_closed_form,
    d_star_closed_form_check,
    dbl_axioms_check,
    dbl_laws_check,
    interval_ball,
    metric_axioms_check,
    pair_metric_axioms_check,
    weaker_than_lukasiewicz,
)
from .norms import (
    NormFamily,
    NormKind,
    NormSide,
    adjointness_check,
    apply_norm,
    dual_check,
    duality_check,
    dualize,
    norm_axioms_check,
    oracle_agreement_check,
    ordering_chain_check,
    residuum,
    residuum_oracle,
)
from .reports import LawReport, Violation, all_ok
from .topology import (
    Topology,
    admissible_radii,
    ball,
    check_radius_lemmas,
    count_opens,
    enumerate_topology,
    is_open,
    product_ball,
    product_is_open,
    verify_operation_continuity,
)
from .unitval import ONE, ZERO, GridSpec, UnitValue, format_unit, parse_unit

__version__ = "0.1.0"
