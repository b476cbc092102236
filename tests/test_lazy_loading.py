"""Each command runs only the modules it uses.

``import reslat`` runs no layer module; ``reslat.cli`` registers every layer
in ``sys.modules`` but runs a layer's code only when a command first calls
into it.  The load sets are observed in a fresh interpreter through the
``exec`` audit event, which fires once per module body the import system
runs.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reslat
import reslat.cli
from reslat.cli import FAMILY_NAMES, RESIDUATED_NAMES
from reslat.norms import NormKind

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src"
FIXTURES = ROOT / "fixtures"

# Prints, as JSON, the reslat modules whose bodies ran while it imported
# reslat (or reslat.cli), ran ``python -m reslat ARGV`` or ran the
# benchmark's set-up probe on a spec, and which reslat modules, and which of
# ``fractions``, ``dataclasses`` and ``inspect``, are in sys.modules
# afterwards.
PROBE = """
import json, runpy, sys
executed = set()
def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        executed.add(args[0].co_filename)
sys.addaudithook(hook)
mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
if mode == "run":
    sys.argv = ["reslat", *argv]
    try:
        runpy.run_module("reslat", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
elif mode == "setup":
    import importlib.util
    sys.dont_write_bytecode = True  # read the probe; write nothing next to it
    spec = importlib.util.spec_from_file_location("perfbench_setup_probe", argv[0])
    setup_probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(setup_probe)
    assert setup_probe.main(*argv[1:]) == 0
else:
    __import__(mode)
with open(out, "w", encoding="utf-8") as handle:
    json.dump({
        "executed": sorted(executed),
        "registered": sorted(m for m in sys.modules if m == "reslat" or m.startswith("reslat.")),
        "fractions": "fractions" in sys.modules,
        "dataclasses": "dataclasses" in sys.modules,
        "inspect": "inspect" in sys.modules,
    }, handle)
"""

ALL_LAYERS = {
    "cli", "commands", "errors", "finite", "formulas", "kernels", "laws", "metric", "norms", "reports", "tables", "topology",
    "unitval",
}


def probe(tmp_path, mode, *argv):
    out = tmp_path / "probe.json"
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("RESLAT_GRID", None)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(out), *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    package = SRC_DIR / "reslat"
    doc["executed"] = {
        Path(name).stem for name in doc["executed"] if Path(name).parent.resolve() == package.resolve()
    }
    return doc


# command -> layer modules it must never execute
NEVER_EXECUTED = [
    (
        ["algebra", "check", "l4.alg"],
        {"commands", "formulas", "kernels", "metric", "norms", "tables", "unitval"},
    ),
    (
        ["algebra", "topology", "l4.alg"],
        {"commands", "formulas", "kernels", "metric", "norms", "tables", "unitval"},
    ),
    (
        ["algebra", "dualize", "l4.alg"],
        {"commands", "formulas", "kernels", "laws", "metric", "norms", "reports", "tables", "topology", "unitval"},
    ),
    # Over [0,1], eval runs the kernels and none of the norm checkers, the
    # reports, the row sweeps or the other commands' handlers.
    (
        ["eval", "p -> q", "--t-algebra", "product", "--assign", "p=1/2,q=1/3"],
        {"commands", "finite", "laws", "metric", "norms", "reports", "tables", "topology"},
    ),
    (
        ["eval", "(p->q)|(q->p)", "--t-algebra", "goedel", "--sweep", "4"],
        {"commands", "finite", "laws", "metric", "norms", "reports", "tables", "topology"},
    ),
    # A refused formula: parsing runs no norm or table code.
    (
        ["eval", "p ->", "--t-algebra", "product", "--assign", "p=1"],
        {"commands", "finite", "kernels", "laws", "metric", "norms", "reports", "tables", "topology"},
    ),
    (["norms", "--family", "goedel", "--grid", "4"], {"finite", "formulas", "laws", "metric", "topology"}),
    # The metric checkers read the kernels, not the norm checkers.
    (["metric", "--family", "goedel", "--grid", "4", "--grid4", "2"], {"finite", "formulas", "norms", "topology"}),
    # On a finite algebra eval runs the finite layer and not the kernels.
    (
        ["eval", "p->q", "--algebra", "l4.alg", "--sweep"],
        {"commands", "kernels", "metric", "norms", "tables", "topology"},
    ),
]


@pytest.mark.parametrize("argv, never", NEVER_EXECUTED, ids=[" ".join(argv[:2]) for argv, _ in NEVER_EXECUTED])
def test_command_executes_only_its_layers(tmp_path, argv, never):
    (tmp_path / "l4.alg").write_text((FIXTURES / "l4.alg").read_text(encoding="utf-8"), encoding="utf-8")
    doc = probe(tmp_path, "run", *argv)
    assert "cli" in doc["executed"]  # the command ran
    assert not doc["executed"] & never
    # Records are plain classes: no command loads the dataclass machinery.
    assert not doc["dataclasses"] and not doc["inspect"]


def test_algebra_check_runs_no_fraction_arithmetic(tmp_path):
    (tmp_path / "l4.alg").write_text((FIXTURES / "l4.alg").read_text(encoding="utf-8"), encoding="utf-8")
    doc = probe(tmp_path, "run", "algebra", "check", "l4.alg")
    assert doc["executed"] == {"__init__", "__main__", "cli", "errors", "finite", "laws", "reports", "topology"}
    assert not doc["fractions"]


def test_import_reslat_executes_no_layer(tmp_path):
    doc = probe(tmp_path, "reslat")
    assert doc["executed"] == {"__init__"}
    assert doc["registered"] == ["reslat"]


def test_import_tables_executes_no_other_layer(tmp_path):
    # The row kinds serve any layer, finite algebras included, so they load
    # neither the value tables nor Fraction arithmetic.
    doc = probe(tmp_path, "reslat.tables")
    assert doc["executed"] == {"__init__", "tables"}
    assert not doc["fractions"]


def test_import_cli_registers_every_traced_module(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {module for module, _ in tracer.SPAN_FUNCTIONS.values()}
    doc = probe(tmp_path, "reslat.cli")
    assert traced <= set(doc["registered"])
    # Registered, not run: only the package, the CLI and its exception types.
    assert doc["executed"] == {"__init__", "cli", "errors"}
    assert not doc["dataclasses"] and not doc["inspect"]


def test_setup_probe_executes_the_loading_modules_only(tmp_path):
    # The benchmark's set-up probe runs on every workload, so a module that
    # joins this set shows in every workload's set-up time.
    (tmp_path / "l4.alg").write_text((FIXTURES / "l4.alg").read_text(encoding="utf-8"), encoding="utf-8")
    spec = {"algebras": ["l4.alg"], "formulas": ["(p -> q) | (q -> p)"], "valuations": ["p=1/2,q=1/3"], "grids": [4]}
    (tmp_path / "setup.json").write_text(json.dumps(spec), encoding="utf-8")
    doc = probe(tmp_path, "setup", str(ROOT / "perfbench" / "setup_probe.py"), "setup.json", str(SRC_DIR))
    assert doc["executed"] == {"__init__", "errors", "finite", "formulas", "unitval"}


# The package's exports, by module, as they were when the package imported
# every layer eagerly.
EXPORTS = {
    "errors": """CarrierTooLarge DrasticNotResiduated FormulaSyntaxError InadmissibleRadius InvalidRadius
        NotALattice NotAPartialOrder ParseError ReslatError TableOutOfRange TheoremViolation UnbalancedParens
        UnboundAtom UnknownToken""",
    "finite": """FiniteAlgebra Signature algebra_from_document algebra_to_document biresiduum check_axioms
        check_derived_laws dualize_algebra load_algebra loads_algebra pair_biresiduum""",
    "formulas": """Atom Bottom Conj Formula Iff Impl Join Meet Neg Top atoms check_prelinearity_tautology desugar
        evaluate parse parse_valuation sweep_values to_text""",
    "metric": """IntervalBall PairValue SAlgebra continuity_inequalities_check d_bigstar d_star d_star_closed_form
        d_star_closed_form_check dbl_axioms_check dbl_laws_check interval_ball metric_axioms_check
        pair_metric_axioms_check weaker_than_lukasiewicz""",
    "norms": """NormFamily NormKind NormSide adjointness_check apply_norm dual_check duality_check dualize
        norm_axioms_check oracle_agreement_check ordering_chain_check residuum residuum_oracle""",
    "reports": "LawReport Violation all_ok",
    "topology": """Topology admissible_radii ball check_radius_lemmas count_opens enumerate_topology is_open
        product_ball product_is_open verify_operation_continuity""",
    "unitval": "ONE ZERO GridSpec UnitValue format_unit parse_unit",
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def test_export_list_is_unchanged():
    assert len(EXPORTED) == 89
    assert sorted(reslat.__all__) == sorted(name for _, name in EXPORTED)
    assert reslat.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", EXPORTED)
def test_each_export_is_its_module_object(module, name):
    assert getattr(reslat, name) is getattr(sys.modules[f"reslat.{module}"], name)
    assert name in dir(reslat)


@pytest.mark.parametrize("module", sorted(ALL_LAYERS | {"fixtures"}))
def test_submodules_resolve_as_attributes(module):
    assert getattr(reslat, module) is sys.modules[f"reslat.{module}"]
    assert module in dir(reslat)


@pytest.mark.parametrize("name", ["no_such_name", "lukasiewicz_chain", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        getattr(reslat, name)
    assert not hasattr(reslat, name)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from reslat import *", namespace)
    assert set(namespace) - {"__builtins__"} == {name for _, name in EXPORTED}


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2/3", "16"]


def test_family_name_literals_match_norm_kinds():
    assert FAMILY_NAMES == [kind.value for kind in NormKind]
    assert RESIDUATED_NAMES == [kind.value for kind in NormKind if kind is not NormKind.DRASTIC]


@pytest.mark.parametrize("argv", [argv for argv, _ in NEVER_EXECUTED[3:5]], ids=["assign", "sweep"])
def test_eval_over_the_unit_interval_executes_the_evaluator_only(tmp_path, argv):
    doc = probe(tmp_path, "run", *argv)
    assert doc["executed"] == {"__init__", "__main__", "cli", "errors", "formulas", "kernels", "unitval"}


@pytest.mark.parametrize("action", ["check", "topology", "dualize"])
def test_algebra_never_runs_the_eval_handler(capsys, monkeypatch, action):
    monkeypatch.setattr(reslat.cli, "cmd_eval", lambda args: pytest.fail("the eval handler ran"))
    assert reslat.cli.main(["algebra", action, str(FIXTURES / "l4.alg")]) == 0


# The norm and metric commands run the kernels, the row sweeps and their own
# checkers, and nothing of the finite layer or the evaluator.
UNIT_GRID_LAYERS = {"__init__", "__main__", "cli", "commands", "errors", "kernels", "reports", "tables", "unitval"}


def test_norms_executes_exactly_its_layers(tmp_path):
    doc = probe(tmp_path, "run", "norms", "--family", "goedel", "--grid", "4")
    assert doc["executed"] == UNIT_GRID_LAYERS | {"norms"}


def test_metric_executes_exactly_its_layers(tmp_path):
    doc = probe(tmp_path, "run", "metric", "--family", "goedel", "--grid", "4", "--grid4", "2")
    assert doc["executed"] == UNIT_GRID_LAYERS | {"laws", "metric"}
