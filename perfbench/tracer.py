"""Traced ``reslat`` process: spans around each layer's public functions.

Usage:
    python3 tracer.py SPANS.json OP_ID -- RESLAT-ARGS...   run one command traced
    python3 tracer.py --share FORMULAS.json                 print subterm sharing

The first form imports reslat, replaces each function in SPAN_FUNCTIONS
wherever ``reslat.cli`` or a layer module looks it up, and calls
``reslat.cli.main``.  Spans stay in memory and are written to SPANS.json at
exit, also when the command dies with a traceback.  Exit code and output are
those of ``python -m reslat``.
"""

import atexit
import json
import sys
import time

# span name -> (module, public function)
SPAN_FUNCTIONS = {
    "cli.main": ("reslat.cli", "main"),
    "norms.axioms": ("reslat.norms", "norm_axioms_check"),
    "norms.adjointness": ("reslat.norms", "adjointness_check"),
    "norms.duality": ("reslat.norms", "duality_check"),
    "norms.ordering": ("reslat.norms", "ordering_chain_check"),
    "norms.oracle": ("reslat.norms", "oracle_agreement_check"),
    "metric.axioms": ("reslat.metric", "metric_axioms_check"),
    "metric.continuity": ("reslat.metric", "continuity_inequalities_check"),
    "metric.dbl_axioms": ("reslat.metric", "dbl_axioms_check"),
    "metric.closed_form": ("reslat.metric", "d_star_closed_form_check"),
    "laws.catalogue": ("reslat.laws", "run_catalogue"),
    "finite.load": ("reslat.finite", "load_algebra"),
    "finite.axioms": ("reslat.finite", "check_axioms"),
    "finite.derived": ("reslat.finite", "check_derived_laws"),
    "finite.dualize": ("reslat.finite", "dualize_algebra"),
    "topology.enumerate": ("reslat.topology", "enumerate_topology"),
    "topology.continuity": ("reslat.topology", "verify_operation_continuity"),
    "topology.radius": ("reslat.topology", "check_radius_lemmas"),
    "formulas.parse": ("reslat.formulas", "parse"),
    "formulas.evaluate": ("reslat.formulas", "evaluate"),
    "formulas.sweep": ("reslat.formulas", "sweep_values"),
}


class Tracer:
    """Spans as [name, start, end, parent index, op id, counts]."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def wrap(self, name, function, counts):
        spans, stack, op_id = self.spans, self.stack, self.op_id

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, op_id, {}]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = counts(args, result)
            return result

        return traced

    def install(self):
        from reslat.reports import LawReport

        def counts(args, result):
            if isinstance(result, LawReport):
                return {"checked": result.checked}
            if isinstance(result, list) and result and isinstance(result[0], LawReport):
                return {"checked": sum(r.checked for r in result)}
            return {}

        def topology_counts(args, result):
            return {"opens": len(result), "subsets": 1 << args[0].n}

        modules = [m for n, m in sys.modules.items() if n == "reslat" or n.startswith("reslat.")]
        for name, (module_name, attr) in SPAN_FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(name, original, topology_counts if name == "topology.enumerate" else counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


class CountingWriter:
    """Text stream wrapper that counts the bytes written through it."""

    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode(self.stream.encoding or "utf-8", errors="replace"))
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def run_traced(spans_path: str, op_id: str, argv: list) -> int:
    start = time.perf_counter()
    import reslat.cli  # noqa: F401  (loads every layer module)

    import_s = time.perf_counter() - start
    tracer = Tracer(op_id)
    tracer.install()
    stdout = CountingWriter(sys.stdout)
    sys.stdout = stdout

    def dump():
        doc = {"op": op_id, "import_s": import_s, "stdout_bytes": stdout.bytes, "spans": tracer.spans}
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)

    atexit.register(dump)
    return sys.modules["reslat.cli"].main(argv)


def subterm_share(formulas: list) -> dict:
    """Node counts of the desugared trees, summed over formulas: structurally
    distinct subterms per formula, and tree size.  Formulas that do not parse
    are skipped."""
    from reslat.errors import ReslatError
    from reslat.formulas import Atom, Bottom, desugar, parse

    distinct = total = 0
    for text in formulas:
        try:
            core = desugar(parse(text))
        except (ReslatError, RecursionError):
            continue
        ids = {}  # structural key -> canonical id
        by_object = {}  # id(node) -> (canonical id, tree size)

        def walk(node):
            hit = by_object.get(id(node))
            if hit is None:
                if isinstance(node, (Atom, Bottom)):
                    key, size = (type(node).__name__, getattr(node, "name", "")), 1
                else:
                    (lc, ls), (rc, rs) = walk(node.lhs), walk(node.rhs)
                    key, size = (type(node).__name__, lc, rc), 1 + ls + rs
                hit = by_object[id(node)] = (ids.setdefault(key, len(ids)), size)
            return hit

        total += walk(core)[1]
        distinct += len(ids)
    return {"distinct": distinct, "total": total}


if __name__ == "__main__":
    if sys.argv[1] == "--share":
        with open(sys.argv[2], encoding="utf-8") as handle:
            print(json.dumps(subterm_share(json.load(handle))))
    else:
        raise SystemExit(run_traced(sys.argv[1], sys.argv[2], sys.argv[4:]))
