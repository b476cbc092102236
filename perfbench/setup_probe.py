"""Set-up probe: import reslat and load every input of a workload, checking nothing.

Usage: python3 setup_probe.py SPEC.json SRC_DIR   (run from the work dir)

SPEC lists algebra files, formulas, valuations and grid denominators.  The
probe fails if ``reslat`` is not the package under SRC_DIR, so the benchmark
never measures an installed copy.
"""

import json
import sys
from pathlib import Path


def main(spec_path: str, src: str) -> int:
    import reslat
    from reslat.errors import ReslatError
    from reslat.finite import load_algebra
    from reslat.formulas import parse, parse_valuation
    from reslat.unitval import GridSpec

    if Path(reslat.__file__).resolve().parent != Path(src).resolve() / "reslat":
        print(f"error: reslat imported from {reslat.__file__}, not from {src}", file=sys.stderr)
        return 2
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    for name in spec.get("algebras", []):
        load_algebra(name)
    for text in spec.get("formulas", []):
        try:
            parse(text)
        except (ReslatError, RecursionError):
            pass  # inputs the CLI must reject are loaded too
    for text in spec.get("valuations", []):
        parse_valuation(text)
    for denominator in spec.get("grids", []):
        GridSpec(denominator).points()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
