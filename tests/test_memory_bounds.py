"""Peak memory of the product sweeps grows little as the grid grows.

Each command runs in a fresh process that reads its own high-water RSS
(``VmHWM``) from ``/proc/self/status`` when it is done; a fresh process
counts only its own pages.  Going from grid 32 to grid 64 multiplies the
tuples a command checks by about eight, so a table that grew with them
(a memo of every star of two distances, or of every third-level product)
shows here as megabytes.  The law sweep keeps a memo of every pair it
looks up, so its bound is looser.  A formula sweep at the valuation limit
keeps its {valuation: value} dict and the rows of one prefix at a time.
Skipped where ``/proc/self/status`` is absent.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

CHILD = """
import os, sys
from reslat.cli import main
real_stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
real_stdout.write(f"{code} {peak.split()[1]}")
"""

pytestmark = pytest.mark.skipif(not STATUS.exists(), reason="no /proc/self/status")


def peak_kb(*argv) -> int:
    """The command's exit code must be 0; its VmHWM in kB."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    code, peak = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    return int(peak)


@pytest.mark.parametrize(
    "argv, bound_mb",
    [
        (["metric", "--family", "product", "--grid4", "2"], 4),
        (["norms", "--family", "product"], 2),
    ],
    ids=["metric", "norms"],
)
def test_peak_memory_grows_little_from_grid_32_to_64(argv, bound_mb):
    small, large = peak_kb(*argv, "--grid", "32"), peak_kb(*argv, "--grid", "64")
    assert large - small < bound_mb * 1024, f"{small} kB at grid 32, {large} kB at grid 64"


def test_peak_memory_of_the_law_sweep_grows_little_from_laws_grid_12_to_24():
    argv = ["metric", "--family", "product", "--grid", "4", "--grid4", "2", "--laws", "d1..d15"]
    small, large = peak_kb(*argv, "--laws-grid", "12"), peak_kb(*argv, "--laws-grid", "24")
    assert large - small < 8 * 1024, f"{small} kB at laws grid 12, {large} kB at laws grid 24"


def test_peak_memory_of_a_formula_sweep_at_the_valuation_limit():
    # 362^2 = 131,044 valuations, just under cli.MAX_SWEEP.  The result dict
    # costs about 100 B per valuation; columns over every valuation, one per
    # node of the formula, would cost about three times more.
    argv = ["eval", "(p -> q) | (q -> p)", "--t-algebra", "product", "--format", "json", "--sweep"]
    small, large = peak_kb(*argv, "2"), peak_kb(*argv, "361")
    assert large - small < 131_044 * 256 // 1024, f"{small} kB at --sweep 2, {large} kB at --sweep 361"
