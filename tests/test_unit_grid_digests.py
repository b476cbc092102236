"""The JSON documents of the four unit-grid commands, pinned by sha256.

These are the commands the unit-grid benchmark runs.  Their output must
not change when the sweeps behind them change: the digests were taken from
the row sweeps that interned every value, before the kernel rows and the
adjointness thresholds replaced them, so any byte that moves shows here.
"""

import hashlib

import pytest

from reslat.cli import main

DIGESTS = {
    ("norms", "--all", "--grid", "64"): "f62c42c4670fd34e2eaf9b33f4a533aaffe16edaca914d202c1a25e97f91789d",
    **{
        ("metric", "--family", family, "--laws", "d1..d15"): (
            "194e9246130b4471bc6d9abdc27f4c78e5bcc96640d18718e81704d4878e6574"
        )
        for family in ("lukasiewicz", "goedel", "product")
    },
}


@pytest.mark.parametrize("argv", DIGESTS, ids=" ".join)
def test_unit_grid_json_is_byte_identical(capsys, argv):
    code = main([*argv, "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
