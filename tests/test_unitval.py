import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reslat.unitval import MAX_EXPONENT, ONE, GridSpec, UnitValue, _grid_points, format_unit, parse_unit

units = st.fractions(min_value=0, max_value=1).map(UnitValue)


def test_construction_bounds():
    assert UnitValue(1, 3) == Fraction(1, 3)
    with pytest.raises(ValueError):
        UnitValue(-1, 2)
    with pytest.raises(ValueError):
        UnitValue(3, 2)
    with pytest.raises(TypeError):
        UnitValue(0.5)


def test_parse_and_format():
    assert parse_unit("3/10") == Fraction(3, 10)
    assert parse_unit("0.3") == Fraction(3, 10)
    assert parse_unit(" 1 ") == ONE
    assert format_unit(UnitValue(1, 3)) == "1/3"
    assert format_unit(UnitValue(1, 4), approx=True) == "1/4 (0.25)"


def test_parse_exponent_limit():
    assert parse_unit("1e-3") == Fraction(1, 1000)
    assert parse_unit(f"1e-{MAX_EXPONENT}") == Fraction(1, 10**MAX_EXPONENT)
    assert parse_unit("2_5e-0_2") == Fraction(1, 4)
    for text in (f"1e-{MAX_EXPONENT + 1}", f"1E+{MAX_EXPONENT + 1}", "1e-4_301", "0e-1000000000", "1e-" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            parse_unit(text)


@pytest.mark.parametrize("text", ["", "  ", "1/0", "0/0", "abc", "1/2/3", "nan", "inf", "0x1", "1/-2"])
def test_parse_refuses_text_that_is_not_a_number(text):
    with pytest.raises(ValueError) as exc:
        parse_unit(text)
    assert str(exc.value) == f"{text.strip()!r} is not a number"


def test_parse_keeps_the_range_and_digit_messages():
    with pytest.raises(ValueError, match=r"^value 3/2 outside \[0, 1\]$"):
        parse_unit("3/2")
    with pytest.raises(ValueError, match="^input value has a number of more than 4300 digits$"):
        parse_unit("1/" + "9" * 5000)


@given(units)
def test_complement_involution(x):
    assert x.complement().complement() == x


def test_grid_points():
    g = GridSpec(4)
    assert g.points() == tuple(UnitValue(k, 4) for k in range(5))
    assert len(g) == 5
    assert GridSpec().denominator == 64
    assert GridSpec(4) == g and hash(GridSpec(4)) == hash(g) and GridSpec(5) != g
    for refused in (1, 0, -2):
        with pytest.raises(ValueError, match="grid denominator must be >= 2"):
            GridSpec(refused)


def test_grid_points_cache_is_bounded():
    # Sixteen grids stay cached; one more evicts the least recently used.
    assert _grid_points.cache_info().maxsize == 16
    _grid_points.cache_clear()
    grids = [GridSpec(n) for n in range(2, 19)]
    oldest = grids[0].points()
    for g in grids[1:]:
        g.points()
    info = _grid_points.cache_info()
    assert (info.currsize, info.hits, info.misses) == (16, 0, 17)
    assert grids[-1].points() is grids[-1].points() and _grid_points.cache_info().hits == 2
    assert grids[0].points() is not oldest and grids[0].points() == oldest


def construction(make):
    """What a constructor call gives: the value with its type, normalised
    parts and hash, or the exception type and message."""
    try:
        v = make()
    except Exception as exc:
        return type(exc), str(exc)
    return v, type(v), (v.numerator, v.denominator), hash(v)


small = st.integers(-40, 40)


@given(small | st.integers(), small | st.integers())
def test_int_pair_construction_matches_the_general_path(n, d):
    # UnitValue(Fraction(...)) never takes the int-pair branch.
    got = construction(lambda: UnitValue(n, d))
    assert got == construction(lambda: UnitValue(Fraction(n, d)))
    if d and 0 <= Fraction(n, d) <= 1:
        f = Fraction(n, d)
        assert got == (f, UnitValue, (f.numerator, f.denominator), hash(f))


def test_int_pair_refusals():
    assert construction(lambda: UnitValue(3, 2)) == (ValueError, "value 3/2 outside [0, 1]")
    assert construction(lambda: UnitValue(-2, 4)) == (ValueError, "value -1/2 outside [0, 1]")
    assert construction(lambda: UnitValue(1, 0)) == (ZeroDivisionError, "Fraction(1, 0)")
    too_long = "value outside [0, 1] has a numerator of more than 4300 digits"
    assert construction(lambda: UnitValue(10**5000, 1)) == (ValueError, too_long)
    assert construction(lambda: UnitValue(True, 2))[1] is UnitValue  # bool is not an int here


unit_fractions = st.fractions(min_value=0, max_value=1)


@given(unit_fractions)
def test_hash_is_the_fractions_and_is_kept(f):
    v = UnitValue(f)
    assert hash(v) == hash(f) == hash(v)  # the second call reads the kept hash
    assert {f: "key"}[v] == "key" and {v: "key"}[f] == "key"
    for copied in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert (copied, type(copied), hash(copied)) == (v, UnitValue, hash(f))


def test_hash_of_ints_and_floats():
    for x in (0, 1):
        assert hash(UnitValue(x)) == hash(x) == hash(float(x))
    assert hash(UnitValue(1, 2)) == hash(0.5) and {0.5: "half"}[UnitValue(1, 2)] == "half"


def test_instances_have_no_dict():
    v = UnitValue(1, 3)
    hash(v)
    assert not hasattr(v, "__dict__")
    with pytest.raises(AttributeError):
        v.extra = 1


def test_a_value_computes_its_hash_once(monkeypatch):
    calls = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda self: calls.append(self) or fraction_hash(self))
    v = UnitValue(2, 7)
    assert [hash(v) for _ in range(3)] == [fraction_hash(Fraction(2, 7))] * 3
    assert calls == [v]
