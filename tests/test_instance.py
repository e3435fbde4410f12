import json
import math

import pytest

from sofl.geom import Color
from sofl.instance import (
    Lcg,
    ParseError,
    SemanticError,
    emit_result,
    format_instance,
    generate,
    parse_instance,
)
from sofl.placement import LineCenter, Placement, SiteCenter
from conftest import empty_placement


def test_parse_minimal():
    inst = parse_instance("variant csofl\nk 1\nB 0 1 1\n")
    assert inst.variant == "csofl" and inst.k == 1
    assert len(inst.points) == 1
    assert inst.points[0].color is Color.BLUE


def test_parse_comments_and_blanks():
    text = "# hello\nvariant csofl\n\nk 2  # trailing\nB 0 1 1\nR 2 1 -1\n"
    inst = parse_instance(text)
    assert inst.k == 2 and len(inst.points) == 2


def test_parse_blue_weight_sign():
    with pytest.raises(SemanticError):
        parse_instance("variant csofl\nk 1\nB 0 1 -2\n")


def test_parse_red_weight_sign():
    with pytest.raises(SemanticError):
        parse_instance("variant csofl\nk 1\nR 0 1 2\n")


def test_parse_collinear_sites():
    with pytest.raises(SemanticError):
        parse_instance("variant discrete\nk 1\nsite 0 0\nsite 1 0\nsite 2 0\nB 0 1 1\n")


def test_parse_unknown_directive():
    with pytest.raises(ParseError) as err:
        parse_instance("variant csofl\nfrobnicate 3\n")
    assert err.value.lineno == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
@pytest.mark.parametrize("text", [
    "variant csofl\nk 1\nB {} 1 1\n",  # x
    "variant csofl\nk 1\nB 0 {} 1\n",  # y
    "variant csofl\nk 1\nB 0 1 {}\n",  # w
    "variant csofl\nk 1\nR 0 1 {}\n",  # red w
    "variant tlines\nk 1\nlines 0 {}\nB 0 1 1\n",  # a line height
    "variant discrete\nk 1\nsite {} 0\nsite 1 0\nsite 0 1\nB 0 1 1\n",  # site x
    "variant discrete\nk 1\nsite 0 {}\nsite 1 0\nsite 0 1\nB 0 1 1\n",  # site y
])
def test_parse_rejects_non_finite_numbers(text, value):
    with pytest.raises(ParseError) as err:
        parse_instance(text.format(value))
    assert err.value.lineno == 3 and "not a finite number" in err.value.reason


def test_parse_missing_variant():
    with pytest.raises(SemanticError):
        parse_instance("k 1\nB 0 1 1\n")


def test_parse_special_rejects_weight():
    with pytest.raises(SemanticError):
        parse_instance("variant maxblue-nored\nk 1\nB 0 1 1\n")


def test_parse_general_requires_weight():
    with pytest.raises(SemanticError):
        parse_instance("variant csofl\nk 1\nB 0 1\n")


def test_parse_y_above_line():
    with pytest.raises(SemanticError):
        parse_instance("variant csofl\nk 1\nB 0 0 1\n")


def test_parse_lines_only_for_tlines():
    with pytest.raises(SemanticError):
        parse_instance("variant csofl\nk 1\nlines 0 1\nB 0 1 1\n")


def test_parse_tlines_requires_lines():
    with pytest.raises(SemanticError):
        parse_instance("variant tlines\nk 1\nB 0 1 1\n")


def test_parse_special_weight_assignment():
    inst = parse_instance("variant allblue-minred\nk 1\nR 0 1\nR 2 1\nB 1 2\n")
    assert [p.weight for p in inst.points] == [-1.0, -1.0, 3.0]
    inst = parse_instance("variant maxblue-nored\nk 1\nB 0 1\nB 2 1\nR 1 2\n")
    assert [p.weight for p in inst.points] == [1.0, 1.0, -3.0]


def test_roundtrip_identity():
    for seed in range(12):
        for variant, kw in (
            ("csofl", {}),
            ("tlines", {"t": 3}),
            ("discrete", {"s": 6}),
            ("allblue-minred", {}),
            ("maxblue-nored", {}),
        ):
            text = generate(seed, 5, 2 if variant != "discrete" else 2, variant, **kw)
            inst = parse_instance(text)
            printed = format_instance(inst)
            assert parse_instance(printed) == inst
            assert format_instance(parse_instance(printed)) == printed


def test_generate_deterministic():
    a = generate(1, 4, 1, "csofl")
    b = generate(1, 4, 1, "csofl")
    assert a == b


def test_generate_red_fraction_extremes():
    all_blue = parse_instance(generate(2, 6, 1, "csofl", red_fraction=0.0))
    assert all(p.is_blue for p in all_blue.points)
    all_red = parse_instance(generate(2, 6, 1, "csofl", red_fraction=1.0))
    assert not any(p.is_blue for p in all_red.points)


@pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf, -0.1, 1.0 + 1e-12, 7.0])
def test_generate_rejects_a_red_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"red fraction must be in \[0, 1\]"):
        generate(2, 6, 1, "csofl", red_fraction=fraction)


def test_generate_accepts_the_red_fraction_bounds():
    for fraction, blue in ((0.0, True), (-0.0, True), (1.0, False)):
        inst = parse_instance(generate(2, 6, 1, "csofl", red_fraction=fraction))
        assert [p.is_blue for p in inst.points] == [blue] * 6, fraction


def test_lcg_reference_values():
    rng = Lcg(1)
    first = [rng.randint(0, 100) for _ in range(3)]
    rng2 = Lcg(1)
    assert first == [rng2.randint(0, 100) for _ in range(3)]
    assert Lcg(1)._next() != Lcg(2)._next()


def test_emit_empty_placement():
    out = emit_result(empty_placement(), "json")
    doc = json.loads(out)
    assert doc == {
        "lambda": 0.0,
        "weight": 0.0,
        "centers": [],
        "covered_blue": [],
        "covered_red": [],
    }


def test_emit_line_center():
    pl = Placement(1.5, (LineCenter(2.0, 0),), 3.0, frozenset({0}), frozenset())
    doc = json.loads(emit_result(pl, "json"))
    assert doc["centers"] == [{"x": 2.0, "line": 0}]
    assert doc["covered_blue"] == [0]
    text = emit_result(pl, "text")
    assert "lambda 1.5" in text and "x 2 line 0" in text


def test_emit_site_center():
    pl = Placement(1.0, (SiteCenter(3, 4.0, 0.0),), 1.0, frozenset({1}), frozenset())
    doc = json.loads(emit_result(pl, "json"))
    assert doc["centers"] == [{"site": 3}]


def test_emit_infeasible():
    assert emit_result(None, "text").startswith("no feasible")
    doc = json.loads(emit_result(None, "json"))
    assert doc["lambda"] is None


def test_emit_12_significant_digits():
    pl = Placement(2.0**0.5, (), 0.0, frozenset(), frozenset())
    doc = json.loads(emit_result(pl, "json"))
    assert doc["lambda"] == float(f"{2.0 ** 0.5:.12g}")
