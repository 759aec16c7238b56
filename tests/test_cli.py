import json
from fractions import Fraction
from pathlib import Path

import pytest

from ntbounds import bounds, heights, subgroups
from ntbounds.cli import (
    EXIT_DOMAIN,
    EXIT_INDETERMINATE,
    EXIT_PARSE,
    EXIT_RESOURCE,
    main,
    parse_height_expr,
)
from ntbounds.rounding import Direction, eval_const, log_rat

GOLDEN = Path(__file__).parent / "golden"


def run_to_bytes(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    assert code == 0, args
    return out.read_bytes()


# -- height expression parser -------------------------------------------------


def test_parse_height_expressions():
    import math
    cases = {
        "0": 0.0,
        "1/3": 1 / 3,
        "1/3log2": math.log(2) / 3,
        "1/3*log(2)": math.log(2) / 3,
        "log(2)/3": math.log(2) / 3,
        "log 2": math.log(2),
        "log(9/8)": math.log(9 / 8),
        "1/2 + 2log(3)": 0.5 + 2 * math.log(3),
    }
    for text, want in cases.items():
        got = float(eval_const(parse_height_expr(text), Direction.NEAREST, 64).exact())
        assert abs(got - want) < 1e-12, text


def test_parse_height_rejects_garbage():
    from ntbounds.cli import InputParseError
    for bad in ("0.5", "log(-2)x", "ln(2)", "", "log"):
        with pytest.raises(Exception):
            parse_height_expr(bad)


# -- golden files --------------------------------------------------------------


GOLDEN_COMMANDS = {
    "constants_d.json": ["constants", "--d", "--hw", "1/3log2"],
    "family_audit_f2.json": ["family-audit", "--family", "f2", "--n-range", "1:3",
                             "--digits", "30"],
    "search_f1_n1.json": ["search", "--family", "f1", "--n", "1", "--curve", "f1",
                          "--height-bound", "25", "--tol", "1e-10"],
    "census_z_2_1.json": ["census", "--ring", "z", "--N", "2", "--r", "1",
                          "--max-degree", "40", "--torsion", "10"],
    "exponents_point_count.json": ["exponents", "--theorem", "point-count",
                                   "--case", "weak-transverse-rank1", "--N", "3"],
    "bound_square.json": ["bound", "--branch", "square", "--deg-c", "18",
                          "--h-c", "log(18)", "--hw", "1/3log2"],
    "bound_power.json": ["bound", "--branch", "power", "--N", "3", "--deg-c", "2",
                         "--h-c", "1/2", "--hw", "0"],
}


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_cli_matches_golden(tmp_path, capsys, golden_name):
    blob = run_to_bytes(tmp_path, GOLDEN_COMMANDS[golden_name])
    assert blob == (GOLDEN / golden_name).read_bytes()
    payload = json.loads(blob)
    assert payload["schema_version"] == 1


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_cli_reports_reproduce_byte_exactly(tmp_path, capsys, golden_name):
    args = GOLDEN_COMMANDS[golden_name]
    first = run_to_bytes(tmp_path, args, "a.json")
    second = run_to_bytes(tmp_path, args, "b.json")
    assert first == second


def test_search_report_identical_across_shard_counts(tmp_path, capsys):
    base = ["search", "--family", "f1", "--n", "1", "--curve", "f1",
            "--height-bound", "25", "--tol", "1e-10"]
    one = run_to_bytes(tmp_path, [*base, "--shards", "1"], "s1.json")
    eight = run_to_bytes(tmp_path, [*base, "--shards", "8"], "s8.json")
    assert one == eight
    assert one == (GOLDEN / "search_f1_n1.json").read_bytes()


def test_search_metrics_out_is_separate(tmp_path, capsys):
    out = tmp_path / "rep.json"
    metrics = tmp_path / "metrics.json"
    code = main(["search", "--family", "f2", "--n", "1", "--curve", "f2",
                 "--height-bound", "4", "--tol", "1e-10",
                 "--out", str(out), "--metrics-out", str(metrics)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "wall_clock" not in out.read_text()
    assert "shards" not in payload
    stats = json.loads(metrics.read_text())
    assert set(stats) == {"wall_clock_seconds", "pairs_per_second", "shards"}


@pytest.mark.parametrize("name", ["f1", "f2", "preset:f2"])
def test_preset_curve_equals_its_json_round_trip(name):
    from ntbounds.cli import _load_curve
    from ntbounds.elliptic import curve_from_json
    from ntbounds.presets import preset_curve_json
    want = curve_from_json(preset_curve_json(name.removeprefix("preset:")))
    assert _load_curve(name) == want


def test_search_accepts_curve_file(tmp_path, capsys):
    from ntbounds.presets import preset_curve_json
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(preset_curve_json("f1"))
    blob = run_to_bytes(tmp_path, ["search", "--family", "f1", "--n", "1",
                                   "--curve", str(curve_file),
                                   "--height-bound", "25", "--tol", "1e-10"])
    assert blob == (GOLDEN / "search_f1_n1.json").read_bytes()


def test_preset_searches_reuse_one_validated_gamma(tmp_path, capsys, monkeypatch):
    # a preset Gamma is validated once, at import, and keeps its generator's
    # enclosure; a curve file builds and validates its own Gamma per request
    from fractions import Fraction

    import ntbounds.cli as cli_module
    import ntbounds.search as search_module
    from ntbounds.elliptic import torsion_order
    from ntbounds.presets import preset_curve_json
    checks = []
    monkeypatch.setattr(search_module, "torsion_order",
                        lambda E, P: checks.append(P) or torsion_order(E, P))
    args = ["search", "--family", "f1", "--n", "1", "--height-bound", "25", "--tol", "1e-10"]
    for curve in ("f1", "preset:f1"):
        blob = run_to_bytes(tmp_path, [*args, "--curve", curve])
        assert blob == (GOLDEN / "search_f1_n1.json").read_bytes()
    assert checks == []
    gamma = cli_module._PRESET_GAMMAS["f1"]
    assert gamma._enclosure[0] == (Fraction(1, 10 ** 10), 256)
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(preset_curve_json("f1"))
    run_to_bytes(tmp_path, [*args, "--curve", str(curve_file)])
    run_to_bytes(tmp_path, [*args, "--curve", str(curve_file)])
    assert checks.count(gamma.generator) == 2


# -- exit codes -----------------------------------------------------------------


def test_exit_code_parse_error_missing_curve(tmp_path, capsys):
    code = main(["search", "--family", "f1", "--n", "1", "--curve",
                 str(tmp_path / "nope.json"), "--height-bound", "1"])
    assert code == EXIT_PARSE


def test_exit_code_parse_error_malformed_curve(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == EXIT_PARSE
    bad.write_text('{"a": "1"}')
    assert main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"]) == EXIT_PARSE


def test_exit_code_domain_error_singular_curve(tmp_path, capsys):
    bad = tmp_path / "singular.json"
    bad.write_text('{"a": "0", "b": "0", "generator": ["1", "1"]}')
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == EXIT_DOMAIN
    code = main(["exponents", "--theorem", "census-structure", "--N", "4", "--r", "2"])
    assert code == EXIT_DOMAIN


def test_exit_code_domain_error_off_curve_generator(tmp_path, capsys):
    bad = tmp_path / "off_curve.json"
    bad.write_text('{"a": "0", "b": "1", "generator": ["1", "1"]}')
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == EXIT_DOMAIN
    assert "does not satisfy" in capsys.readouterr().err


@pytest.mark.parametrize("declared", ['"torsion_order": 2', '"rank": 2'],
                         ids=["torsion", "rank"])
def test_search_refuses_curve_file_beyond_rank_one_and_trivial_torsion(
        tmp_path, capsys, declared):
    # y^2 = x^3 - 2x with g = (-1, 1) and the 2-torsion point (0, 0): a walk
    # over Z*g alone would print a report missing half of Gamma's points
    curve = tmp_path / "curve.json"
    curve.write_text('{"a": "-2", "b": "0", "generator": ["-1", "1"], %s}' % declared)
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(curve),
                 "--height-bound", "6"])
    out, err = capsys.readouterr()
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "rank 1 and torsion order 1" in err
    # constants and bound read only h_W(E) from the file
    assert main(["constants", "--d", "--curve", str(curve)]) == 0


def test_program_value_error_is_not_a_domain_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr("ntbounds.cli.census", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["census", "--ring", "z", "--N", "2", "--r", "1",
              "--max-degree", "4", "--torsion", "1"])


def test_exit_code_indeterminate_canonical_height(capsys):
    # 4 precision doublings from 128 bits reach 1024 bits, far short of 1e-400
    code = main(["search", "--family", "f1", "--n", "1", "--curve", "f1",
                 "--height-bound", "25", "--tol", "1e-400", "--precision", "64"])
    assert code == EXIT_INDETERMINATE
    assert "did not certify" in capsys.readouterr().err


def test_indeterminate_error_shared_with_rounding():
    from ntbounds.cli import IndeterminateError
    from ntbounds import rounding
    assert IndeterminateError is rounding.IndeterminateError
    assert not issubclass(IndeterminateError, rounding.DomainError)


def test_parser_is_reused_across_calls(tmp_path, capsys):
    from ntbounds.cli import _parser
    assert _parser() is _parser()
    first = run_to_bytes(tmp_path, ["constants", "--cn", "3", "--hw", "0"], "a.json")
    run_to_bytes(tmp_path, ["constants", "--d", "--hw", "1/3log2", "--digits", "12"],
                 "b.json")
    again = run_to_bytes(tmp_path, ["constants", "--cn", "3", "--hw", "0"], "c.json")
    assert first == again


def test_exit_code_resource_guard(capsys):
    code = main(["census", "--ring", "z", "--N", "3", "--r", "2",
                 "--max-degree", "50", "--torsion", "2", "--ceiling", "10"])
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("n,digits", [(2, 1000), (600, 4)])
def test_census_prints_totals_past_the_int_digit_limit(tmp_path, n, digits):
    # T^(2N+1) has more digits than str() converts by default (4 300)
    from decimal import Decimal
    from ntbounds.subgroups import torsion_count
    t = 10 ** digits
    blob = run_to_bytes(tmp_path, ["census", "--ring", "z", "--N", str(n), "--r", "1",
                                   "--max-degree", "1", "--torsion", str(t)])
    payload = json.loads(blob)
    assert payload["total_matrices"] == n
    assert payload["product_bound"] == str(n) + "0" * (digits * (2 * n + 1))
    assert Decimal(payload["torsion_total"]) == torsion_count(n, t)


@pytest.mark.parametrize("args", [
    ["constants", "--d", "--hw", "0"],
    ["census", "--N", "2", "--r", "1", "--max-degree", "5", "--torsion", "2"],
])
def test_digits_below_one_is_a_parse_error(capsys, args):
    assert main([*args, "--digits", "0"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--digits" in captured.err


def test_precision_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NTBOUNDS_PRECISION", "128")
    blob = run_to_bytes(tmp_path, ["constants", "--d", "--hw", "0"])
    payload = json.loads(blob)
    assert payload["precision_bits"] == 128
    assert payload["values"]["d1"]["precision_bits"] == 128
    monkeypatch.setenv("NTBOUNDS_PRECISION", "nope")
    assert main(["constants", "--d", "--hw", "0"]) == EXIT_PARSE


def test_constants_from_curve_preset(tmp_path, capsys):
    via_expr = run_to_bytes(tmp_path, ["constants", "--d", "--hw", "1/3log2"], "e.json")
    via_curve = run_to_bytes(tmp_path, ["constants", "--d", "--curve", "f2"], "c.json")
    assert via_expr == via_curve


def test_family_audit_f1_closed_form_only(tmp_path, capsys):
    blob = run_to_bytes(tmp_path, ["family-audit", "--family", "f1", "--n", "4"])
    payload = json.loads(blob)
    entry = payload["entries"][0]
    assert entry["closed_form_coefficient"] == "8.253e38"
    assert entry["verdict"] == "closed-form-only"
    assert entry["degree_upper"] == 45


# -- reports past the float range and the int digit limit ----------------------


def _upper_not_below_lower(value, expr, precision):
    """A printed UPPER value is at least the LOWER evaluation of its tree."""
    assert value["direction"] == "upper"
    assert value["precision_bits"] == precision
    lower = eval_const(expr, Direction.LOWER, precision).exact()
    assert Fraction(value["value_decimal"]) >= lower, value


@pytest.mark.parametrize("extra,precision", [(["--digits", "4400"], 256),
                                             (["--precision", "16000"], 16000)])
def test_constants_print_past_the_int_digit_limit(tmp_path, extra, precision):
    payload = json.loads(run_to_bytes(
        tmp_path, ["constants", "--d", "--hw", "1/3log2", *extra]))
    exprs = bounds.constants_D_expr(log_rat(2) / 3)
    for name, expr in zip(("d1", "d2", "d3"), exprs):
        _upper_not_below_lower(payload["values"][name], expr, precision)


def test_bound_prints_a_value_of_thousands_of_digits(tmp_path):
    deg = 10 ** 600
    payload = json.loads(run_to_bytes(tmp_path, [
        "bound", "--branch", "power", "--N", "8", "--deg-c", str(deg),
        "--h-c", "1", "--hw", "0"]))
    report = bounds.bound_weaktransverse_EN(8, 1, deg, 0)
    _upper_not_below_lower(payload["bound"], report.total, 256)
    exprs = bounds.constants_CN_expr(8, 0)
    for name, expr in zip(("c1", "c2", "c3"), exprs):
        _upper_not_below_lower(payload["intermediates"][name], expr, 256)


def test_family_audit_prints_values_below_2_pow_minus_1023(tmp_path):
    payload = json.loads(run_to_bytes(tmp_path, [
        "family-audit", "--family", "f2", "--n", "2", "--precision", "1024"]))
    (entry,) = payload["entries"]
    assert entry["verdict"] == "within-closed-form"
    inv = bounds.family_invariants("f2", 2)
    _upper_not_below_lower(entry["mu_upper"], inv.mu_upper, 1024)
    _upper_not_below_lower(entry["h_upper"], inv.h_upper, 1024)
    for label, expr in inv.chain:
        _upper_not_below_lower(entry["height_chain"][label], expr, 1024)
    report = bounds.bound_transverse_E2(inv.h_upper, inv.deg_upper, log_rat(2) / 3, 1024)
    _upper_not_below_lower(entry["composed_total"], report.total, 1024)


def test_search_prints_heights_at_1010_bits(tmp_path):
    args = ["search", "--family", "f1", "--n", "1", "--curve", "f1", "--height-bound", "25"]
    fine = json.loads(run_to_bytes(tmp_path, [*args, "--precision", "1010"], "a.json"))
    coarse = json.loads(run_to_bytes(tmp_path, args, "b.json"))
    assert fine["found"] and len(fine["found"]) == len(coarse["found"])
    tol = Fraction(fine["tolerance"])
    for a, b in zip(fine["found"], coarse["found"]):
        assert (a["p1"], a["p2"]) == (b["p1"], b["p2"])
        for key in ("height1", "height2"):
            assert a[key]["precision_bits"] == 1010
            diff = Fraction(a[key]["value_decimal"]) - Fraction(b[key]["value_decimal"])
            assert abs(diff) <= tol


# -- program faults propagate ---------------------------------------------------


def test_coprimality_failure_of_the_duplication_forms_is_a_program_fault(monkeypatch):
    real = heights._poly_ext_gcd_one

    def sharing_a_factor(f, g):  # both times x: the real routine must refuse
        return real([Fraction(0), *f], [Fraction(0), *g])

    monkeypatch.setattr(heights, "_poly_ext_gcd_one", sharing_a_factor)
    heights._doubling_data.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not coprime"):
            main(["search", "--family", "f1", "--n", "1", "--curve", "f1",
                  "--height-bound", "6", "--precision", "300"])
    finally:
        heights._doubling_data.cache_clear()


def test_non_integral_torsion_count_is_a_program_fault(monkeypatch):
    real = subgroups._even_bernoulli
    monkeypatch.setattr(subgroups, "_even_bernoulli",
                        lambda n: [real(n)[0] + Fraction(1, 7), *real(n)[1:]])
    with pytest.raises(RuntimeError, match="non-integer count"):
        main(["census", "--ring", "z", "--N", "2", "--r", "1",
              "--max-degree", "4", "--torsion", "1"])
