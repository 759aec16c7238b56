import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ntbounds import bounds, subgroups
from ntbounds.cli import main, parse_height_expr
from ntbounds.elliptic import PointNotOnCurveError, SingularCurveError
from ntbounds.errors import (
    DomainError,
    IndeterminateError,
    InputParseError,
    NtboundsError,
    ResourceGuardError,
)
from ntbounds.rounding import Direction, LogRat, Prod, Rat, eval_const, rat

GOLDEN = Path(__file__).parent / "golden"

# The preset curves as curve files would spell them.
PRESET_CURVE_JSON = {
    "f1": '{"a": "1", "b": "-1", "generator": ["1", "1"], "rank": 1, "torsion_order": 1}\n',
    "f2": '{"a": "-1", "b": "-2", "generator": ["2", "2"], "rank": 1, "torsion_order": 1}\n',
}


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
    for bad in ("0.5", "log(-2)x", "ln(2)", "", "log"):
        with pytest.raises(InputParseError):
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
    "census_z_4_3_6.json": ["census", "--ring", "z", "--N", "4", "--r", "3",
                            "--max-degree", "6", "--torsion", "7",
                            "--ceiling", "100000000000"],
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
    want = curve_from_json(PRESET_CURVE_JSON[name.removeprefix("preset:")])
    assert _load_curve(name) == want


def test_search_accepts_curve_file(tmp_path, capsys):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(PRESET_CURVE_JSON["f1"])
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
    curve_file.write_text(PRESET_CURVE_JSON["f1"])
    run_to_bytes(tmp_path, [*args, "--curve", str(curve_file)])
    run_to_bytes(tmp_path, [*args, "--curve", str(curve_file)])
    assert checks.count(gamma.generator) == 2


def _perfbench_workloads():
    """perfbench/workloads.py, executed from its source text so that no
    bytecode cache is written beside it."""
    import sys
    import types
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads_for_tests")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_search_bytes_do_not_depend_on_request_order(monkeypatch, capsys):
    # The benchmark's search decks 0-3 at seed 11, forward on fresh preset
    # Gammas and then in reverse on other fresh ones: the walk each Gamma
    # keeps must not change a byte of any report.
    import ntbounds.cli as cli_module
    from ntbounds.presets import PRESET_NAMES, ambient_gamma
    workloads = _perfbench_workloads()
    argvs = [req.argv for index in range(4) for req in workloads.deck("search", 11, index)]
    assert len(set(argvs)) > 9

    def run_all(order):
        monkeypatch.setattr(cli_module, "_PRESET_GAMMAS",
                            {name: ambient_gamma(name) for name in PRESET_NAMES})
        out = {}
        for argv in order:
            assert main(list(argv)) == 0, argv
            out[argv] = capsys.readouterr().out.encode()
        return out

    forward = run_all(argvs)
    backward = run_all(argvs[::-1])
    assert forward == backward


def test_digits_past_a_dyadic_expansion_print_the_same_bytes(tmp_path):
    args = ["constants", "--d", "--hw", "1/3log2"]
    assert run_to_bytes(tmp_path, [*args, "--digits", "100000"]) == \
        run_to_bytes(tmp_path, [*args, "--digits", "25000"])


# -- exit codes -----------------------------------------------------------------


def test_exit_code_parse_error_missing_curve(tmp_path, capsys):
    code = main(["search", "--family", "f1", "--n", "1", "--curve",
                 str(tmp_path / "nope.json"), "--height-bound", "1"])
    assert code == 2


def test_exit_code_parse_error_malformed_curve(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == 2
    bad.write_text('{"a": "1"}')
    assert main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"]) == 2


@pytest.mark.parametrize("command", ["search", "constants"])
@pytest.mark.parametrize("content", [
    b'{"a": 1, "b": "-2", "generator": ["2", "2"]}',
    b'{"a": "-1", "b": "-2", "generator": [2, 2]}',
    b'{"a": "-1", "b": "-2", "generator": "22"}',
    b'{"a": "-1", "b": "-2", "generator": ["1/0", "1"]}',
    b'{"a": "-1", "b": "-2", "generator": ["2", "2"], "rank": 1.9}',
    b'{"a": "-1", "b": "-2", "generator": ["2", "2"], "torsion_order": "1"}',
    b'{"a": "-1", "b": "-2", "generator": ["2", "2"], "rank": 1' + b"0" * 5000 + b"}",
    b"\xff\xfe",
], ids=["number", "number-generator", "string-generator", "zero-denominator",
        "float-rank", "string-torsion", "long-rank", "undecodable"])
def test_malformed_curve_file_is_a_parse_error(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {"search": ["search", "--family", "f2", "--n", "1", "--height-bound", "2"],
            "constants": ["constants", "--d"]}[command]
    assert main([*argv, "--curve", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ntbounds: parse error")


@pytest.mark.parametrize("argv", [
    ["constants", "--d", "--hw", "1/0"],
    ["constants", "--cn", "3", "--hw", "1/0log2"],
    ["constants", "--d", "--hw", "log2/0"],
    ["constants", "--d", "--hw", "log(1/0)"],
    ["bound", "--branch", "square", "--deg-c", "1", "--h-c", "1/0"],
    ["bound", "--branch", "power", "--N", "3", "--deg-c", "1", "--h-c", "1", "--hw", "log2/0"],
    # numbers past the str() digit limit are refused too, not a traceback
    ["constants", "--d", "--hw", "7" * 4400],
    ["bound", "--branch", "square", "--deg-c", "1", "--h-c", f"log({'7' * 4400})"],
])
def test_zero_denominator_in_a_height_expression_is_a_parse_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ntbounds: parse error")


def test_exit_code_domain_error_singular_curve(tmp_path, capsys):
    bad = tmp_path / "singular.json"
    bad.write_text('{"a": "0", "b": "0", "generator": ["1", "1"]}')
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == 3
    code = main(["exponents", "--theorem", "census-structure", "--N", "4", "--r", "2"])
    assert code == 3


def test_exit_code_domain_error_off_curve_generator(tmp_path, capsys):
    bad = tmp_path / "off_curve.json"
    bad.write_text('{"a": "0", "b": "1", "generator": ["1", "1"]}')
    code = main(["search", "--family", "f1", "--n", "1", "--curve", str(bad),
                 "--height-bound", "1"])
    assert code == 3
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
    assert code == 3
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
    assert code == 4
    assert capsys.readouterr().err.startswith("ntbounds: indeterminate: canonical height "
                                              "did not certify")


def test_indeterminate_error_is_not_a_domain_error():
    assert not issubclass(IndeterminateError, DomainError)
    assert issubclass(SingularCurveError, DomainError)
    assert issubclass(PointNotOnCurveError, DomainError)


def test_each_refusal_carries_its_exit_code_and_label():
    assert [(cls.exit_code, cls.label) for cls in (
        InputParseError, DomainError, IndeterminateError, ResourceGuardError,
        SingularCurveError, PointNotOnCurveError)] == [
        (2, "parse error"), (3, "domain error"), (4, "indeterminate"),
        (5, "resource guard"), (3, "domain error"), (3, "domain error")]
    assert all(issubclass(cls, NtboundsError) for cls in (
        InputParseError, DomainError, IndeterminateError, ResourceGuardError))


def test_parser_is_reused_across_calls(tmp_path, capsys):
    from ntbounds.cli import _parser
    assert _parser() is _parser()
    first = run_to_bytes(tmp_path, ["constants", "--cn", "3", "--hw", "0"], "a.json")
    run_to_bytes(tmp_path, ["constants", "--d", "--hw", "1/3log2", "--digits", "12"],
                 "b.json")
    again = run_to_bytes(tmp_path, ["constants", "--cn", "3", "--hw", "0"], "c.json")
    assert first == again


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("source", [
    *sorted(path.name for path in SCRIPTS.glob("*_argv.json")), "census", "search", "query-mix"])
def test_flat_parse_matches_the_full_parser(capsys, source):
    # an argv file, or 50 seed-11 decks of a workload: the flat parse gives the
    # namespace and the exit code of the top-level parser with its subparsers
    from ntbounds.cli import _parse, _parser
    parser, commands = _parser()
    if source.endswith(".json"):
        argvs = json.loads((SCRIPTS / source).read_text())
    else:
        workloads = _perfbench_workloads()
        argvs = [req.argv for index in range(50) for req in workloads.deck(source, 11, index)]
    accepted = 0
    for argv in argvs:
        try:
            want = vars(parser.parse_args(list(argv)))
        except SystemExit as full:
            with pytest.raises(SystemExit) as flat:
                _parse(list(argv))
            assert flat.value.code == full.code, argv
            continue
        args, handler = _parse(list(argv))
        assert vars(args) == want, argv
        assert handler is commands[want["command"]][1]
        accepted += 1
    capsys.readouterr()
    assert accepted


def test_a_subcommand_request_skips_the_top_level_parse(monkeypatch, capsys):
    from ntbounds.cli import _parser

    def unused(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand request")

    monkeypatch.setattr(_parser()[0], "parse_known_args", unused)
    census_argv = ["census", "--ring", "zi", "--N", "2", "--r", "1", "--max-degree", "5",
                   "--torsion", "1"]
    assert main(census_argv) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "census"
    # an option before the subcommand still goes through the top-level parser
    with pytest.raises(AssertionError, match="top-level parser"):
        main(["--precision", "128", *census_argv])


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ntbounds", "exponents", "--theorem", "rc1-anomalous",
                                      "--case", "translate", "--N", "5", "--dim-v", "2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "exponents"


@pytest.mark.parametrize("argv", [
    ["exponents", "--theorem", "census-structure", "--N", "3", "--r", "2", "--case", "foo"],
    ["exponents", "--theorem", "low-rank-height", "--N", "5", "--t", "1",
     "--case", "anything"],
    ["exponents", "--theorem", "transverse-rank-height", "--N", "5", "--t", "1",
     "--case", "point"],
], ids=["census-structure", "low-rank-height", "transverse-rank-height"])
def test_case_on_a_theorem_without_cases_is_a_domain_error(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ntbounds: domain error: ") and "takes no case" in err


@pytest.mark.parametrize("argv", [
    ["constants", "--d"],
    ["bound", "--branch", "square", "--deg-c", "18", "--h-c", "log(18)"],
], ids=["constants", "bound"])
def test_hw_and_curve_together_are_a_parse_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--hw", "0", "--curve", str(tmp_path / "nonexistent.json")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with" in err


def test_exit_code_resource_guard(capsys):
    code = main(["census", "--ring", "z", "--N", "3", "--r", "2",
                 "--max-degree", "50", "--torsion", "2", "--ceiling", "10"])
    assert code == 5


# A walk the default ceiling refuses at the least Dmax, with the row
# combinations its guard counts, and a counted shape, with the steps its
# counting is priced at.
@pytest.mark.parametrize("n,r,dmax,work", [(6, 3, 1, 761005420), (3, 1, 100000, 21633932)])
def test_census_refusals_at_the_default_ceiling(capsys, n, r, dmax, work):
    code = main(["census", "--ring", "z", "--N", str(n), "--r", str(r),
                 "--max-degree", str(dmax), "--torsion", "1"])
    captured = capsys.readouterr()
    assert code == 5 and captured.out == ""
    refusal = (f"census counting would take {work} steps" if min(r, n - r) <= 2
               else f"enumeration would scan {work} row combinations")
    assert captured.err == (
        f"ntbounds: resource guard: {refusal} "
        f"(> ceiling 5000000); lower Dmax or raise the ceiling explicitly\n")


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


def test_report_paths_print_at_the_lowest_int_digit_limit(tmp_path, capsys, monkeypatch):
    # At 640 digits, the least str() may be limited to, a report path that
    # renders a large int with str() fails at once.  Fresh preset Gammas make
    # the searches walk and render every point, coordinates of 1 200+ digits.
    import ntbounds.cli as cli_module
    from ntbounds.presets import PRESET_NAMES, ambient_gamma
    monkeypatch.setattr(cli_module, "_PRESET_GAMMAS",
                        {name: ambient_gamma(name) for name in PRESET_NAMES})
    argvs = [
        ["search", "--family", "f1", "--n", "1", "--curve", "f1", "--height-bound", "2000"],
        ["search", "--family", "f2", "--n", "1", "--curve", "f2", "--height-bound", "2000"],
        ["census", "--N", "4", "--r", "2", "--max-degree", "3", "--torsion", "1" + "0" * 80],
        ["family-audit", "--family", "f2", "--n", "7"],
        # degree_upper = 9(n + 1) = 9 * 10^640 is a JSON int of 641 digits
        ["family-audit", "--family", "f1", "--n", "9" * 640],
    ]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        codes = [main([*argv, "--out", str(tmp_path / "report.json")]) for argv in argvs]
    finally:
        sys.set_int_max_str_digits(saved)
    assert codes == [0, 0, 0, 0, 0]


@pytest.mark.parametrize("args", [
    ["constants", "--d", "--hw", "0"],
    ["census", "--N", "2", "--r", "1", "--max-degree", "5", "--torsion", "2"],
])
def test_digits_below_one_is_a_parse_error(capsys, args):
    assert main([*args, "--digits", "0"]) == 2
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
    assert main(["constants", "--d", "--hw", "0"]) == 2


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
    exprs = bounds.constants_D_expr(Prod((LogRat(2), Rat(Fraction(1, 3)))))
    for name, expr in zip(("d1", "d2", "d3"), exprs):
        _upper_not_below_lower(payload["values"][name], expr, precision)


def test_constants_cn_80_prints_its_585_000_digit_value_in_time(tmp_path):
    # C1(80) is about 10^585 202: its 256-bit dyadic prints from one rounded
    # product, not from the exact integer's 585 203 digits
    t0 = time.perf_counter()
    payload = json.loads(run_to_bytes(tmp_path, ["constants", "--cn", "80", "--hw", "0"]))
    assert time.perf_counter() - t0 < 2.0
    c1 = bounds.constants_CN_expr(80, rat(0))[0]
    _upper_not_below_lower(payload["values"]["c1"], c1, 256)


def test_bound_prints_a_value_of_thousands_of_digits(tmp_path):
    deg = 10 ** 600
    payload = json.loads(run_to_bytes(tmp_path, [
        "bound", "--branch", "power", "--N", "8", "--deg-c", str(deg),
        "--h-c", "1", "--hw", "0"]))
    report = bounds.bound_weaktransverse_EN(8, rat(1), deg, rat(0))
    _upper_not_below_lower(payload["bound"], report.total, 256)
    exprs = bounds.constants_CN_expr(8, rat(0))
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
    report = bounds.bound_transverse_E2(inv.h_upper, inv.deg_upper,
                                        Prod((LogRat(2), Rat(Fraction(1, 3)))), 1024)
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


def test_non_integral_torsion_count_is_a_program_fault(monkeypatch):
    real = subgroups._even_bernoulli
    monkeypatch.setattr(subgroups, "_even_bernoulli",
                        lambda n: [real(n)[0] + Fraction(1, 7), *real(n)[1:]])
    subgroups._faulhaber.cache_clear()  # rebuild N = 2 from the bad B_0
    try:
        with pytest.raises(RuntimeError, match="non-integer count"):
            main(["census", "--ring", "z", "--N", "2", "--r", "1",
                  "--max-degree", "4", "--torsion", "1"])
    finally:
        subgroups._faulhaber.cache_clear()  # and keep it from later tests
