import argparse
import csv
import io
import json
import os

import pytest
from mpmath import mp, mpf, workdps

from zetasum import cli
from zetasum.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, build_parser, main
from zetasum.digit_series import SeriesResult
from zetasum.numerics import ExtendedReal
from tests.conftest import ZEROS_FILE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "log2", "--terms", "5000")
    assert code == EXIT_PASS
    assert "verdict:     pass" in out


def test_verify_fail_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "p12", "--terms", "500")
    assert code == EXIT_FAIL
    assert "fail" in out


def test_verify_unknown_identity_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == EXIT_USAGE
    assert "argument identity: invalid choice: 'nope'" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "log2", "--terms", "5000",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["identity"] == "log2"
    assert doc["verdict"] == "pass"
    assert len(doc["routes"]) == 2
    for route in doc["routes"]:
        assert set(route) == {"label", "value", "terms", "tail_bound"}
        assert isinstance(route["value"], str)
    # decimals survive the round trip untouched
    assert json.loads(json.dumps(doc)) == doc


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "log2", "--terms", "5000",
                      "--format", "json")
    _, second, _ = run(capsys, "verify", "log2", "--terms", "5000",
                       "--format", "json")
    assert first == second


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "p01", "--terms", "200",
                       "--format", "csv")
    assert code == EXIT_PASS
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["identity", "label", "value", "terms", "tail_bound",
                       "verdict"]
    assert len(rows) == 3
    assert rows[1][0] == "p01"


def test_verify_precision_flag(capsys):
    code, out, _ = run(capsys, "verify", "log2", "--terms", "5000",
                       "--precision", "30", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    value = doc["routes"][1]["value"]
    assert len(value.split(".")[1]) >= 28


def test_precision_too_low_usage_error(capsys):
    code, _, err = run(capsys, "verify", "log2", "--precision", "10")
    assert code == EXIT_USAGE


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("ZETASUM_FORMAT", "json")
    monkeypatch.setenv("ZETASUM_TERMS", "5000")
    code, out, _ = run(capsys, "verify", "log2")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["routes"][0]["terms"] == 5000


@pytest.mark.parametrize("name,value", [
    ("PRECISION", "abc"),
    ("PRECISION", "10"),
    ("TERMS", "abc"),
    ("TERMS", "0"),
    ("HEIGHT", "abc"),
    ("HEIGHT", "nan"),
    ("HEIGHT", "-1"),
    ("FORMAT", "xml"),
])
def test_bad_env_value_usage_error(capsys, monkeypatch, name, value):
    # checked like the flag it stands for, before any command runs, by an
    # identity that has the flag
    monkeypatch.setenv("ZETASUM_" + name, value)
    code, out, err = run(capsys, "verify", "p0_zeros" if name == "HEIGHT" else "log2")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"error: argument --{name.lower()}: " in err


@pytest.mark.parametrize("value", ["true", "yes", "2", " 1"])
def test_bad_switch_env_value_usage_error(capsys, monkeypatch, value):
    # ZETASUM_NO_TAIL_CORRECTION takes 1 or 0, checked like the typed flags
    monkeypatch.setenv("ZETASUM_NO_TAIL_CORRECTION", value)
    code, out, err = run(capsys, "verify", "p0_zeros")
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: argument --no-tail-correction: must be 1 or 0" in err


@pytest.mark.parametrize("value,argv,off", [
    ("1", [], True), ("0", [], False), ("", [], False),
    ("true", ["--no-tail-correction"], True),
])
def test_switch_env_value(monkeypatch, value, argv, off):
    monkeypatch.setenv("ZETASUM_NO_TAIL_CORRECTION", value)
    args = build_parser().parse_args(["verify", "p0_zeros", *argv])
    cli._fill(args)
    assert args.no_tail_correction is off


def test_flag_wins_over_bad_env_value(capsys, monkeypatch):
    monkeypatch.setenv("ZETASUM_FORMAT", "xml")
    code, out, _ = run(capsys, "verify", "log2", "--terms", "5000",
                       "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "pass"


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants", "--terms", "5000")
    assert code == EXIT_PASS
    assert "gamma" in out
    assert "gamma_addison" in out
    assert "stieltjes[0]" in out
    assert "main_series" in out
    assert "0.5772156" in out


def test_constants_json_two_routes_each(capsys):
    code, out, _ = run(capsys, "constants", "--terms", "5000",
                       "--format", "json")
    doc = json.loads(out)
    names = {c["name"] for c in doc["constants"]}
    assert names == {"gamma", "ln(4/pi)", "ln 2", "ln pi",
                     "gamma - ln(4 pi) + 2"}
    for c in doc["constants"]:
        assert len(c["routes"]) >= 2
    # stieltjes[0] is the certified default whatever --terms says
    gamma = {r["label"]: r for r in doc["constants"][0]["routes"]}
    s0 = gamma["stieltjes[0]"]
    assert s0["terms"] == 200
    assert float(s0["tail_bound"]) < 1e-47
    assert s0["value"].startswith("0.577215664901532860606512090082402431042159335939")


def test_constants_p01_runs_at_n(capsys):
    # p01 is a closed form: it takes --terms as given, with no cap
    code, out, _ = run(capsys, "constants", "--terms", "5000", "--format", "json")
    assert code == EXIT_PASS
    target = next(c for c in json.loads(out)["constants"]
                  if c["name"] == "gamma - ln(4 pi) + 2")
    p01 = next(r for r in target["routes"] if r["label"] == "p01_integral")
    assert p01["terms"] == 5000
    with workdps(60):
        value, bound = mpf(p01["value"]), mpf(p01["tail_bound"])
        assert value <= mp.euler - mp.log(4 * mp.pi) + 2 <= value + bound


def test_zeros_find_check_export(capsys, tmp_path):
    out_file = tmp_path / "z.txt"
    code, _, _ = run(capsys, "zeros", "find", "--height", "50",
                     "--output", str(out_file))
    assert code == EXIT_PASS
    lines = [l for l in out_file.read_text().splitlines()
             if l and not l.startswith("#")]
    assert len(lines) == 10

    code, out, _ = run(capsys, "zeros", "check", str(out_file))
    assert code == EXIT_PASS
    assert "ok: 10" in out

    exported = tmp_path / "two.txt"
    code, _, _ = run(capsys, "zeros", "export", str(out_file),
                     "--output", str(exported), "--limit", "2")
    assert code == EXIT_PASS
    kept = [l for l in exported.read_text().splitlines()
            if l and not l.startswith("#")]
    assert len(kept) == 2
    assert kept[0].startswith("14.134725")


def test_zeros_find_check_export_below_first_zero(capsys, tmp_path):
    # no zero lies below height 5: the table is empty, and a valid table
    found, copied = tmp_path / "z5.txt", tmp_path / "copy.txt"
    assert run(capsys, "zeros", "find", "--height", "5", "--output", str(found))[0] == EXIT_PASS
    assert run(capsys, "zeros", "export", str(found), "--output", str(copied))[0] == EXIT_PASS
    for path in (found, copied):
        assert run(capsys, "zeros", "check", str(path)) == (EXIT_PASS, "ok: 0 ordinates\n", "")


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_zeros_export_nonpositive_limit_usage_error(capsys, tmp_path, limit):
    exported = tmp_path / "out.txt"
    code, out, err = run(capsys, "zeros", "export", ZEROS_FILE,
                         "--output", str(exported), "--limit", limit)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: argument --limit: must be >= 1" in err
    assert not exported.exists()


def test_zeros_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.13\n21.02\n20.00\n")
    code, _, err = run(capsys, "zeros", "check", str(bad))
    assert code == EXIT_FAIL
    assert "line 3" in err


def test_zeros_check_row_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"14.1347251417347\n21.02\xff\n")
    code, out, err = run(capsys, "zeros", "check", str(bad))
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "check failed: line 2: cannot decode row as UTF-8: byte 0xff at column 6\n"


def test_zeros_check_row_beyond_the_double_range(capsys, tmp_path):
    bad = tmp_path / "huge.txt"
    bad.write_text("14.1347251417347\n1e99999\n", encoding="utf-8")
    code, out, err = run(capsys, "zeros", "check", str(bad))
    assert (code, out) == (EXIT_FAIL, "")
    assert err == "check failed: line 2: ordinate 1e99999 beyond the double range\n"


def test_zeros_check_table_behind_a_byte_order_mark(capsys, tmp_path):
    bom = tmp_path / "bom.txt"
    with open(ZEROS_FILE, "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert run(capsys, "zeros", "check", str(bom)) == run(capsys, "zeros", "check", ZEROS_FILE)


@pytest.mark.parametrize("argv", [
    ("zeros", "check", "{dir}"),
    ("li", "2", "--zeros-file", "{dir}"),
    ("zeros", "export", ZEROS_FILE, "--output", "{dir}"),
    ("zeros", "export", ZEROS_FILE, "--output", "{file}/out.txt"),
])
def test_unreadable_or_unwritable_path_usage_error(capsys, tmp_path, argv):
    # a directory, or a path under a file, is an OSError, not a traceback
    # with the failed-verdict exit code
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: [Errno ")


def test_zeros_find_requires_height(capsys):
    code, _, err = run(capsys, "zeros", "find")
    assert code == EXIT_USAGE


def test_li_table(capsys):
    code, out, _ = run(capsys, "li", "3", "--zeros-file", ZEROS_FILE,
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert len(doc["lambda"]) == 3
    assert all(row["positive"] for row in doc["lambda"])
    assert doc["lambda"][0]["value"].startswith("0.0230957")


def test_li_zero_usage_error(capsys):
    code, _, _ = run(capsys, "li", "0")
    assert code == EXIT_USAGE


def test_gn_reduction_via_cli(capsys):
    code, out, _ = run(capsys, "gn", "1", "--zeros", "100",
                       "--zeros-file", ZEROS_FILE, "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["zeros_used"] == 100
    assert doc["positive"]


def test_gn_unsupported_n(capsys):
    code, _, err = run(capsys, "gn", "4", "--zeros", "10",
                       "--zeros-file", ZEROS_FILE)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("n,k,positive", [
    (3, 100, False),  # 8.6e-22 +- 2.2e-14
    (2, 200, False),  # 3.3e-9 +- 5.2e-9
    (2, 1000, True),  # 3.7e-9 +- 1.7e-9
])
def test_gn_positive_is_certified(capsys, n, k, positive):
    # positive only when the whole enclosure lies above zero
    code, out, _ = run(capsys, "gn", str(n), "--zeros", str(k),
                       "--zeros-file", ZEROS_FILE, "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["positive"] is positive


def test_sign_needs_the_lower_end_above_zero():
    # a lower end at zero is not positive: the value equal to its bound, or
    # a value of 0 that is itself the lower end
    one = ExtendedReal(mpf(1), 50)
    assert cli._sign_dict(SeriesResult(mpf(1), 1, one, "t"), 20)["positive"] is False
    assert cli._sign_dict(SeriesResult(mpf(0), 1, one, "t", positive_terms=True),
                          20)["positive"] is False


@pytest.mark.parametrize("argv", [
    ("li", "1", "--height", "0"),
    ("li", "1", "--height", "-3"),
    ("zeros", "find", "--height", "0"),
    ("gn", "1", "--zeros", "0", "--zeros-file", ZEROS_FILE),
    ("gn", "1", "--zeros", "-5", "--zeros-file", ZEROS_FILE),
])
def test_nonpositive_height_or_zeros_usage_error(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("argv", [("verify", "p0_zeros"), ("li", "1"), ("gn", "1")])
def test_zeros_file_and_height_exclusive(capsys, argv):
    # the zeros come from one source: a table or a height, not both
    code, out, err = run(capsys, *argv, "--zeros-file", ZEROS_FILE, "--height", "20")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--height: not allowed with argument --zeros-file" in err


@pytest.mark.parametrize("argv,used", [
    (("verify", "p0_zeros"), "(terms=10000,"),
    (("li", "1"), "(zeros=10000,"),
    (("gn", "1", "--zeros", "100"), "over 100 zeros"),
], ids=["verify", "li", "gn"])
def test_zeros_file_flag_wins_over_height_variable(capsys, monkeypatch, argv, used):
    # the exclusion is between flags: ZETASUM_HEIGHT is only a default, so an
    # explicit --zeros-file is no usage error and its table is what is read
    monkeypatch.setenv("ZETASUM_HEIGHT", "20")
    code, out, _ = run(capsys, *argv, "--zeros-file", ZEROS_FILE)
    assert code == EXIT_PASS
    assert used in out


@pytest.mark.parametrize("argv,used", [
    (("verify", "p0_zeros"), "(terms=1,"),
    (("li", "1"), "(zeros=1,"),
    (("gn", "1"), "over 1 zeros"),
], ids=["verify", "li", "gn"])
def test_height_flag_wins_over_zeros_file_variable(capsys, monkeypatch, argv, used):
    # either source's flag discards the other source's variable
    monkeypatch.setenv("ZETASUM_ZEROS_FILE", ZEROS_FILE)
    code, out, _ = run(capsys, *argv, "--height", "20")
    assert code == EXIT_PASS
    assert used in out


@pytest.mark.parametrize("argv", [("verify", "p0_zeros"), ("li", "1"), ("gn", "1")])
def test_zeros_file_and_height_variables_exclusive(capsys, monkeypatch, argv):
    # both variables and neither flag name two sources, like both flags
    monkeypatch.setenv("ZETASUM_ZEROS_FILE", ZEROS_FILE)
    monkeypatch.setenv("ZETASUM_HEIGHT", "20")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "ZETASUM_ZEROS_FILE and ZETASUM_HEIGHT exclude each other" in err


def test_missing_file_usage_error(capsys):
    code, _, err = run(capsys, "verify", "p0_zeros",
                       "--zeros-file", "/nonexistent/zeros.txt")
    assert code == EXIT_USAGE


def _flat_verify(doc):
    return [{"identity": doc["identity"], **r, "verdict": doc["verdict"]}
            for r in doc["routes"]]


def _flat_constants(doc):
    return [{"constant": c["name"], **r} for c in doc["constants"] for r in c["routes"]]


@pytest.mark.parametrize("argv,flatten", [
    (("verify", "log2", "--terms", "5000"), _flat_verify),
    (("constants", "--terms", "1000"), _flat_constants),
    (("li", "3", "--zeros-file", ZEROS_FILE), lambda doc: doc["lambda"]),
    (("gn", "2", "--zeros", "50", "--zeros-file", ZEROS_FILE), lambda doc: [doc]),
])
def test_formats_agree(capsys, argv, flatten):
    outs = {}
    for fmt in ("json", "csv", "text"):
        code, outs[fmt], _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_PASS
    expected = flatten(json.loads(outs["json"]))
    header, *rows = list(csv.reader(io.StringIO(outs["csv"])))
    assert header == list(expected[0])
    assert [dict(zip(header, row)) for row in rows] == \
        [{k: str(v) for k, v in row.items()} for row in expected]
    for row in expected:
        assert row["value"] in outs["text"]


@pytest.mark.parametrize("argv", [
    ("constants", "--zeros-file", ZEROS_FILE),
    ("constants", "--height", "20"),
    ("constants", "--no-tail-correction"),
    ("zeros", "find", "--height", "20", "--terms", "9"),
    ("zeros", "find", "--height", "20", "--format", "json"),
    ("zeros", "find", "--height", "20", "--no-tail-correction"),
    ("zeros", "check", ZEROS_FILE, "--terms", "9"),
    ("zeros", "check", ZEROS_FILE, "--format", "json"),
    ("zeros", "check", ZEROS_FILE, "--no-tail-correction"),
    ("zeros", "check", ZEROS_FILE, "--height", "20"),
    ("zeros", "check", ZEROS_FILE, "--zeros-file", ZEROS_FILE),
    ("zeros", "find", "--height", "20", "--precision", "30"),
    ("zeros", "check", ZEROS_FILE, "--precision", "30"),
    ("zeros", "export", ZEROS_FILE, "--output", os.devnull, "--precision", "30"),
    ("li", "2", "--terms", "9"),
    ("gn", "1", "--terms", "9"),
    ("gn", "1", "--no-tail-correction"),
    ("verify", "log2", "--zeros-file", ZEROS_FILE),
    ("verify", "log2", "--height", "20"),
    ("verify", "log2", "--no-tail-correction"),
    ("verify", "p0_zeros", "--terms", "9"),
])
def test_unread_flag_usage_error(capsys, argv):
    # each subcommand takes only the flags its handler reads
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments: --" in err


CHECK = ("zeros", "check", ZEROS_FILE)
CONSTANTS = ("constants", "--terms", "200")
LOG2 = ("verify", "log2", "--terms", "200")
P0 = ("verify", "p0_zeros", "--height", "20")
FIRST_LINE = {CHECK: "ok: 10000 ordinates", CONSTANTS: "gamma\n",
              LOG2: "identity: log2\n", P0: "identity: p0_zeros\n"}


@pytest.mark.parametrize("argv,name,value", [
    (CHECK, "TERMS", "0"), (CHECK, "NO_TAIL_CORRECTION", "true"), (CHECK, "FORMAT", "xml"),
    (CHECK, "HEIGHT", "-1"), (CHECK, "ZEROS_FILE", "/nonexistent/zeros.txt"),
    (CHECK, "PRECISION", "abc"),
    (CONSTANTS, "NO_TAIL_CORRECTION", "true"), (CONSTANTS, "HEIGHT", "-1"),
    (CONSTANTS, "ZEROS_FILE", "/nonexistent/zeros.txt"),
    (LOG2, "NO_TAIL_CORRECTION", "true"), (LOG2, "HEIGHT", "-1"),
    (LOG2, "ZEROS_FILE", "/nonexistent/zeros.txt"),
    (P0, "TERMS", "0"),
])
def test_env_value_of_unread_flag_ignored(capsys, monkeypatch, argv, name, value):
    # a ZETASUM_ variable applies only where its flag exists
    monkeypatch.setenv("ZETASUM_" + name, value)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_PASS
    assert out.startswith(FIRST_LINE[argv])


def test_zeros_find_height_from_env(capsys, monkeypatch):
    monkeypatch.setenv("ZETASUM_HEIGHT", "20")
    code, out, _ = run(capsys, "zeros", "find")
    assert code == EXIT_PASS
    assert out.splitlines() == ["14.1347251417347"]


@pytest.mark.parametrize("argv", [
    ("zeros", "check", "--output", "OUT"),
    ("zeros", "export", ZEROS_FILE),
    ("zeros", "export", "--output", "OUT"),
    ("zeros", "export", "--output", "OUT", "--limit", "5"),
    ("zeros", "export", "--zeros-file", ZEROS_FILE, "--output", "OUT"),
    ("zeros", "--output", "OUT"),
])
def test_zeros_missing_input_usage_error(capsys, tmp_path, argv):
    # argparse requires each input: exit 2, nothing printed, no file written
    out_file = tmp_path / "out.txt"
    code, out, err = run(capsys, *(str(out_file) if a == "OUT" else a for a in argv))
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: " in err
    assert not out_file.exists()


def test_li_positive_is_certified(capsys):
    # one zero leaves every lambda_n's enclosure reaching below zero
    code, out, _ = run(capsys, "li", "10", "--height", "20", "--format", "json")
    assert code == EXIT_PASS
    rows = json.loads(out)["lambda"]
    assert len(rows) == 10
    assert not any(row["positive"] for row in rows)
    _, text, _ = run(capsys, "li", "10", "--height", "20")
    assert text.count("[-]") == 10 and "[+]" not in text


LOG2_10 = ("verify", "log2", "--terms", "10")


def test_parser_built_once(capsys, monkeypatch):
    # the parser reads no environment, so one build serves every call
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser.cache_clear()
    try:
        assert run(capsys, *LOG2_10)[0] == EXIT_PASS
        once = len(built)
        assert run(capsys, *LOG2_10)[0] == EXIT_PASS
    finally:
        build_parser.cache_clear()
    assert once > 0 and len(built) == once


def test_env_value_set_after_parser_built(capsys, monkeypatch):
    # variables are read when main runs, not when the parser was built
    assert run(capsys, *LOG2_10)[1].startswith("identity: log2\n")
    monkeypatch.setenv("ZETASUM_FORMAT", "json")
    code, out, _ = run(capsys, *LOG2_10)
    assert code == EXIT_PASS
    assert json.loads(out)["identity"] == "log2"


def test_handler_looked_up_when_run(capsys, monkeypatch):
    # a handler replaced in the module after the parser was built (as a span
    # tracer does) is the one main runs
    assert run(capsys, *LOG2_10)[0] == EXIT_PASS
    real, calls = cli.cmd_verify, []

    def spy(args):
        calls.append(args.identity)
        return real(args)

    monkeypatch.setattr(cli, "cmd_verify", spy)
    assert run(capsys, *LOG2_10)[0] == EXIT_PASS
    assert calls == ["log2"]
