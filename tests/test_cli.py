import csv
import io
import json

import pytest

from zetasum.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main
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
    assert "unknown identity" in err


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


def test_zeros_check_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.13\n21.02\n20.00\n")
    code, _, err = run(capsys, "zeros", "check", str(bad))
    assert code == EXIT_FAIL
    assert "line 3" in err


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
