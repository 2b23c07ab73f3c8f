"""Command-line interface: output formats and the exit-code contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tsppcong as tc
from tsppcong import cli
from tsppcong.cli import main
from tsppcong.documents import shipped_instance

INSTANCE_PATH = str(
    Path(tc.__file__).parent / "data" / "f_1250n_125_mod125.json"
)


def write_instance(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_expand_counting_sequence(capsys):
    assert main(["expand", "--seq", "f", "--order", "7"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines == ["0\t1", "1\t1", "2\t0", "3\t0", "4\t1", "5\t0", "6\t0", "7\t2"]
    assert out.endswith("\n")


def test_expand_slice_series_order_zero(capsys):
    assert main(["expand", "--seq", "g", "--order", "0"]) == 0
    assert capsys.readouterr().out == "0\t1\n"


def test_expand_slice_variant_mod(capsys):
    assert main(
        ["expand", "--seq", "gap", "--alpha", "3", "--p", "5", "--order", "1", "--mod", "125"]
    ) == 0
    assert capsys.readouterr().out == "0\t1\n1\t2\n"


def test_expand_eta_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"M": 2, "r": {"1": -2, "2": 3}}', encoding="utf-8")
    assert main(["expand", "--seq", "eta", "--spec", str(spec), "--order", "5"]) == 0
    assert capsys.readouterr().out == "0\t1\n1\t2\n2\t2\n3\t4\n4\t5\n5\t6\n"


def test_expand_writes_file(tmp_path):
    out = tmp_path / "coeffs.tsv"
    assert main(["expand", "--seq", "f", "--order", "4", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "0\t1\n1\t1\n2\t0\n3\t0\n4\t1\n"


def test_expand_write_errors_exit_2(tmp_path, capsys):
    for out in (tmp_path / "missing" / "coeffs.tsv", tmp_path):
        assert main(["expand", "--seq", "f", "--order", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""


def test_expand_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["expand", "--seq", "nope", "--order", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    assert main(["expand", "--seq", "gap", "--order", "3"]) == 2
    assert main(["expand", "--seq", "eta", "--order", "3"]) == 2
    assert main(["expand", "--seq", "f", "--order", "-1"]) == 2
    bad_spec = tmp_path / "spec.json"
    for text in (
        '{"M": 2}',
        '{"M": 2, "r": {"1": -2.7}}',
        '{"M": 2, "r": {"1": true}}',
        '{"M": 10.0, "r": {"1": 1}}',
        '{"M": 2, "r": {"1.0": 1}}',
        '{"M": 2, "r": [1]}',
        '[2]',
        '{"M": 2, "r": {"1": 1}, "x": 0}',
    ):
        bad_spec.write_text(text, encoding="utf-8")
        assert main(["expand", "--seq", "eta", "--spec", str(bad_spec), "--order", "3"]) == 2, text
    assert "must be an integer" in capsys.readouterr().err


def test_prove_shipped_instance(tmp_path, capsys):
    out = tmp_path / "certificate.json"
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(out)]) == 0
    assert "PROVED" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "PROVED"
    assert payload["certificates"][0]["bound_floor"] == 84
    assert payload["oracle_check"]["passed"] is True


def test_prove_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(a)]) == 0
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_prove_validation_failure_exits_2(tmp_path, capsys):
    # f(12n+1) reduces to slice-variant claims with the even step 6
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 12, "B": 1, "u": 5},
            "hints": {"N": 10, "r_prime": {"1": 13}},
        },
    )
    assert main(["prove", "--instance", path, "--out", str(tmp_path / "c.json")]) == 2
    assert "step 6 is even" in capsys.readouterr().err


def test_prove_rejects_overrides_of_a_false_claim(tmp_path, capsys):
    # f(1) = 1, so the claim is false; overrides once let it print PROVED
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 6, "B": 1, "u": 5},
            "hints": {"N": 5, "r_prime": {"1": 5}},
            "overrides": {"m": 5, "t": 4, "r": {"M": 1, "exponents": {"1": -1}}},
        },
    )
    out = tmp_path / "c.json"
    assert main(["prove", "--instance", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "unknown field(s) ['overrides']" in captured.err
    assert "PROVED" not in captured.out
    assert not out.exists()


def test_prove_missing_output_directory_exits_2_before_proving(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("proved before checking the output directory")

    monkeypatch.setattr(cli, "prove_tspp_congruence", unreachable)
    out = tmp_path / "missing" / "c.json"
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: output directory {out.parent} does not exist" in captured.err
    assert captured.out == ""


def test_prove_write_error_exits_2(tmp_path, capsys):
    # f(6n+4) is not reducible, so the proof ends at once; the write then fails
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 6, "B": 4, "u": 5},
            "hints": {"N": 10, "r_prime": {"1": 13}},
        },
    )
    assert main(["prove", "--instance", path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("level", [9, 16, 25, 50])
def test_prove_level_with_missing_cusps_exits_2(tmp_path, capsys, level):
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
            "hints": {"N": level, "r_prime": {"1": 13}},
        },
    )
    out = tmp_path / "c.json"
    assert main(["prove", "--instance", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"group level {level} is not supported" in captured.err
    assert "PROVED" not in captured.out
    assert not out.exists()


def test_prove_unknown_field_exits_2(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125, "oops": 3},
            "hints": {"N": 10, "r_prime": {"1": 13}},
        },
    )
    assert main(["prove", "--instance", path, "--out", str(tmp_path / "c.json")]) == 2
    assert "unknown field" in capsys.readouterr().err


def test_prove_missing_file_exits_2(tmp_path, capsys):
    assert main(["prove", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "c.json")]) == 2
    capsys.readouterr()


def test_prove_not_reducible_exits_3(tmp_path, capsys):
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 6, "B": 4, "u": 5},
            "hints": {"N": 10, "r_prime": {"1": 13}},
        },
    )
    assert main(["prove", "--instance", path, "--out", str(tmp_path / "c.json")]) == 3
    assert "NOT-REDUCIBLE" in capsys.readouterr().out


def test_prove_failed_verification_exits_3(tmp_path, capsys):
    # without the auxiliary factor a cusp bound goes negative
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 1250, "B": 125, "u": 125},
            "hints": {"N": 10, "r_prime": {"1": 0}},
        },
    )
    out = tmp_path / "c.json"
    assert main(["prove", "--instance", path, "--out", str(out)]) == 3
    assert "cusp bound negative" in capsys.readouterr().err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "FAILED"
    assert payload["certificates"][0]["verdict"] == "FAILED"
    assert payload["certificates"][0]["admissibility"]["passed"] is True


def test_regress_with_skipped_oracle(capsys):
    assert main(["regress", "--oracle-max", "0"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out
    assert "overall" in out and "PASS" in out


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "tsppcong", "expand", "--seq", "f", "--order", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "0\t1\n1\t1\n2\t0\n3\t0\n"


def test_shipped_instance_accessor():
    doc = shipped_instance("f_2750n_825_mod11")
    assert doc.claim == tc.CongruenceClaim("f", 2750, 825, 11)
    with pytest.raises(KeyError):
        shipped_instance("nope")
