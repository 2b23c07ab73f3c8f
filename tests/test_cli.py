"""Command-line interface: output formats and the exit-code contract."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tsppcong as tc
from tsppcong import cli, documents
from tsppcong.cli import main

DATA = Path(tc.__file__).parent / "data"
INSTANCE_PATH = str(DATA / "f_1250n_125_mod125.json")

# the certificate bytes `tsppcong prove` writes for the shipped instances, as
# listed in perfbench/README.md
CERTIFICATE_SHA256 = {
    "f_1250n_125_mod125": "339568b79f219d794ee9510c53d75a8941cd5b13a7bc6c25ece7838ab060bff2",
    "f_1250n_1125_mod125": "66a44581fbe9b46a6795854684db016593c77aafc7bf9c11082460109a878139",
    "f_2750n_825_mod11": "06c50f20e4ba8e783358bb7cc725792fc906717731cf81dc073983d4b290252b",
    "f_2750n_1925_mod11": "68a0c052e7c3eaf3a1f2bf41139f2519c05afdc00c8bf9f28a64a65ddf52c0f5",
}


# the bytes `tsppcong expand` writes for the whole expansion, every residue
# class: the slice variant mod 125, the slice series over the integers, and
# the counting series over the integers and mod the oracle modulus 5500
EXPAND_SHA256 = {
    ("--seq", "gap", "--alpha", "3", "--p", "5", "--order", "3000", "--mod", "125"):
        "17b228b185eca4a00b418a4320d230f4b173746dfb53318532211a9e30ca3368",
    ("--seq", "g", "--order", "300"):
        "f23b1007e88baee14ea65de22f81bc8810e00122f4688520c3e8ca6cbd2da500",
    ("--seq", "f", "--order", "5000"):
        "8f749a39c135f60b65b0e9fe2005c0f053d8a8283b5d8113971442410d5d654b",
    ("--seq", "f", "--order", "50000", "--mod", "5500"):
        "70f63d4a2ad23b18cac3b6ee69b0b6ce4dbb01584636ced2158fdc3f76bcffc3",
}


# the bytes `tsppcong regress` prints: 22 rows and the overall line
REGRESS_SHA256 = "f545bcd08e1a984207ac26383cac8db82264728d957ca056b0ce4ec693c64daf"


def write_instance(tmp_path, payload, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def unreachable(*args):
    raise AssertionError("worked before checking the output path")


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


def test_expand_writes_pinned_output(capsys):
    for args, digest in EXPAND_SHA256.items():
        assert main(["expand", *args]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest, args


def test_expand_writes_file(tmp_path):
    out = tmp_path / "coeffs.tsv"
    assert main(["expand", "--seq", "f", "--order", "4", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "0\t1\n1\t1\n2\t0\n3\t0\n4\t1\n"


def test_expand_write_errors_exit_2(tmp_path, capsys, monkeypatch):
    # a missing directory and a directory are refused before expanding
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_expand_series", unreachable)
        for out, message in (
            (tmp_path / "missing" / "coeffs.tsv", f"output directory {tmp_path / 'missing'} does not exist"),
            (tmp_path, f"output path {tmp_path} is a directory"),
        ):
            assert main(["expand", "--seq", "f", "--order", "4", "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    out = tmp_path / "coeffs.tsv"
    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["expand", "--seq", "f", "--order", "4", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""


def test_expand_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["expand", "--seq", "nope", "--order", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    # a flag the chosen sequence would ignore is refused
    for args, message in (
        (["--seq", "f", "--order", "5", "--alpha", "3"], "--alpha and --p apply only to --seq gap"),
        (["--seq", "eta", "--order", "5", "--p", "5"], "--alpha and --p apply only to --seq gap"),
        (["--seq", "g", "--order", "3", "--spec", "nofile.json"], "--spec applies only to --seq eta"),
        (["--seq", "gap", "--order", "3", "--alpha", "1", "--p", "5", "--spec", "nofile.json"],
         "--spec applies only to --seq eta"),
    ):
        assert main(["expand", *args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
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
        '{"M": 2, "M": 3, "r": {}}',
        '{"M": 2, "r": {"1": 1, "01": 2}}',
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


def test_prove_writes_pinned_certificates(tmp_path, capsys):
    assert sorted(path.stem for path in DATA.glob("*.json")) == sorted(CERTIFICATE_SHA256)
    for name, digest in CERTIFICATE_SHA256.items():
        out = tmp_path / f"{name}.cert.json"
        assert main(["prove", "--instance", str(DATA / f"{name}.json"), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name
    assert capsys.readouterr().out.count(": PROVED\n") == 4


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
    monkeypatch.setattr(cli, "prove_tspp_congruence", unreachable)
    out = tmp_path / "missing" / "c.json"
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: output directory {out.parent} does not exist" in captured.err
    assert captured.out == ""


def test_prove_directory_output_exits_2_before_proving(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "prove_tspp_congruence", unreachable)
    assert main(["prove", "--instance", INSTANCE_PATH, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: output path {tmp_path} is a directory" in captured.err
    assert captured.out == ""


def test_prove_write_error_exits_2(tmp_path, capsys, monkeypatch):
    # f(6n+4) is not reducible, so the proof ends at once; the write then fails
    path = write_instance(
        tmp_path,
        {
            "claim": {"sequence": "f", "A": 6, "B": 4, "u": 5},
            "hints": {"N": 10, "r_prime": {"1": 13}},
        },
    )
    out = tmp_path / "c.json"

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    assert main(["prove", "--instance", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("claim", [(3, 0, 5), (6, 0, 7), (9, 0, 4)])
def test_prove_progression_through_index_0_exits_3(claim, tmp_path, capsys):
    # f(0) = 1: the class n = 3k+0 of f(An) is not closed by the vanishing support
    A, B, u = claim
    path = write_instance(
        tmp_path,
        {"claim": {"sequence": "f", "A": A, "B": B, "u": u}, "hints": {"N": 10, "r_prime": {"1": 1}}},
    )
    out = tmp_path / "c.json"
    assert main(["prove", "--instance", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"f({A}n+0) = 0 (mod {u}): NOT-REDUCIBLE\n"
    assert "the progression contains index 0, and f(0) = 1" in captured.err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert (payload["verdict"], payload["certificates"]) == ("NOT-REDUCIBLE", [])


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


def test_regress_prints_every_row(capsys):
    assert main(["regress"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REGRESS_SHA256
    lines = out.splitlines()
    assert len(lines) == 23
    assert all(" PASS " in line for line in lines[:-1])
    assert lines[-1].split() == ["overall", "PASS"]
    with pytest.raises(SystemExit) as info:
        main(["regress", "--oracle-max", "0"])
    assert info.value.code == 2


def regress_data_file_without_hints(tmp_path, monkeypatch):
    # the real data-directory scan, pointed at a directory holding one bad file
    (tmp_path / "data").mkdir()
    claim = {"sequence": "f", "A": 1250, "B": 125, "u": 125}
    (tmp_path / "data" / "zz_bad.json").write_text(json.dumps({"claim": claim}), encoding="utf-8")
    monkeypatch.setattr(documents, "resources", SimpleNamespace(files=lambda _: tmp_path))
    return ["regress"], "zz_bad: missing field(s) ['hints']"


def regress_unsupported_level(tmp_path, monkeypatch):
    doc = documents.InstanceDocument(
        tc.CongruenceClaim("f", 1250, 125, 125), tc.InstanceHints(50, tc.EtaQuotientSpec(50, {1: 13}))
    )
    monkeypatch.setattr(documents, "shipped_instances", lambda: (doc,))
    return ["regress"], "group level 50 is not supported"


def prove_undecodable_instance(tmp_path, monkeypatch):
    path = tmp_path / "case.json"
    path.write_bytes(b"\xff\xfe\x00")
    return ["prove", "--instance", str(path), "--out", str(tmp_path / "c.json")], "can't decode"


def expand_missing_spec(tmp_path, monkeypatch):
    path = tmp_path / "nope.json"
    return ["expand", "--seq", "eta", "--spec", str(path), "--order", "3"], str(path)


def regress_undecodable_data_file(tmp_path, monkeypatch):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "zz_bad.json").write_bytes(b"\xff\xfe\x00")
    monkeypatch.setattr(documents, "resources", SimpleNamespace(files=lambda _: tmp_path))
    return ["regress"], "zz_bad: 'utf-8' codec can't decode"


def expand_undecodable_spec(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe\x00")
    argv = ["expand", "--seq", "eta", "--spec", str(path), "--order", "3"]
    return argv, f"{path}: 'utf-8' codec can't decode"


def prove_undecodable_instance_names_file(tmp_path, monkeypatch):
    path = tmp_path / "case.json"
    path.write_bytes(b"\xff\xfe\x00")
    argv = ["prove", "--instance", str(path), "--out", str(tmp_path / "c.json")]
    return argv, f"{path}: 'utf-8' codec can't decode"


def prove_instance_with_a_huge_integer(tmp_path, monkeypatch):
    # json refuses an integer literal of more than 4 300 digits with a bare ValueError
    path = tmp_path / "huge.json"
    claim = '{"sequence": "f", "A": 1%s, "B": 5, "u": 5}' % ("0" * 4300)
    path.write_text('{"claim": %s, "hints": {"N": 10, "r_prime": {"1": 1}}}' % claim, encoding="utf-8")
    argv = ["prove", "--instance", str(path), "--out", str(tmp_path / "c.json")]
    return argv, f"{path}: not valid JSON: Exceeds the limit (4300 digits)"


def expand_spec_with_a_huge_integer(tmp_path, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text('{"M": 2, "r": {"1": -2, "2": 3%s}}' % ("0" * 4300), encoding="utf-8")
    argv = ["expand", "--seq", "eta", "--spec", str(path), "--order", "3"]
    return argv, f"{path}: not valid JSON: Exceeds the limit (4300 digits)"


def prove_instance_nested_past_the_recursion_limit(tmp_path, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = ["prove", "--instance", str(path), "--out", str(tmp_path / "c.json")]
    return argv, f"{path}: not valid JSON: maximum recursion depth exceeded"


@pytest.mark.parametrize(
    "case",
    [
        regress_data_file_without_hints,
        regress_unsupported_level,
        prove_undecodable_instance,
        expand_missing_spec,
        regress_undecodable_data_file,
        expand_undecodable_spec,
        prove_undecodable_instance_names_file,
        prove_instance_with_a_huge_integer,
        expand_spec_with_a_huge_integer,
        prove_instance_nested_past_the_recursion_limit,
    ],
)
def test_refused_input_exits_2_from_every_command(case, tmp_path, capsys, monkeypatch):
    argv, message = case(tmp_path, monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "tsppcong", "expand", "--seq", "f", "--order", "3"],
        capture_output=True,
        text=True,
        encoding="utf-8",
        check=True,
    )
    assert result.stdout == "0\t1\n1\t1\n2\t0\n3\t0\n"
