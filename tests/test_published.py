"""The published congruences in data/published: each proves with its hints,
a failed proof of one fails every combined row that rests on it, and the
package data ships them."""

import hashlib
import json
from pathlib import Path

import pytest

import tsppcong as tc
from tsppcong import documents
from tsppcong.cli import main

PACKAGE = Path(tc.__file__).parent
PUBLISHED = PACKAGE / "data" / "published"

# bound floor and certificate sha256 of `tsppcong prove` on each file
PUBLISHED_PROOFS = {
    "f_10n_5_mod5": (3, "ae32bf036bb375f5ab214be41e588f37e6661a78d91da966e7436dff0b4abf9c"),
    "f_250n_125_mod25": (17, "292765b7b2343fa4046a930620ece244ec75a96bb57843ec640aed711c994cfb"),
}


def test_published_files_are_the_pinned_ones():
    assert sorted(path.stem for path in PUBLISHED.glob("*.json")) == sorted(PUBLISHED_PROOFS)


@pytest.mark.parametrize("name", sorted(PUBLISHED_PROOFS))
def test_published_file_proves(name, tmp_path, capsys):
    floor, digest = PUBLISHED_PROOFS[name]
    out = tmp_path / "cert.json"
    assert main(["prove", "--instance", str(PUBLISHED / f"{name}.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(": PROVED\n")
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "PROVED"
    assert [c["bound_floor"] for c in payload["certificates"]] == [floor]
    assert payload["oracle_check"]["passed"] is True
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_failed_published_proof_fails_regress(monkeypatch, capsys):
    # without r' the cusp bound at c = 1 is negative, so f(10n+5) is not proved
    bad = documents.InstanceDocument(
        tc.CongruenceClaim("f", 10, 5, 5), tc.InstanceHints(10, tc.EtaQuotientSpec(10, {1: 0}))
    )
    monkeypatch.setattr(documents, "published_instances", lambda: (bad,))
    assert main(["regress"]) == 1
    rows = capsys.readouterr().out.splitlines()
    # name "combined f(...) = 0 (mod 55)", status, detail
    combined = [row.split(None, 7) for row in rows if row.startswith("combined")]
    detail = "f(10n+5) = 0 (mod 5) has verdict FAILED: class n = 3k+2: cusp bound negative at c=1: -1/240"
    assert [(row[1], row[6], row[7]) for row in combined] == [
        ("f(2750n+825)", "FAIL", detail),
        ("f(2750n+1925)", "FAIL", detail),
    ]
    assert [row for row in rows if " FAIL " in row and not row.startswith("combined")] == []
    assert rows[-1].split() == ["overall", "FAIL"]


def test_neighbouring_class_is_not_proved(tmp_path, capsys):
    # f(10n+1) = 0 (mod 5) is false: f(1) = 1
    path = tmp_path / "f_10n_1_mod5.json"
    claim = {"sequence": "f", "A": 10, "B": 1, "u": 5}
    path.write_text(json.dumps({"claim": claim, "hints": {"N": 10, "r_prime": {"1": 1}}}), encoding="utf-8")
    out = tmp_path / "cert.json"
    assert main(["prove", "--instance", str(path), "--out", str(out)]) == 3
    assert "coefficient at index 0 is 1 (mod 5), expected 0" in capsys.readouterr().err
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["verdict"] == "FAILED"
    assert payload["oracle_check"]["detail"] == "coefficient 1 is 1 (mod 5)"


def test_package_data_ships_every_data_file():
    tomllib = pytest.importorskip("tomllib")
    # the checkout's pyproject, also when the package under test is installed
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["tsppcong"]
    files = [path.relative_to(PACKAGE) for path in (PACKAGE / "data").rglob("*") if path.is_file()]
    assert files
    assert [str(path) for path in files if not any(path.match(glob) for glob in globs)] == []
