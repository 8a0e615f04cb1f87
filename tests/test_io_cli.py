import hashlib
import json
import os
import subprocess
import sys

import pytest

from coalgkit import jsonio
from coalgkit.coalgebra import Coalgebra, CoalgebraMorphism, diagonal_coalgebra, dual_coalgebra, polynomial_quotient_algebra
from coalgkit.dayclosure import SubPresheaf
from coalgkit.errors import ParseError
from coalgkit.fields import GF, QQ
from coalgkit.galois import coset_gset, frobenius_galois_datum
from coalgkit.linalg import Matrix
from coalgkit.polys import Polynomial

F2 = GF(2)
DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "coalgkit.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def dual_numbers():
    delta = Matrix.zeros(F2, 4, 2)
    delta.data[0][0] = 1
    delta.data[1][1] = 1
    delta.data[2][1] = 1
    return Coalgebra(F2, 2, delta, Matrix(F2, 1, 2, [[1, 0]]))


def test_coalgebra_round_trip():
    for C in (dual_numbers(), diagonal_coalgebra(3, GF(5)),
              dual_coalgebra(polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, [-2, 0, 1])))):
        doc = jsonio.coalgebra_to_json(C)
        text = jsonio.canonical_json(doc)
        assert jsonio.coalgebra_from_json(json.loads(text)) == C


def test_morphism_round_trip():
    D = dual_numbers()
    phi = CoalgebraMorphism(D, D, Matrix.identity(F2, 2))
    doc = jsonio.morphism_to_json(phi)
    back = jsonio.morphism_from_json(json.loads(jsonio.canonical_json(doc)))
    assert back.matrix == phi.matrix and back.source == D

    named = jsonio.morphism_to_json(phi, source_name="C", target_name="C")
    resolved = jsonio.morphism_from_json(named, resolve={"C": D}.__getitem__)
    assert resolved.matrix == phi.matrix
    with pytest.raises(ParseError):
        jsonio.morphism_from_json(named)


def test_galois_and_gset_round_trip():
    D = frobenius_galois_datum(2, [1, 1, 1])
    doc = json.loads(jsonio.canonical_json(jsonio.galois_to_json(D)))
    D2 = jsonio.galois_from_json(doc)
    assert D2.table == D.table and D2.L.mult == D.L.mult
    X = coset_gset(D, (0,))
    X2 = jsonio.gset_from_json(json.loads(jsonio.canonical_json(jsonio.gset_to_json(X))), D)
    assert X2.action == X.action


def test_day_documents_round_trip():
    from coalgkit import day

    Z2 = day.cyclic_group_category(F2, 2)
    doc = json.loads(jsonio.canonical_json(jsonio.day_category_to_json(Z2)))
    Z2b = jsonio.day_category_from_json(doc)
    assert Z2b.validate() == [] and Z2b.tensor_obj == Z2.tensor_obj

    F = day.representable(Z2, 1)
    fdoc = json.loads(jsonio.canonical_json(jsonio.day_presheaf_to_json(F)))
    Fb = jsonio.day_presheaf_from_json(fdoc)
    assert Fb.dims == F.dims and Fb.validate() == []

    UC = day.unit_day_coalgebra(Z2)
    cdoc = json.loads(jsonio.canonical_json(jsonio.day_coalgebra_to_json(UC)))
    UCb = jsonio.day_coalgebra_from_json(cdoc)
    assert UCb.validate() == []

    sub = SubPresheaf.from_vectors(F, {1: [[1]]})
    sdoc = json.loads(jsonio.canonical_json(jsonio.day_subpresheaf_to_json(sub)))
    sub2 = jsonio.day_subpresheaf_from_json(sdoc, Fb)
    assert sub2.dims() == sub.dims()


def test_report_round_trip_canonical():
    report = {"b": 1, "a": [1, 2], "nested": {"y": True, "x": None}}
    text = jsonio.canonical_json(report)
    assert jsonio.canonical_json(json.loads(text)) == text


def test_cli_validate_ok():
    proc = run_cli("validate", os.path.join(DATA, "dual_numbers.json"))
    assert proc.returncode == 0
    assert "ok: True" in proc.stdout


def test_cli_grouplikes():
    proc = run_cli("--format", "json", "grouplikes", os.path.join(DATA, "F4dual.json"))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0 and payload["schema"] == "coalgkit/1"


def test_cli_parse_error_exit_2():
    proc = run_cli("validate", os.path.join(DATA, "garbage.json"))
    assert proc.returncode == 2
    assert "parse error" in proc.stderr


# top-level replacements in demos/data/dual_numbers.json, and the name the
# parse error must give
MISTYPED = [
    ({"delta": [[1, 0, 0, 0], [0, 1, 1, 0]]}, "'delta'"),
    ({"delta": None}, "'delta'"),
    ({"epsilon": None}, "'epsilon'"),
    ({"field": {"kind": "Fp", "p": "2"}}, "'field.p'"),
    ({"field": {"kind": "Fq", "p": 2, "modulus": [1, 1, 1]}, "epsilon": ["1", "ax"]}, "'ax'"),
]


@pytest.mark.parametrize("command", ["validate", "decompose"])
@pytest.mark.parametrize("changes, named", MISTYPED, ids=[
    "int-entries", "null-delta", "null-epsilon", "string-p", "bad-fq-term"])
def test_cli_mistyped_coalgebra_is_parse_error(tmp_path, capsys, command, changes, named):
    from coalgkit import cli

    with open(os.path.join(DATA, "dual_numbers.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(changes)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--format", "json", command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and named in err


# (document, the command line it sits in, field, bad value): each must exit 2
# with a parse error naming the field
MISTYPED_OTHER = [
    ("galois_F4.json", ["galois-adjunction", "{doc}", "gset_regular.json"], "table", None),
    ("galois_F4.json", ["validate", "{doc}"], "table", None),
    ("gset_regular.json", ["galois-adjunction", "galois_F4.json", "{doc}"], "action", None),
    ("span_t.json", ["subgen", "dual_numbers.json", "{doc}"], "ambient", "2"),
    ("galois_F4.json", ["validate", "{doc}"], "extension", None),
    ("galois_F4.json", ["validate", "{doc}"], "automorphisms", None),
    ("day_F.json", ["day-convolve", "day_cat_Z2.json", "{doc}", "day_G.json"], "dims", None),
    ("day_line_t.json", ["day-subgen", "day_graded_coalg.json", "{doc}"], "spaces", None),
]


@pytest.mark.parametrize("name, argv, field, value", MISTYPED_OTHER, ids=[
    "galois-null-table", "validate-null-table", "gset-null-action", "subspace-string-ambient",
    "validate-null-extension", "validate-null-automorphisms", "day-convolve-null-dims",
    "day-subgen-null-spaces"])
def test_cli_mistyped_document_is_parse_error(tmp_path, capsys, name, argv, field, value):
    from coalgkit import cli

    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[field] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = [str(path) if a == "{doc}" else os.path.join(DATA, a) for a in argv[1:]]
    assert cli.main(["--format", "json", argv[0], *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and f"'{field}'" in err


@pytest.mark.parametrize("argv", [
    ["day-convolve", "day_cat_Z2.json", "{missing}", "day_G.json"],
    ["day-hom", "day_cat_Z2.json", "day_F.json", "{missing}"],
    ["day-subgen", "day_graded_coalg.json", "{missing}"],
], ids=["day-convolve", "day-hom", "day-subgen"])
def test_cli_day_missing_file_is_parse_error(tmp_path, capsys, argv):
    from coalgkit import cli

    missing = str(tmp_path / "missing.json")
    args = [missing if a == "{missing}" else os.path.join(DATA, a) for a in argv[1:]]
    assert cli.main(["--format", "json", argv[0], *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error") and "missing.json" in err


def test_numeric_entries_are_parse_errors():
    with pytest.raises(ParseError, match="entries"):
        jsonio.matrix_from_json(F2, {"rows": 1, "cols": 1, "entries": [[1]]})
    with pytest.raises(ParseError, match="vector"):
        jsonio.vector_from_json(F2, [1, 0])


def test_cli_validation_error_exit_3():
    import tempfile

    bad = jsonio.coalgebra_to_json(dual_numbers())
    bad["epsilon"] = ["0", "0"]  # breaks counitality
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(jsonio.canonical_json(bad))
        path = fh.name
    try:
        proc = run_cli("validate", path)
        assert proc.returncode == 3
    finally:
        os.unlink(path)


def test_cli_computation_error_exit_4():
    import tempfile

    # rational factorization above the degree cap propagates as exit 4
    C = dual_coalgebra(
        polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, [1] + [0] * 17 + [1]))
    )
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(jsonio.canonical_json(jsonio.coalgebra_to_json(C)))
        path = fh.name
    try:
        proc = run_cli("--degree-cap", "16", "etale", path)
        assert proc.returncode == 4
    finally:
        os.unlink(path)


def test_cli_subgen_and_workspace():
    proc = run_cli(
        "--load", f"C={os.path.join(DATA, 'dual_numbers.json')}",
        "subgen", "C", os.path.join(DATA, "span_t.json"),
    )
    assert proc.returncode == 0
    assert "generated_dim: 2" in proc.stdout


def test_cli_suite_deterministic():
    args = ("--format", "json", "--seed", "5", "suite", "--suite", "hensel", "--suite", "ftc")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["ok"] is True and payload["schema"] == "coalgkit/1"


def test_cli_env_seed():
    env = dict(os.environ, COALG_KERNEL_SEED="9")
    proc = subprocess.run(
        [sys.executable, "-m", "coalgkit.cli", "--format", "json", "suite", "--suite", "hensel"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["seed"] == 9


# sha256 of the --format json stdout of each Day command on demos/data
DAY_STDOUT_SHA256 = {
    "day-convolve": "09d39ef0cb236102180733c65094795ce73727f9a91a33b756e59571c835b865",
    "day-hom": "6ad785a9e3011170cd19266893232d503404fe93226934921a93da7f08306008",
    "day-subgen": "71bd51af68c15b65734cd15a3f0ff718d5bd8fe979cf8009bff4c2f4dee76fb2",
}


def _stdout_sha256(proc):
    return hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()


def test_cli_day_commands():
    cat = os.path.join(DATA, "day_cat_Z2.json")
    F = os.path.join(DATA, "day_F.json")
    G = os.path.join(DATA, "day_G.json")
    proc = run_cli("--format", "json", "day-convolve", cat, F, G)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verification"]["presheaf-valid"] is True
    assert _stdout_sha256(proc) == DAY_STDOUT_SHA256["day-convolve"]

    proc = run_cli("--format", "json", "day-hom", cat, F, G)
    assert proc.returncode == 0
    assert _stdout_sha256(proc) == DAY_STDOUT_SHA256["day-hom"]

    proc = run_cli(
        "--format", "json", "day-subgen",
        os.path.join(DATA, "day_graded_coalg.json"),
        os.path.join(DATA, "day_line_t.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [1, 1]
    assert _stdout_sha256(proc) == DAY_STDOUT_SHA256["day-subgen"]


def test_cli_galois_commands():
    galois = os.path.join(DATA, "galois_F4.json")
    gset = os.path.join(DATA, "gset_regular.json")
    proc = run_cli("--format", "json", "galois-functor", galois, gset)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coalgebra"]["dim"] == 2

    proc = run_cli("--format", "json", "galois-adjunction", galois, gset)
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True

    proc = run_cli(
        "--format", "json", "galois-adjunction", galois, os.path.join(DATA, "F4dual.json")
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True
