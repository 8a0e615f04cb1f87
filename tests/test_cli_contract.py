"""The CLI contract on any input: exit 0/2/3/4, never a traceback.

Also the process boundary of a cold start: which kernel modules each
subcommand loads, the lazily resolved package names, a resource bound that
stays inside one `main()` call, and declared sizes that are checked against
the data before anything is allocated.
"""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys

import pytest

import coalgkit
from coalgkit import cli, factor

DATA = os.path.join(os.path.dirname(__file__), "..", "demos", "data")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# the public names of coalgkit, as the package exported them when it imported
# every module eagerly
EXPORTS = {
    "ArtinAlgebra", "Coalgebra", "CoalgebraMorphism", "CoalgebraPresheaf", "DayCoalgebra",
    "DayPresheaf", "EtaleData", "Field", "FieldDatum", "FieldElement", "FiniteCategory",
    "FiniteGSet", "GF", "GaloisDatum", "GroupLikeSet", "LinearMonoidalCategory",
    "LocalDecomposition", "Matrix", "Polynomial", "QQ", "SetPresheaf", "SubPresheaf",
    "Subspace", "adjunction_checks", "coequalizer", "day_convolve", "decomposition",
    "diagonal_coalgebra", "direct_sum", "dual_algebra", "dual_coalgebra", "etale_part",
    "etale_subpresheaf", "factor_polynomial", "field_arith", "field_from_json", "fixed_field",
    "frobenius_galois_datum", "generated_day_subcoalgebra", "generated_subcoalgebra",
    "gp_adjunction_checks", "group_likes", "hensel_lift_root", "internal_hom",
    "invariant_closure", "irreducible_components", "kbar_functor", "kernel", "kronecker",
    "local_decomposition", "minimal_polynomial", "naturality_suite", "orbits_and_stabilizers",
    "polynomial_quotient_algebra", "presheaf_gp_adjunction", "pure_closure", "pushout",
    "quotient", "radical", "representable", "right_adjoint_R", "roots_in_field", "rref",
    "separate_by_generator", "sub", "subspace_ops", "tensor", "tensor_swap",
    "trivial_coalgebra", "validate", "wedderburn_splitting",
}


def _path(name):
    return os.path.join(DATA, name)


def _child_env():
    """The environment of a fresh interpreter that imports coalgkit from src/."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run(argv):
    """cli.main in-process: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# -- package names -------------------------------------------------------------


def test_public_names_resolve_lazily():
    assert set(coalgkit.__all__) == EXPORTS
    assert coalgkit.__version__ == "0.1.0"
    for name in coalgkit.__all__:
        value = getattr(coalgkit, name)
        assert getattr(value, "__name__", name) == name
        # resolved on every access, never stored in the package namespace
        assert name not in vars(coalgkit)
    assert set(coalgkit.__all__) <= set(dir(coalgkit))
    with pytest.raises(AttributeError):
        coalgkit.no_such_name  # noqa: B018


# -- import boundary -----------------------------------------------------------

BASE = {"cli", "coalgebra", "errors", "fields", "gfpoly", "jsonio", "linalg", "polys"}
STRUCTURE = {"factor", "seeding", "structure"}
BOUNDARY = [
    (["validate", "dual_numbers.json"], BASE),
    (["etale", "dual_numbers.json"], BASE | STRUCTURE),
    # the gp-adjunction check runs the C branch, which needs no galois
    (["adjunction-gp", "dual_numbers.json"], BASE | STRUCTURE),
    (["galois-adjunction", "galois_F4.json", "F4dual.json"], BASE | STRUCTURE | {"galois"}),
    (["day-convolve", "day_cat_Z2.json", "day_F.json", "day_G.json"], BASE | {"day"}),
    (["day-subgen", "day_graded_coalg.json", "day_line_t.json"], BASE | {"day", "dayclosure"}),
    (["suite", "--suite", "bogus"], BASE | STRUCTURE | {"corpus", "day", "dayclosure", "galois",
                                                         "oracles", "suites"}),
]
CHILD = """
import contextlib, io, json, sys
from coalgkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("coalgkit."):] for m in sys.modules
                               if m.startswith("coalgkit."))]))
"""


@pytest.mark.parametrize("argv, modules", BOUNDARY, ids=[a[0] for a, _ in BOUNDARY])
def test_cold_start_loads_only_what_the_subcommand_runs(argv, modules):
    args = [_path(a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True,
                          env=_child_env(), check=False)
    code, loaded = json.loads(proc.stdout)
    assert code == (2 if "bogus" in argv else 0), proc.stderr
    assert set(loaded) == modules


# -- per-call state and environment -------------------------------------------


def test_degree_cap_lasts_one_call(tmp_path):
    # the dual of Q[t]/(t^4 + 1) factors a degree-4 polynomial
    from coalgkit import jsonio
    from coalgkit.coalgebra import dual_coalgebra, polynomial_quotient_algebra
    from coalgkit.fields import QQ
    from coalgkit.polys import Polynomial

    C = dual_coalgebra(polynomial_quotient_algebra(QQ, Polynomial.from_ints(QQ, [1, 0, 0, 0, 1])))
    path = tmp_path / "quartic.json"
    path.write_text(jsonio.canonical_json(jsonio.coalgebra_to_json(C)), encoding="utf-8")
    before = factor.DEFAULT_DEGREE_CAP
    assert _run(["--degree-cap", "3", "etale", str(path)])[0] == 4
    assert factor.DEFAULT_DEGREE_CAP == before
    assert _run(["etale", str(path)])[0] == 0


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_degree_cap_below_one_is_a_usage_error(cap):
    """A cap below 1 would refuse every rational factoring, linear ones
    included, so argparse rejects it (exit 2); a cap of 1 is taken as it is."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(["--degree-cap", cap, "etale", _path("Qi_dual.json")])
    assert exc.value.code == 2
    assert f"--degree-cap: must be a positive integer, got '{cap}'" in err.getvalue()
    # Q(i) factors t - 1, then a quadratic
    code, err = _run(["--degree-cap", "1", "etale", _path("Qi_dual.json")])
    assert (code, err) == (4, "computation error: degree 2 exceeds rational factorization cap 1\n")


def test_gset_over_the_kbar_cap_exits_4_before_building_it(monkeypatch, tmp_path):
    """A G-set whose equivariant function algebra has dimension m above
    galois.KBAR_DIM_CAP is refused before the dense m x (dim L |X|) basis
    and the m x m^2 coproduct are built.  F_4/F_2 swaps the points 2i and
    2i + 1, and fixes the last one when m is odd: each free orbit adds
    dim L = 2 to m and the fixed point dim F_2 = 1."""
    import time

    from coalgkit import galois
    from coalgkit.errors import KbarDimensionExceeded

    def gset(m):
        path = tmp_path / f"gset-{m}.json"
        action = [list(range(m)), [i ^ 1 for i in range(m - m % 2)] + [m - 1] * (m % 2)]
        path.write_text(json.dumps({"schema": "coalgkit/1", "type": "gset", "size": m, "action": action}),
                        encoding="utf-8")
        return str(path)

    def unbuilt(*args):
        raise AssertionError("a fixed field was built")

    cap = galois.KBAR_DIM_CAP
    assert issubclass(KbarDimensionExceeded, cli.ComputationError)
    assert _run(["galois-functor", _path("galois_F4.json"), gset(cap)]) == (0, "")
    over = gset(cap + 1)
    monkeypatch.setattr(galois, "fixed_field", unbuilt)
    for command in ("galois-functor", "galois-adjunction"):
        start = time.perf_counter()
        code, err = _run([command, _path("galois_F4.json"), over])
        assert time.perf_counter() - start < 1
        assert (code, err) == (4, f"computation error: equivariant function algebra of dimension {cap + 1} "
                                  f"exceeds galois.KBAR_DIM_CAP = {cap}\n")


def test_malformed_seed_variable_is_a_parse_error(monkeypatch):
    monkeypatch.setenv("COALG_KERNEL_SEED", "abc")
    code, err = _run(["validate", _path("dual_numbers.json")])
    assert code == 2 and "COALG_KERNEL_SEED" in err and "'abc'" in err


def test_unknown_suite_is_a_parse_error():
    from coalgkit.suites import SUITES

    code, err = _run(["suite", "--suite", "hensel", "--suite", "bogus"])
    assert code == 2 and "'bogus'" in err
    assert all(name in err for name in SUITES)


# -- mutation sweep ------------------------------------------------------------

COALGEBRA_LINES = [[c, "{}"] for c in
                   ("validate", "etale", "decompose", "grouplikes", "retract", "adjunction-gp")]
# every demo document, and the command lines it is an argument of ({} marks it)
LINES = {
    "dual_numbers.json": COALGEBRA_LINES + [["subgen", "{}", "span_t.json"]],
    "diagonal3.json": COALGEBRA_LINES,
    "dual_numbers_algebra.json": [["validate", "{}"]],
    "F4dual.json": COALGEBRA_LINES + [["galois-adjunction", "galois_F4.json", "{}"]],
    "span_t.json": [["subgen", "dual_numbers.json", "{}"], ["validate", "{}"]],
    "galois_F4.json": [["validate", "{}"], ["galois-functor", "{}", "gset_regular.json"],
                       ["galois-adjunction", "{}", "gset_regular.json"],
                       ["galois-adjunction", "{}", "F4dual.json"]],
    "gset_regular.json": [["validate", "{}"], ["galois-functor", "galois_F4.json", "{}"],
                          ["galois-adjunction", "galois_F4.json", "{}"],
                          ["galois-adjunction", "galois_Qi.json", "{}"]],
    "galois_Qi.json": [["validate", "{}"], ["galois-functor", "{}", "gset_regular.json"],
                       ["galois-adjunction", "{}", "gset_regular.json"],
                       ["galois-adjunction", "{}", "Qi_dual.json"]],
    "Qi_dual.json": COALGEBRA_LINES + [["galois-adjunction", "galois_Qi.json", "{}"]],
    "day_cat_Z2.json": [["validate", "{}"], ["day-convolve", "{}", "day_F.json", "day_G.json"],
                        ["day-hom", "{}", "day_F.json", "day_G.json"]],
    "day_F.json": [["validate", "{}"], ["day-convolve", "day_cat_Z2.json", "{}", "day_G.json"],
                   ["day-hom", "day_cat_Z2.json", "{}", "day_G.json"]],
    "day_G.json": [["validate", "{}"], ["day-convolve", "day_cat_Z2.json", "day_F.json", "{}"],
                   ["day-hom", "day_cat_Z2.json", "day_F.json", "{}"]],
    "day_cat_poset2.json": [["validate", "{}"],
                            ["day-convolve", "{}", "day_poset_F.json", "day_poset_G.json"],
                            ["day-hom", "{}", "day_poset_F.json", "day_poset_G.json"]],
    "day_poset_F.json": [["validate", "{}"],
                         ["day-convolve", "day_cat_poset2.json", "{}", "day_poset_G.json"]],
    "day_poset_G.json": [["validate", "{}"],
                         ["day-convolve", "day_cat_poset2.json", "day_poset_F.json", "{}"]],
    "day_graded_coalg.json": [["validate", "{}"], ["day-subgen", "{}", "day_line_t.json"]],
    "day_line_t.json": [["day-subgen", "day_graded_coalg.json", "{}"]],
}
# replacement values; sizes stay small so that an unchecked size cannot
# allocate much (the declared-size test below runs under a memory limit)
VALUES = [None, [], {}, "", "x", "1/0", 0, -1, 2, 3, 1.5, True, [[]], [0], ["1"], [[0, 0]]]
DELETE = object()


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_every_demo_document_has_command_lines():
    names = {n for n in os.listdir(DATA) if n.endswith(".json") and n != "garbage.json"}
    assert set(LINES) == names


def test_one_field_mutations_keep_the_exit_contract(tmp_path):
    """Every field of every demo document, replaced by a seeded bad value or
    deleted, through a seeded one of its command lines."""
    rng = random.Random(0)
    runs = 0
    for name, lines in sorted(LINES.items()):
        with open(_path(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        target = tmp_path / name
        for path in _paths(doc):
            value = rng.choice(VALUES + [DELETE])
            target.write_text(json.dumps(_mutated(doc, path, value)), encoding="utf-8")
            line = rng.choice(lines)
            argv = ["--format", "json", line[0]] + [
                str(target) if a == "{}" else _path(a) for a in line[1:]]
            code, err = _run(argv)
            assert code in (0, 2, 3, 4), (name, path, value, line)
            assert "Traceback" not in err
            runs += 1
    assert runs > 700


def test_any_document_in_any_argument_position_keeps_the_exit_contract():
    """Each demo document in each argument position of each command line,
    given as a path and as a --load workspace name."""
    names = sorted(n for n in os.listdir(DATA) if n.endswith(".json"))
    lines = {}  # one well-formed command line per subcommand
    for doc, doc_lines in sorted(LINES.items()):
        for line in doc_lines:
            lines.setdefault(line[0], [doc if a == "{}" else a for a in line])
    assert len(lines) == 12
    for line in lines.values():
        for pos in range(1, len(line)):
            for name in names:
                args = [_path(name if i == pos else a) for i, a in enumerate(line) if i]
                for preload in ([], ["--load", f"X={args[pos - 1]}"]):
                    if preload:
                        args[pos - 1] = "X"
                    code, err = _run(preload + [line[0], *args])
                    assert code in (0, 2, 3, 4), (line, pos, name, preload)
                    assert "Traceback" not in err


# -- declared sizes under a memory limit ---------------------------------------

LIMITED = """
import contextlib, io, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from coalgkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(main(sys.argv[1:]))
"""
HUGE = 10**9


@pytest.mark.parametrize("name, path, argv", [
    ("gset_regular.json", ("size",), ["galois-functor", "galois_F4.json", "{}"]),
    ("day_F.json", ("dims", 0), ["day-convolve", "day_cat_Z2.json", "{}", "day_G.json"]),
    ("day_F.json", ("actions", 0, 3, "rows"), ["validate", "{}"]),
    ("day_cat_Z2.json", ("hom_dims", 0, 2), ["validate", "{}"]),
], ids=["gset-size", "presheaf-dims", "presheaf-action-rows", "category-hom-dim"])
def test_declared_sizes_are_checked_before_allocation(tmp_path, name, path, argv):
    """A declared size of 10^9 that the data does not back is a parse error,
    found before anything of that size is allocated (the child runs with a
    1 GiB address-space limit, so an allocation would fail as MemoryError)."""
    with open(_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    target = tmp_path / name
    target.write_text(json.dumps(_mutated(doc, path, HUGE)), encoding="utf-8")
    args = [str(target) if a == "{}" else _path(a) for a in argv[1:]]
    proc = subprocess.run([sys.executable, "-c", LIMITED, argv[0], *args], capture_output=True,
                          text=True, env=_child_env(), timeout=120, check=False)
    assert proc.returncode == 2, proc.stderr[-400:]
    assert proc.stderr.startswith("parse error")
