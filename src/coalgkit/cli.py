"""Command-line front end.

Subcommands parse the JSON interchange documents, dispatch to the kernel and
emit a report in text or canonical JSON (identical inputs and seed give
byte-identical output).  Exit codes: 0 success, 2 parse error, 3 validation
error, 4 computation error.

Only the parsing layer is imported up front; each subcommand imports the
kernel modules it runs, so a cold process loads no module it does not use.
"""

import argparse
import os
import sys

from . import jsonio
from .coalgebra import Coalgebra, generated_subcoalgebra, validate
from .errors import (
    CoalgkitError,
    ComputationError,
    ParseError,
    ValidationError,
)
from .linalg import Matrix, Subspace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_COMPUTATION = 4


class Workspace:
    """Named entities loaded from files; names are unique and every entity
    is validated on load."""

    def __init__(self):
        self.entities = {}

    def add(self, name, entity):
        if name in self.entities:
            raise ParseError(f"duplicate workspace name {name!r}")
        _validate_entity(entity)
        self.entities[name] = entity

    def resolve(self, name):
        if name not in self.entities:
            raise ParseError(f"unknown workspace name {name!r}")
        return self.entities[name]


def _violations(entity):
    """Axiom violations of a parsed entity; empty means valid.

    Day categories, presheaves and coalgebras, Galois data and G-sets carry
    their own validate(), so recognising them imports none of their modules;
    coalgebras, morphisms and algebras go through coalgebra.validate, which
    refuses anything else."""
    own = getattr(entity, "validate", None)
    return own() if own is not None else validate(entity)


def _validate_entity(entity):
    if isinstance(entity, Subspace):
        return  # a span has no axioms
    bad = _violations(entity)
    if bad:
        raise ValidationError(f"invalid {type(entity).__name__}: {bad[:4]}")


def _of_kind(entity, *kinds):
    """entity, if it is one of kinds; otherwise a parse error naming them."""
    if not isinstance(entity, kinds):
        want = " or ".join(k.__name__ for k in kinds)
        raise ParseError(f"expected an argument of type {want}, got {type(entity).__name__}")
    return entity


def _read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return jsonio.load_document(text, path)


def _load_file(path, workspace=None, check=True):
    obj = _read_document(path)
    resolve = workspace.resolve if workspace else None
    entity = jsonio.parse_entity(obj, resolve=resolve)
    if check:
        _validate_entity(entity)
    return entity


def _argument_entity(arg, workspace, check=True):
    if workspace and arg in workspace.entities:
        return workspace.resolve(arg)
    return _load_file(arg, workspace, check=check)


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(jsonio.canonical_json(report))
    else:
        _emit_text(report)


def _emit_text(report, indent=0):
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print(f"{pad}{key}[{i}]:")
                _emit_text(item, indent + 1)
        else:
            print(f"{pad}{key}: {value}")


def _report(kind, **fields):
    out = {"schema": jsonio.SCHEMA, "report": kind}
    out.update(fields)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="coalgkit",
        description="exact kernel for cocommutative coalgebras: etale "
        "decomposition, Galois descent, Day convolution",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed of the suite corpora only, not of "
                        "the kernel's searches (fallback: COALG_KERNEL_SEED, then 0)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--degree-cap", type=_positive_int, default=None,
                        help="rational factorization degree cap (default: factor.DEFAULT_DEGREE_CAP)")
    parser.add_argument("--load", action="append", default=[], metavar="NAME=PATH", help="preload a named entity")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, nargs in [
        ("validate", "check the axioms of an entity", 1),
        ("etale", "simple subcoalgebras, etale part and retraction", 1),
        ("decompose", "irreducible components / dual local decomposition", 1),
        ("grouplikes", "group-like elements", 1),
        ("retract", "the coalgebra retraction onto the etale part", 1),
        ("subgen", "subcoalgebra generated by a subspace", 2),
        ("adjunction-gp", "pointwise/group-like adjunction checks", 1),
        ("galois-functor", "value of the equivariant-functions coalgebra functor", 2),
        ("galois-adjunction", "unit/counit checks for the Galois adjunction", 2),
        ("day-convolve", "Day convolution of two presheaves", 3),
        ("day-hom", "internal hom of two presheaves", 3),
        ("day-subgen", "generated Day subcoalgebra", 2),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("args", nargs=nargs)

    p = sub.add_parser("suite", help="run the verification suites")
    p.add_argument("--suite", action="append", dest="suites", metavar="NAME",
                   help="run only this suite (repeatable; an unknown name lists the suites)")

    opts = parser.parse_args(argv)

    saved_cap = None
    if opts.degree_cap is not None:
        # the cap holds for this call only: an in-process caller keeps its default
        from . import factor

        saved_cap, factor.DEFAULT_DEGREE_CAP = factor.DEFAULT_DEGREE_CAP, opts.degree_cap
    try:
        seed = _seed(opts.seed)
        workspace = Workspace()
        for item in opts.load:
            name, _, path = item.partition("=")
            if not path:
                raise ParseError(f"--load expects NAME=PATH, got {item!r}")
            workspace.add(name, _load_file(path, workspace))
        report = _dispatch(opts, workspace, seed)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ComputationError, CoalgkitError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    finally:
        if saved_cap is not None:
            factor.DEFAULT_DEGREE_CAP = saved_cap
    _emit(report, opts.format)
    return EXIT_OK if report.get("ok", True) else EXIT_VALIDATION


def _positive_int(text):
    """An integer of at least 1: a cap below 1 refuses every rational
    factoring, linear ones included."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(option):
    """--seed if given, else COALG_KERNEL_SEED, else 0."""
    if option is not None:
        return option
    text = os.environ.get("COALG_KERNEL_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"COALG_KERNEL_SEED must be an integer, got {text!r}") from None


def _dispatch(opts, workspace, seed):
    cmd = opts.command
    if cmd == "suite":
        from .suites import SUITES, run_all

        unknown = [name for name in opts.suites or () if name not in SUITES]
        if unknown:
            raise ParseError(f"unknown suite {unknown[0]!r}; the suites are {', '.join(SUITES)}")
        result = run_all(seed, opts.suites)
        result["report"] = "suite"
        return result
    simple = {
        "validate": 1, "etale": 1, "decompose": 1, "grouplikes": 1,
        "retract": 1, "subgen": 2, "galois-functor": 2, "galois-adjunction": 2,
    }
    args = []
    if cmd in simple:
        # the validate command reports violations instead of failing on load
        check = cmd != "validate"
        args = [_argument_entity(a, workspace, check=check) for a in opts.args]
    if cmd == "validate":
        entity = args[0]
        bad = _violations(entity)
        kind = type(entity).__name__
        dim = getattr(entity, "dim", None)
        return _report(
            "validate",
            ok=not bad,
            entity=kind,
            dim=dim,
            violations=[str(b) for b in bad[:10]],
        )
    if cmd == "etale":
        from .structure import etale_part

        C = _of_kind(args[0], Coalgebra)
        data = etale_part(C)
        return _report(
            "etale",
            ok=True,
            dim=C.dim,
            etale_dim=data.etale.dim,
            simple_dims=[s.dim for s, _ in data.simples],
            split=data.is_split(),
            inclusion=jsonio.matrix_to_json(data.inclusion.matrix),
            retraction=jsonio.matrix_to_json(data.retraction.matrix),
        )
    if cmd == "decompose":
        from .structure import decomposition, irreducible_components

        C = _of_kind(args[0], Coalgebra)
        comps, iso = irreducible_components(C)
        dec = decomposition(C)
        return _report(
            "decompose",
            ok=True,
            dim=C.dim,
            component_dims=[c.dim for c, _ in comps],
            residue_degrees=[c.residue.dim for c in dec.components],
            nilpotency=[c.nilpotency_index for c in dec.components],
            iso=jsonio.matrix_to_json(iso.matrix),
        )
    if cmd == "grouplikes":
        from .structure import group_likes

        C = _of_kind(args[0], Coalgebra)
        gl = group_likes(C)
        return _report(
            "grouplikes",
            ok=True,
            dim=C.dim,
            count=len(gl.elements),
            elements=[jsonio.vector_to_json(C.field, v) for v in gl.elements],
        )
    if cmd == "retract":
        from .structure import etale_part

        C = _of_kind(args[0], Coalgebra)
        data = etale_part(C)
        return _report(
            "retract",
            ok=True,
            etale_dim=data.etale.dim,
            retraction=jsonio.matrix_to_json(data.retraction.matrix),
            splits_inclusion=bool(
                data.retraction.matrix @ data.inclusion.matrix
                == Matrix.identity(C.field, data.etale.dim)
            ),
        )
    if cmd == "subgen":
        C, S = _of_kind(args[0], Coalgebra), _of_kind(args[1], Subspace)
        D, incl = generated_subcoalgebra(C, S)
        return _report(
            "subgen",
            ok=True,
            ambient_dim=C.dim,
            generated_dim=D.dim,
            coalgebra=jsonio.coalgebra_to_json(D),
            inclusion=jsonio.matrix_to_json(incl.matrix),
        )
    if cmd == "adjunction-gp":
        from .structure import gp_adjunction_checks

        C = _of_kind(_argument_entity(opts.args[0], workspace), Coalgebra)
        rep = gp_adjunction_checks(C=C)
        return _report("adjunction-gp", ok=rep["ok"], checks=[[n, v] for n, v in rep["checks"]])
    if cmd == "galois-functor":
        from .galois import FiniteGSet, GaloisDatum, kbar_functor, orbits_and_stabilizers

        D, X = _of_kind(args[0], GaloisDatum), _of_kind(args[1], FiniteGSet)
        X = FiniteGSet(X.size, X.action, D.table)
        k = kbar_functor(D, X)
        orbits = orbits_and_stabilizers(D, X)
        return _report(
            "galois-functor",
            ok=True,
            gset_size=X.size,
            orbit_sizes=[len(o) for o, _, _ in orbits],
            stabilizer_orders=[len(s) for _, s, _ in orbits],
            coalgebra=jsonio.coalgebra_to_json(k.coalgebra),
        )
    if cmd == "galois-adjunction":
        from .galois import FiniteGSet, GaloisDatum, adjunction_checks

        D, other = _of_kind(args[0], GaloisDatum), _of_kind(args[1], FiniteGSet, Coalgebra)
        if isinstance(other, FiniteGSet):
            other = FiniteGSet(other.size, other.action, D.table)
            rep = adjunction_checks(D, X=other)
        else:
            rep = adjunction_checks(D, C=other)
        return _report(
            "galois-adjunction", ok=rep["ok"], checks=[[n, v] for n, v in rep["checks"]]
        )
    if cmd == "day-convolve":
        from .day import day_convolve

        cat, F, G = _day_triple(opts.args, workspace)
        T = day_convolve(F, G)
        verification = {
            "presheaf-valid": not T.presheaf.validate(),
            "dims": T.presheaf.dims,
        }
        return _report(
            "day-convolve",
            ok=verification["presheaf-valid"],
            convolution=jsonio.day_presheaf_to_json(T.presheaf, category_name="category"),
            verification=verification,
        )
    if cmd == "day-hom":
        from .day import internal_hom

        cat, F, G = _day_triple(opts.args, workspace)
        IH = internal_hom(F, G)
        return _report(
            "day-hom",
            ok=not IH.presheaf.validate(),
            hom=jsonio.day_presheaf_to_json(IH.presheaf, category_name="category"),
        )
    if cmd == "day-subgen":
        from .day import DayCoalgebra
        from .dayclosure import generated_day_subcoalgebra

        FC = _of_kind(_argument_entity(opts.args[0], workspace), DayCoalgebra)
        sub0 = jsonio.day_subpresheaf_from_json(_read_document(opts.args[1]), FC.presheaf)
        subc, incl, spaces = generated_day_subcoalgebra(FC, sub0)
        return _report(
            "day-subgen",
            ok=not subc.validate(),
            dims=spaces.dims(),
            subcoalgebra=jsonio.day_coalgebra_to_json(subc, category_name="category"),
        )
    raise ParseError(f"unknown command {cmd!r}")


def _day_triple(paths, workspace):
    from .day import LinearMonoidalCategory

    cat = _of_kind(_argument_entity(paths[0], workspace), LinearMonoidalCategory)
    fs = []
    for p in paths[1:]:
        fs.append(jsonio.day_presheaf_from_json(_read_document(p), category=cat))
    for F in fs:
        bad = F.validate()
        if bad:
            raise ValidationError(f"invalid presheaf: {bad[:4]}")
    return cat, fs[0], fs[1]


if __name__ == "__main__":
    sys.exit(main())
