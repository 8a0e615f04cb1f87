"""JSON interchange formats and canonical report serialization.

Every document carries {"schema": "coalgkit/1", "type": ...}.  Field
elements are strings in the field's display syntax ("3/4", "2", "x+1");
matrices are {"rows": r, "cols": c, "entries": [[..row..], ..]}.  A
coalgebra stores its coproduct as a list of columns (one per basis vector,
each of length dim^2) plus the counit row.  Reports are dumped with sorted
keys and fixed separators, so identical inputs and seeds produce
byte-identical output.
"""

import json

from .coalgebra import ArtinAlgebra, Coalgebra, CoalgebraMorphism
from .day import DayCoalgebra, DayPresheaf, DayTensor, LinearMonoidalCategory, NatTransform
from .dayclosure import SubPresheaf
from .errors import ParseError
from .fields import field_from_json
from .galois import FiniteGSet, GaloisDatum
from .linalg import Matrix, Subspace

SCHEMA = "coalgkit/1"


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _header(kind):
    return {"schema": SCHEMA, "type": kind}


def _expect(obj, kind):
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object for {kind}")
    if obj.get("schema") != SCHEMA:
        raise ParseError(f"missing or unsupported schema (want {SCHEMA!r})")
    if obj.get("type") != kind:
        raise ParseError(f"expected type {kind!r}, found {obj.get('type')!r}")


def _require(ok, name, want):
    """Raise a ParseError naming the document field unless ok."""
    if not ok:
        raise ParseError(f"{name} must be {want}")


def _is_strings(value):
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _is_int_rows(value):
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(i) is int for i in row) for row in value
    )


# -- matrices and vectors -------------------------------------------------


def matrix_to_json(M):
    F = M.field
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [[F.format(a) for a in row] for row in M.data],
    }


def matrix_from_json(field, obj):
    try:
        rows, cols = obj["rows"], obj["cols"]
        entries = obj["entries"]
        _require(isinstance(entries, list) and all(map(_is_strings, entries)),
                 "matrix 'entries'", "a list of rows of strings")
        data = [[field.parse(s) for s in row] for row in entries]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad matrix: {exc}") from None
    return Matrix(field, rows, cols, data)


def vector_to_json(field, vec):
    return [field.format(a) for a in vec]


def vector_from_json(field, obj):
    _require(_is_strings(obj), "vector", "a list of strings")
    return [field.parse(s) for s in obj]


# -- core entities ---------------------------------------------------------


def coalgebra_to_json(C):
    F = C.field
    out = _header("coalgebra")
    out["field"] = F.to_json()
    out["dim"] = C.dim
    out["delta"] = [
        [F.format(C.delta.data[r][j]) for r in range(C.dim * C.dim)]
        for j in range(C.dim)
    ]
    out["epsilon"] = vector_to_json(F, C.epsilon.row(0))
    return out


def _check_coalgebra_types(obj):
    """JSON types of a coalgebra document, checked before anything is built,
    so that a mistyped field is a parse error naming it."""
    spec = obj.get("field")
    _require(isinstance(spec, dict), "'field'", "an object")
    if spec.get("kind") in ("Fp", "Fq"):
        _require(type(spec.get("p")) is int, "'field.p'", "an integer")
    if spec.get("kind") == "Fq":
        modulus = spec.get("modulus")
        _require(isinstance(modulus, list) and all(type(c) is int for c in modulus),
                 "'field.modulus'", "a list of integers")
    _require(type(obj.get("dim")) is int, "'dim'", "an integer")
    cols = obj.get("delta")
    _require(isinstance(cols, list) and all(map(_is_strings, cols)),
             "'delta'", "a list of columns of strings")
    _require(_is_strings(obj.get("epsilon")), "'epsilon'", "a list of strings")


def coalgebra_from_json(obj):
    _expect(obj, "coalgebra")
    _check_coalgebra_types(obj)
    field = field_from_json(obj["field"])
    n = obj["dim"]
    cols = obj["delta"]
    if len(cols) != n or any(len(c) != n * n for c in cols):
        raise ParseError("delta must hold dim columns of dim^2 entries")
    delta = Matrix(
        field, n * n, n,
        [[field.parse(cols[j][r]) for j in range(n)] for r in range(n * n)],
    )
    eps = Matrix(field, 1, n, [vector_from_json(field, obj["epsilon"])])
    return Coalgebra(field, n, delta, eps)


def algebra_from_json(obj):
    _expect(obj, "algebra")
    field = field_from_json(obj["field"])
    return ArtinAlgebra(
        field,
        obj["dim"],
        matrix_from_json(field, obj["mult"]),
        vector_from_json(field, obj["unit"]),
    )


def morphism_to_json(phi, source_name=None, target_name=None):
    out = _header("morphism")
    out["source"] = source_name if source_name else coalgebra_to_json(phi.source)
    out["target"] = target_name if target_name else coalgebra_to_json(phi.target)
    out["matrix"] = matrix_to_json(phi.matrix)
    return out


def morphism_from_json(obj, resolve=None):
    """resolve: name -> Coalgebra for by-name source/target references."""
    _expect(obj, "morphism")

    def entity(spec):
        if isinstance(spec, str):
            if resolve is None:
                raise ParseError(f"no workspace to resolve name {spec!r}")
            return resolve(spec)
        return coalgebra_from_json(spec)

    source = entity(obj["source"])
    target = entity(obj["target"])
    matrix = matrix_from_json(source.field, obj["matrix"])
    return CoalgebraMorphism(source, target, matrix)


def subspace_from_json(obj, field=None):
    _expect(obj, "subspace")
    _require(type(obj.get("ambient")) is int, "'ambient'", "an integer")
    _require(isinstance(obj.get("vectors"), list), "'vectors'", "a list")
    field = field or field_from_json(obj["field"])
    return Subspace.from_vectors(
        field, obj["ambient"], [vector_from_json(field, v) for v in obj["vectors"]]
    )


# -- Galois data ------------------------------------------------------------


def galois_to_json(D):
    out = _header("galois")
    out["base"] = D.base.to_json()
    out["extension"] = {
        "dim": D.L.dim,
        "mult": matrix_to_json(D.L.mult),
        "unit": vector_to_json(D.base, D.L.unit),
    }
    out["automorphisms"] = [matrix_to_json(M) for M in D.automorphisms]
    out["table"] = [list(r) for r in D.table]
    return out


def galois_from_json(obj):
    _expect(obj, "galois")
    _require(_is_int_rows(obj.get("table")), "'table'", "a list of integer lists")
    ext = obj.get("extension")
    _require(isinstance(ext, dict), "'extension'", "an object")
    _require(type(ext.get("dim")) is int, "'extension.dim'", "an integer")
    _require(isinstance(obj.get("automorphisms"), list), "'automorphisms'", "a list")
    base = field_from_json(obj["base"])
    L = ArtinAlgebra(
        base,
        ext["dim"],
        matrix_from_json(base, ext["mult"]),
        vector_from_json(base, ext["unit"]),
    )
    autos = [matrix_from_json(base, m) for m in obj["automorphisms"]]
    return GaloisDatum(base, L, autos, obj["table"])


def gset_to_json(X):
    out = _header("gset")
    out["size"] = X.size
    out["action"] = [list(p) for p in X.action]
    return out


def gset_from_json(obj, datum=None):
    _expect(obj, "gset")
    _require(type(obj.get("size")) is int, "'size'", "an integer")
    _require(_is_int_rows(obj.get("action")), "'action'", "a list of integer lists")
    table = datum.table if datum is not None else None
    return FiniteGSet(obj["size"], obj["action"], table)


# -- Day convolution entities ----------------------------------------------


def day_category_to_json(cat):
    fld = cat.field
    out = _header("day-category")
    out["field"] = fld.to_json()
    out["objects"] = list(cat.objects)
    out["unit"] = cat.unit
    out["tensor_obj"] = [list(r) for r in cat.tensor_obj]
    out["hom_dims"] = [[a, b, d] for (a, b), d in sorted(cat.hom_dims.items()) if d]
    out["identities"] = [
        [a, vector_to_json(fld, cat.identities[a])] for a in sorted(cat.identities)
    ]
    out["compose"] = [
        [a, b, c, [[vector_to_json(fld, v) for v in row] for row in table]]
        for (a, b, c), table in sorted(cat.compose.items())
    ]
    out["tensor_mor"] = [
        [a, b, c, d, [[vector_to_json(fld, v) for v in row] for row in table]]
        for (a, b, c, d), table in sorted(cat.tensor_mor.items())
    ]
    out["symmetry"] = [
        [a, b, vector_to_json(fld, mor[2])] for (a, b), mor in sorted(cat.symmetry.items())
    ]
    return out


def day_category_from_json(obj):
    _expect(obj, "day-category")
    fld = field_from_json(obj["field"])
    hom_dims = {(a, b): d for a, b, d in obj["hom_dims"]}
    identities = {a: vector_from_json(fld, v) for a, v in obj["identities"]}
    compose = {
        (a, b, c): [[vector_from_json(fld, v) for v in row] for row in table]
        for a, b, c, table in obj["compose"]
    }
    tensor_mor = {
        (a, b, c, d): [[vector_from_json(fld, v) for v in row] for row in table]
        for a, b, c, d, table in obj["tensor_mor"]
    }
    cat = LinearMonoidalCategory(
        fld,
        obj["objects"],
        hom_dims,
        compose,
        identities,
        [list(r) for r in obj["tensor_obj"]],
        tensor_mor,
        obj["unit"],
    )
    if "symmetry" in obj:
        cat.symmetry = {
            (a, b): (
                cat.tensor_obj[a][b],
                cat.tensor_obj[b][a],
                tuple(vector_from_json(fld, coords)),
            )
            for a, b, coords in obj["symmetry"]
        }
    return cat


def day_presheaf_to_json(F, category_name=None):
    fld = F.category.field
    out = _header("day-presheaf")
    out["category"] = category_name if category_name else day_category_to_json(F.category)
    out["dims"] = list(F.dims)
    out["actions"] = [
        [a, b, i, matrix_to_json(F.action(a, b, i))]
        for (a, b, i) in F.category.all_basis_mors()
    ]
    return out


def day_presheaf_from_json(obj, category=None, resolve=None):
    _expect(obj, "day-presheaf")
    if category is None:
        spec = obj["category"]
        if isinstance(spec, str):
            if resolve is None:
                raise ParseError(f"no workspace to resolve name {spec!r}")
            category = resolve(spec)
        else:
            category = day_category_from_json(spec)
    dims = obj.get("dims")
    _require(isinstance(dims, list) and all(type(d) is int for d in dims),
             "'dims'", "a list of integers")
    _require(isinstance(obj.get("actions"), list), "'actions'", "a list")
    fld = category.field
    actions = {
        (a, b, i): matrix_from_json(fld, m) for a, b, i, m in obj["actions"]
    }
    return DayPresheaf(category, dims, actions)


def day_coalgebra_to_json(FC, category_name=None):
    """delta is stored against the canonical coordinates of the computed
    convolution, which the deterministic quotient construction pins down."""
    out = _header("day-coalgebra")
    out["presheaf"] = day_presheaf_to_json(FC.presheaf, category_name)
    out["delta"] = [matrix_to_json(FC.delta.at(U)) for U in range(FC.category.size)]
    out["epsilon"] = [matrix_to_json(FC.epsilon.at(U)) for U in range(FC.category.size)]
    return out


def day_coalgebra_from_json(obj, category=None, resolve=None):
    _expect(obj, "day-coalgebra")
    F = day_presheaf_from_json(obj["presheaf"], category=category, resolve=resolve)
    cat = F.category
    fld = cat.field
    conv = DayTensor(F, F)
    from .day import representable

    delta = NatTransform(
        F, conv.presheaf, [matrix_from_json(fld, m) for m in obj["delta"]]
    )
    h1 = representable(cat, cat.unit)
    eps = NatTransform(F, h1, [matrix_from_json(fld, m) for m in obj["epsilon"]])
    return DayCoalgebra(F, delta, eps, conv)


def day_subpresheaf_to_json(sub):
    fld = sub.presheaf.category.field
    out = _header("day-subpresheaf")
    out["spaces"] = [
        [vector_to_json(fld, v) for v in s.vectors()] for s in sub.spaces
    ]
    return out


def day_subpresheaf_from_json(obj, presheaf):
    _expect(obj, "day-subpresheaf")
    spaces = obj.get("spaces")
    _require(isinstance(spaces, list) and all(isinstance(v, list) for v in spaces),
             "'spaces'", "a list of vector lists")
    fld = presheaf.category.field
    assignment = {
        U: [vector_from_json(fld, v) for v in vecs]
        for U, vecs in enumerate(spaces)
    }
    return SubPresheaf.from_vectors(presheaf, assignment)


# -- generic load ------------------------------------------------------------

_PARSERS = {
    "coalgebra": lambda obj: coalgebra_from_json(obj),
    "algebra": lambda obj: algebra_from_json(obj),
    "galois": lambda obj: galois_from_json(obj),
    "gset": lambda obj: gset_from_json(obj),
    "day-category": lambda obj: day_category_from_json(obj),
    "subspace": lambda obj: subspace_from_json(obj),
}


def load_document(text, path="<string>"):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError(f"{path}: not a coalgkit document")
    return obj


def parse_entity(obj, resolve=None):
    kind = obj.get("type")
    if kind == "morphism":
        return morphism_from_json(obj, resolve=resolve)
    if kind == "day-presheaf":
        return day_presheaf_from_json(obj, resolve=resolve)
    if kind == "day-coalgebra":
        return day_coalgebra_from_json(obj, resolve=resolve)
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ParseError(f"unknown entity type {kind!r}")
    return parser(obj)
