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
from .errors import ParseError
from .fields import field_from_json
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


def _is_index(value, n):
    return type(value) is int and 0 <= value < n


def _is_entries(value, width, ok):
    """A list of lists of `width` items, each satisfying ok."""
    return isinstance(value, list) and all(
        isinstance(e, list) and len(e) == width and all(map(ok, e)) for e in value
    )


def _is_vector(value, n):
    return _is_strings(value) and len(value) == n


def _is_table(value, rows, cols, n):
    """rows x cols coordinate vectors of length n (a bilinear structure table)."""
    return isinstance(value, list) and len(value) == rows and all(
        isinstance(row, list) and len(row) == cols and all(_is_vector(v, n) for v in row)
        for row in value
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
    return Matrix.checked(field, rows, cols, data)


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
    delta = Matrix.checked(
        field, n * n, n,
        [[field.parse(cols[j][r]) for j in range(n)] for r in range(n * n)],
    )
    eps = Matrix.checked(field, 1, n, [vector_from_json(field, obj["epsilon"])])
    return Coalgebra(field, n, delta, eps)


def algebra_from_json(obj):
    _expect(obj, "algebra")
    _require(type(obj.get("dim")) is int, "'dim'", "an integer")
    field = field_from_json(obj.get("field"))
    return ArtinAlgebra(
        field,
        obj["dim"],
        matrix_from_json(field, obj.get("mult")),
        vector_from_json(field, obj.get("unit")),
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

    def entity(name):
        spec = obj.get(name)
        if not isinstance(spec, str):
            return coalgebra_from_json(spec)
        if resolve is None:
            raise ParseError(f"no workspace to resolve name {spec!r}")
        found = resolve(spec)
        _require(isinstance(found, Coalgebra), f"'{name}'", "the name of a coalgebra")
        return found

    source = entity("source")
    target = entity("target")
    matrix = matrix_from_json(source.field, obj["matrix"])
    return CoalgebraMorphism(source, target, matrix)


def subspace_from_json(obj):
    _expect(obj, "subspace")
    _require(type(obj.get("ambient")) is int, "'ambient'", "an integer")
    _require(isinstance(obj.get("vectors"), list), "'vectors'", "a list")
    field = field_from_json(obj.get("field"))
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
    from .galois import GaloisDatum

    _expect(obj, "galois")
    _require(_is_int_rows(obj.get("table")), "'table'", "a list of integer lists")
    ext = obj.get("extension")
    _require(isinstance(ext, dict), "'extension'", "an object")
    _require(type(ext.get("dim")) is int, "'extension.dim'", "an integer")
    _require(isinstance(obj.get("automorphisms"), list), "'automorphisms'", "a list")
    base = field_from_json(obj.get("base"))
    L = ArtinAlgebra(
        base,
        ext["dim"],
        matrix_from_json(base, ext.get("mult")),
        vector_from_json(base, ext.get("unit")),
    )
    autos = [matrix_from_json(base, m) for m in obj["automorphisms"]]
    return GaloisDatum(base, L, autos, obj["table"])


def gset_to_json(X):
    out = _header("gset")
    out["size"] = X.size
    out["action"] = [list(p) for p in X.action]
    return out


def gset_from_json(obj, datum=None):
    from .galois import FiniteGSet

    _expect(obj, "gset")
    _require(type(obj.get("size")) is int, "'size'", "an integer")
    _require(_is_int_rows(obj.get("action")), "'action'", "a list of integer lists")
    _require(all(len(p) == obj["size"] for p in obj["action"]),
             "'size'", "the length of every permutation in 'action'")
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


def _check_day_category_types(obj):
    """JSON types and sizes of a day-category document, checked before
    anything is built.  Every index names an object, every coordinate vector
    has the length of its hom space, and every nonzero hom dimension d(a, b)
    is pinned by the data: the table composing hom(a, b) with the identity
    of b, which a category must have, has d(a, b) columns."""
    objects = obj.get("objects")
    _require(isinstance(objects, list), "'objects'", "a list")
    m = len(objects)

    def is_object(v):
        return _is_index(v, m)

    _require(is_object(obj.get("unit")), "'unit'", "an object index")
    tensor = obj.get("tensor_obj")
    _require(isinstance(tensor, list) and len(tensor) == m and _is_entries(tensor, m, is_object),
             "'tensor_obj'", "a square table of object indices")
    hom_dims = obj.get("hom_dims")
    _require(_is_entries(hom_dims, 3, lambda v: type(v) is int)
             and all(is_object(a) and is_object(b) and d >= 0 for a, b, d in hom_dims),
             "'hom_dims'", "a list of [a, b, dim] with object indices a, b")
    dims = {(a, b): d for a, b, d in hom_dims}

    def hom(a, b):
        return dims.get((a, b), 0)

    identities = obj.get("identities")
    _require(isinstance(identities, list)
             and all(isinstance(e, list) and len(e) == 2 and is_object(e[0])
                     and _is_vector(e[1], hom(e[0], e[0])) for e in identities)
             and sorted(e[0] for e in identities) == list(range(m)),
             "'identities'", "one [object, coordinates] entry per object")
    compose = obj.get("compose")
    _require(isinstance(compose, list)
             and all(isinstance(e, list) and len(e) == 4 and all(map(is_object, e[:3]))
                     and _is_table(e[3], hom(e[1], e[2]), hom(e[0], e[1]), hom(e[0], e[2]))
                     for e in compose),
             "'compose'", "a list of [a, b, c, table], hom(b, c) x hom(a, b) coordinate vectors")
    with_identity = {(a, b) for a, b, c, _ in compose if b == c}
    _require(all(d == 0 or (a, b) in with_identity for (a, b), d in dims.items()),
             "'hom_dims'", "backed by a compose table [a, b, b] for every nonzero entry")
    tensor_mor = obj.get("tensor_mor")
    _require(isinstance(tensor_mor, list)
             and all(isinstance(e, list) and len(e) == 5 and all(map(is_object, e[:4]))
                     and _is_table(e[4], hom(e[0], e[1]), hom(e[2], e[3]),
                                   hom(tensor[e[0]][e[2]], tensor[e[1]][e[3]]))
                     for e in tensor_mor),
             "'tensor_mor'", "a list of [a, b, c, d, table], hom(a, b) x hom(c, d) coordinate vectors")
    if "symmetry" in obj:
        symmetry = obj["symmetry"]
        pairs = [(a, b) for a in range(m) for b in range(m)]
        _require(isinstance(symmetry, list)
                 and all(isinstance(e, list) and len(e) == 3 and is_object(e[0]) and is_object(e[1])
                         and _is_vector(e[2], hom(tensor[e[0]][e[1]], tensor[e[1]][e[0]]))
                         for e in symmetry)
                 and sorted((e[0], e[1]) for e in symmetry) == pairs,
                 "'symmetry'", "one [a, b, coordinates] entry per pair of objects")


def day_category_from_json(obj):
    from .day import LinearMonoidalCategory

    _expect(obj, "day-category")
    _check_day_category_types(obj)
    fld = field_from_json(obj.get("field"))
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
    tensor_obj = [list(r) for r in obj["tensor_obj"]]
    symmetry = None
    if "symmetry" in obj:
        symmetry = {
            (a, b): (tensor_obj[a][b], tensor_obj[b][a], tuple(vector_from_json(fld, coords)))
            for a, b, coords in obj["symmetry"]
        }
    return LinearMonoidalCategory(
        fld,
        obj["objects"],
        hom_dims,
        compose,
        identities,
        tensor_obj,
        tensor_mor,
        obj["unit"],
        symmetry,
    )


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
    from .day import DayPresheaf, LinearMonoidalCategory

    _expect(obj, "day-presheaf")
    if category is None:
        spec = obj.get("category")
        if isinstance(spec, str):
            if resolve is None:
                raise ParseError(f"no workspace to resolve name {spec!r}")
            category = resolve(spec)
            _require(isinstance(category, LinearMonoidalCategory),
                     "'category'", "the name of a day-category")
        else:
            category = day_category_from_json(spec)
    dims = obj.get("dims")
    _require(isinstance(dims, list) and len(dims) == category.size
             and all(type(d) is int and d >= 0 for d in dims),
             "'dims'", "one non-negative integer per object")
    entries = obj.get("actions")

    def is_action(e):
        """[a, b, i, matrix] for a basis morphism i of hom(a, b), the matrix
        declared dims[a] x dims[b]"""
        return (isinstance(e, list) and len(e) == 4
                and _is_index(e[0], len(dims)) and _is_index(e[1], len(dims))
                and _is_index(e[2], category.hom_dim(e[0], e[1])) and isinstance(e[3], dict)
                and e[3].get("rows") == dims[e[0]] and e[3].get("cols") == dims[e[1]])

    _require(isinstance(entries, list) and all(map(is_action, entries)),
             "'actions'", "a list of [a, b, i, matrix] with a dims[a] x dims[b] matrix")
    # an identity acts as the identity, so a nonzero dims[a] has an endomorphism
    # action whose matrix holds the dims[a] rows it declares
    acted = {e[0] for e in entries if e[0] == e[1]}
    _require(all(d == 0 or a in acted for a, d in enumerate(dims)),
             "'dims'", "backed by an action [a, a, i] for every nonzero entry")
    fld = category.field
    actions = {(a, b, i): matrix_from_json(fld, m) for a, b, i, m in entries}
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
    from .day import DayCoalgebra, DayTensor, NatTransform, representable

    _expect(obj, "day-coalgebra")
    F = day_presheaf_from_json(obj.get("presheaf"), category=category, resolve=resolve)
    cat = F.category
    fld = cat.field
    conv = DayTensor(F, F)
    h1 = representable(cat, cat.unit)

    def components(name, target):
        """One target(U) x F(U) matrix per object U."""
        mats = obj.get(name)
        _require(isinstance(mats, list) and len(mats) == cat.size
                 and all(isinstance(m, dict) and m.get("rows") == target.dims[U]
                         and m.get("cols") == F.dims[U] for U, m in enumerate(mats)),
                 f"'{name}'", "one target(U) x F(U) matrix per object U")
        return NatTransform(F, target, [matrix_from_json(fld, m) for m in mats])

    delta = components("delta", conv.presheaf)
    eps = components("epsilon", h1)
    return DayCoalgebra(F, delta, eps, conv)


def day_subpresheaf_to_json(sub):
    fld = sub.presheaf.category.field
    out = _header("day-subpresheaf")
    out["spaces"] = [
        [vector_to_json(fld, v) for v in s.vectors()] for s in sub.spaces
    ]
    return out


def day_subpresheaf_from_json(obj, presheaf):
    from .dayclosure import SubPresheaf

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
    _require(isinstance(kind, str), "'type'", "a string")
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
