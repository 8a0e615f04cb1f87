"""The benchmark's workloads: input stream, parse, timed operation, check.

A workload turns a seed and an index into a JSON-ready input document
(`make`), parses a fresh object graph from that document (`parse`, untimed),
runs one operation on it (`run`, the only timed step) and checks the result
(`check`, untimed), returning a list of failures and a canonical JSON-ready
form of the result for the output digest.

Kernel functions are called through their module attributes (for example
`structure.etale_part`), so a wrapper installed on the module is the one
that runs.
"""

from coalgkit import coalgebra, day, dayclosure, galois, jsonio, structure
from coalgkit.linalg import Matrix

import gen

BRUTE_FORCE_BOUND = 10**4


def _etale_checks(C, data):
    failures = []
    ident = Matrix.identity(C.field, data.etale.dim)
    if not (data.retraction.matrix @ data.inclusion.matrix == ident):
        failures.append("retraction-after-inclusion")
    if coalgebra.validate(data.inclusion) or coalgebra.validate(data.retraction):
        failures.append("etale-morphisms-invalid")
    return failures


def _group_like_checks(C, data, gl):
    failures = []
    split = sum(1 for c in data.decomposition.components if c.residue.dim == 1)
    if len(gl.elements) != split:
        failures.append("group-likes-vs-components")
    order = C.field.order
    if order is not None and order**C.dim <= BRUTE_FORCE_BOUND:
        brute = structure.brute_force_group_likes(C)
        if {tuple(v) for v in gl.elements} != {tuple(v) for v in brute.elements}:
            failures.append("group-likes-vs-brute-force")
    return failures


def _etale_json(C, data):
    return {
        "etale_dim": data.etale.dim,
        "inclusion": jsonio.matrix_to_json(data.inclusion.matrix),
        "retraction": jsonio.matrix_to_json(data.retraction.matrix),
    }


class StructureQ:
    """All views of one rational coalgebra."""

    name = "structure-q"
    make = staticmethod(gen.structure_q_input)
    strata = len(gen.RECIPES)

    @staticmethod
    def parse(doc):
        return jsonio.coalgebra_from_json(doc["coalgebra"])

    @staticmethod
    def run(C):
        data = structure.etale_part(C)
        comps, iso = structure.irreducible_components(C)
        gl = structure.group_likes(C, data)
        gp = structure.gp_adjunction_checks(C=C)
        return data, comps, iso, gl, gp

    @staticmethod
    def check(C, result, index):
        data, comps, iso, gl, gp = result
        failures = _etale_checks(C, data)
        if sum(c.dim for c, _ in comps) != C.dim:
            failures.append("component-dims")
        if iso.matrix.rank() != C.dim:
            failures.append("component-iso-rank")
        failures += _group_like_checks(C, data, gl)
        if not gp["ok"]:
            failures.append("gp-adjunction")
        canon = _etale_json(C, data)
        canon["component_dims"] = [c.dim for c, _ in comps]
        canon["iso"] = jsonio.matrix_to_json(iso.matrix)
        canon["group_likes"] = [jsonio.vector_to_json(C.field, v) for v in gl.elements]
        canon["gp_checks"] = gp["checks"]
        return failures, canon


class FiniteGalois:
    """Single etale parts over F_2/F_3/F_5, with a Galois adjunction check
    on F4/F2, F8/F2, F9/F3 or F16/F2 every GALOIS_EVERY operations."""

    name = "finite-galois"
    strata = gen.GALOIS_EVERY * 2 * len(gen.GALOIS_EXTENSIONS)

    def __init__(self):
        self._data = {}

    def make(self, seed, index):
        if not self._data:
            self._data = {name: gen.galois_datum(name) for name, _, _ in gen.GALOIS_EXTENSIONS}
        return gen.finite_galois_input(seed, index, self._data)

    @staticmethod
    def parse(doc):
        if doc["op"] == "etale":
            return "etale", jsonio.coalgebra_from_json(doc["coalgebra"])
        D = jsonio.galois_from_json(doc["galois"])
        if "gset" in doc:
            return "gset", (D, jsonio.gset_from_json(doc["gset"], D))
        return "coalgebra", (D, jsonio.coalgebra_from_json(doc["coalgebra"]))

    @staticmethod
    def run(args):
        kind, obj = args
        if kind == "etale":
            return structure.etale_part(obj)
        D, other = obj
        if kind == "gset":
            return galois.adjunction_checks(D, X=other)
        return galois.adjunction_checks(D, C=other)

    @staticmethod
    def check(args, result, index):
        kind, obj = args
        if kind != "etale":
            return ([] if result["ok"] else ["galois-adjunction"]), {"checks": result["checks"]}
        C, data = obj, result
        gl = structure.group_likes(C, data)
        failures = _etale_checks(C, data) + _group_like_checks(C, data, gl)
        return failures, _etale_json(C, data)


HOM_TENSOR_EVERY = 4  # hom-tensor dimension check on one convolve/hom op in this many


class DayConvolution:
    """Convolutions and internal homs over three kinds of category, and
    Day closures on direct sums of the graded dual numbers."""

    name = "day-convolution"
    make = staticmethod(gen.day_input)
    strata = len(gen.DAY_OPS) * 2 * len(gen.DAY_KINDS)

    @staticmethod
    def parse(doc):
        cat = jsonio.day_category_from_json(doc["category"])
        if doc["op"] in ("day-convolve", "internal-hom"):
            fs = [jsonio.day_presheaf_from_json(doc[k], category=cat) for k in "FGH"]
            return doc["op"], doc["kind"], fs
        FC = jsonio.day_coalgebra_from_json(doc["coalgebra"], category=cat)
        return doc["op"], "graded", (FC, jsonio.day_subpresheaf_from_json(doc["seed"], FC.presheaf))

    @staticmethod
    def run(args):
        op, _, objs = args
        if op == "day-convolve":
            return day.day_convolve(objs[0], objs[1])
        if op == "internal-hom":
            return day.internal_hom(objs[1], objs[2])
        FC, M0 = objs
        if op == "day-subgen":
            return dayclosure.generated_day_subcoalgebra(FC, M0)
        return dayclosure.invariant_closure(FC, M0)

    # Validating a Day coalgebra costs more than generating it, and few
    # distinct subcoalgebras occur, so each is validated once per run
    _validated = {}

    @classmethod
    def _valid(cls, subc, canon):
        key = jsonio.canonical_json(canon)
        if key not in cls._validated:
            cls._validated[key] = not subc.validate()
        return cls._validated[key]

    @staticmethod
    def check(args, result, index):
        op, kind, objs = args
        failures = []
        if op in ("day-convolve", "internal-hom"):
            F, G, H = objs
            P = result.presheaf
            if P.validate():
                failures.append(f"{op}-invalid")
            cat = F.category
            n = cat.size
            if kind == "cyclic":
                if op == "day-convolve":
                    want = [sum(F.dims[x] * G.dims[(z - x) % n] for x in range(n)) for z in range(n)]
                else:
                    want = [sum(G.dims[x] * H.dims[(u + x) % n] for x in range(n)) for u in range(n)]
                if P.dims != want:
                    failures.append(f"{op}-graded-dims")
            if (index // len(gen.DAY_OPS)) % HOM_TENSOR_EVERY == 0:
                T = result if op == "day-convolve" else day.day_convolve(F, G)
                IH = result if op == "internal-hom" else day.internal_hom(G, H)
                if len(day.nat_space(T.presheaf, H)) != len(day.nat_space(F, IH.presheaf)):
                    failures.append("hom-tensor-dims")
            return failures, jsonio.day_presheaf_to_json(P, "category")
        FC, M0 = objs
        seed = M0.close()
        if op == "day-subgen":
            subc, incl, spaces = result
            canon = jsonio.day_coalgebra_to_json(subc, "category")
            if not DayConvolution._valid(subc, canon):
                failures.append("day-subgen-invalid")
            if not spaces.contains(seed):
                failures.append("day-subgen-misses-seed")
            return failures, {"dims": spaces.dims(), "coalgebra": canon}
        if not result.contains(seed):
            failures.append("invariant-closure-misses-seed")
        if dayclosure.invariant_kernels(FC, result)[0]:
            failures.append("invariant-closure-not-invariant")
        fld = FC.category.field
        return failures, [[jsonio.vector_to_json(fld, v) for v in s.vectors()] for s in result.spaces]


IN_PROCESS = {w.name: w for w in (StructureQ, FiniteGalois, DayConvolution)}
