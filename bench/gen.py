"""Seeded input generators for the benchmark workloads.

Every generator calls only public coalgkit constructors and serializers, and
never the kernel's own ``corpus`` or ``suites`` modules: those may be
rewritten, and the benchmark's inputs must not change with them.  An input
is a JSON-ready document; the benchmark stores its canonical JSON and parses
a fresh object from it for every operation.

Each input draws from two random streams.  The shape stream depends only on
the workload and the input's index: it picks the construction, dimensions,
partitions, categories and set sizes.  The value stream also depends on the
seed: it picks coefficients, field elements, basis changes and vectors.  So
a seed changes what every operation computes, but not the mix of cheap and
expensive operations, which keeps runs with different seeds comparable.
"""

import random

from coalgkit import day as day_mod
from coalgkit import galois as galois_mod
from coalgkit import jsonio
from coalgkit.coalgebra import (
    ArtinAlgebra,
    diagonal_coalgebra,
    direct_sum,
    dual_coalgebra,
    generated_subcoalgebra,
    polynomial_quotient_algebra,
    quotient,
    tensor,
)
from coalgkit.factor import is_irreducible
from coalgkit.fields import GF, QQ
from coalgkit.linalg import Matrix, Subspace, kronecker
from coalgkit.polys import Polynomial
from coalgkit.seeding import derive_seed
from coalgkit.structure import product_algebra


class Draw:
    """The shape and value streams of one input."""

    def __init__(self, seed, workload, index):
        self.shape = random.Random(derive_seed("coalgbench-shape", workload, index))
        self.value = random.Random(derive_seed("coalgbench-value", seed, workload, index))


# -- algebras and coalgebras ---------------------------------------------------


def invertible(rng, field, n):
    """A random invertible matrix; over Q with entries in -2..2, so that the
    size of the rational numbers, which sets the cost of every operation,
    varies less from one input to the next."""
    def draw():
        return field.from_int(rng.randint(-2, 2)) if field.characteristic == 0 else field.random(rng)

    while True:
        M = Matrix(field, n, n, [[draw() for _ in range(n)] for _ in range(n)])
        if M.rank() == n:
            return M


def conjugate(A, P):
    """The algebra A in the basis given by the columns of P."""
    Pinv = P.inverse()
    return ArtinAlgebra(A.field, A.dim, Pinv @ A.mult @ kronecker(P, P), Pinv.apply(A.unit))


def monic(rng, field, degree):
    return Polynomial(field, [field.random(rng) for _ in range(degree)] + [field.one])


def irreducible(rng, field, degree):
    while True:
        f = monic(rng, field, degree)
        if is_irreducible(f):
            return f


def nonzero_vector(rng, field, n):
    while True:
        v = [field.random(rng) for _ in range(n)]
        if any(not field.is_zero(c) for c in v):
            return v


def _in_random_basis(d, field, parts):
    A = product_algebra(field, parts)
    return conjugate(A, invertible(d.value, field, A.dim))


def random_algebra(d, field, dim):
    """A product of univariate quotients k[x]/(f), f random monic."""
    parts = []
    while dim > 0:
        deg = d.shape.randint(1, dim)
        parts.append(polynomial_quotient_algebra(field, monic(d.value, field, deg)))
        dim -= deg
    return _in_random_basis(d, field, parts)


def split_algebra(d, field, dim):
    """Every residue field is the base field: products of k[x]/((x-c)^e)."""
    parts = []
    while dim > 0:
        e = d.shape.randint(1, dim)
        linear = Polynomial(field, [field.neg(field.random(d.value)), field.one])
        parts.append(polynomial_quotient_algebra(field, linear**e))
        dim -= e
    return _in_random_basis(d, field, parts)


def subfield_compatible_algebra(d, field, dim, degrees):
    """Residue degrees drawn from `degrees`, so every residue field embeds
    into an extension of degree divisible by all of them."""
    parts = []
    while dim > 0:
        deg = d.shape.choice([k for k in degrees if k <= dim])
        e = d.shape.randint(1, dim // deg)
        parts.append(polynomial_quotient_algebra(field, irreducible(d.value, field, deg) ** e))
        dim -= deg * e
    return _in_random_basis(d, field, parts)


RECIPES = ("diag", "dualalg", "split", "sum", "tensor", "sub", "quotient")
MAX_DIM = 6


def coalgebra(d, field, dim, recipe=None):
    """A coalgebra of dimension `dim` from one of the supported constructions
    (a generated subcoalgebra may be smaller, a quotient keeps one summand
    and collapses the other to a point).  Composite recipes draw their parts
    from the first three."""
    recipe = recipe or d.shape.choice(RECIPES[:3])
    if dim < 2 and recipe in RECIPES[3:]:
        recipe = "dualalg"
    if recipe == "diag":
        return diagonal_coalgebra(dim, field)
    if recipe == "dualalg":
        return dual_coalgebra(random_algebra(d, field, dim))
    if recipe == "split":
        return dual_coalgebra(split_algebra(d, field, dim))
    if recipe == "tensor":
        a = d.shape.choice([k for k in range(1, dim) if dim % k == 0])
        return tensor(coalgebra(d, field, a), coalgebra(d, field, dim // a))
    if recipe == "sub":
        C = coalgebra(d, field, dim)
        S = Subspace.from_vectors(field, dim, [nonzero_vector(d.value, field, dim)])
        return generated_subcoalgebra(C, S)[0]
    a = d.shape.randint(1, dim - 1)
    C, D = coalgebra(d, field, a), coalgebra(d, field, dim - a)
    S = direct_sum(C, D)[0]
    if recipe == "sum":
        return S
    # C (+) D modulo the coideal 0 (+) ker(eps_D), the kernel of the
    # coalgebra map C (+) D -> C (+) k that collapses D by its counit
    coideal = [[field.zero] * a + v for v in D.epsilon.kernel().vectors()]
    return quotient(S, Subspace.from_vectors(field, dim, coideal))[0] if coideal else S


def stratum(index, *sizes):
    """Mixed-radix digits of index: the stratum coordinates of an input."""
    digits = []
    for size in sizes:
        digits.append(index % size)
        index //= size
    return digits


# -- workload streams ------------------------------------------------------------

FINITE_FIELDS = (2, 3, 5)
GALOIS_EXTENSIONS = (("F4/F2", 2, (1, 1, 1)), ("F8/F2", 2, (1, 1, 0, 1)),
                     ("F9/F3", 3, (1, 0, 1)), ("F16/F2", 2, (1, 1, 0, 0, 1)))
GALOIS_EVERY = 10  # one Galois op per this many finite-galois ops


def structure_q_input(seed, index):
    d = Draw(seed, "structure-q", index)
    recipe, dim = stratum(index, len(RECIPES), MAX_DIM)
    C = coalgebra(d, QQ, dim + 1, RECIPES[recipe])
    return {"op": "all-views", "coalgebra": jsonio.coalgebra_to_json(C)}


def _coset_union(d, D, max_size):
    subgroups = D.subgroups()
    parts, size = [], 0
    while True:
        H = d.shape.choice(subgroups)
        orbit = D.size // len(H)
        if parts and size + orbit > max_size:
            return galois_mod.disjoint_union(D, parts)
        parts.append(galois_mod.coset_gset(D, H))
        size += orbit


def galois_datum(name):
    for ext, p, modulus in GALOIS_EXTENSIONS:
        if ext == name:
            return galois_mod.frobenius_galois_datum(p, list(modulus))
    raise KeyError(name)


def finite_galois_input(seed, index, data=None):
    d = Draw(seed, "finite-galois", index)
    if index % GALOIS_EVERY != GALOIS_EVERY - 1:
        p, recipe, dim = stratum(index, len(FINITE_FIELDS), len(RECIPES), MAX_DIM)
        C = coalgebra(d, GF(FINITE_FIELDS[p]), dim + 1, RECIPES[recipe])
        return {"op": "etale", "coalgebra": jsonio.coalgebra_to_json(C)}
    ext, kind = stratum(index // GALOIS_EVERY, len(GALOIS_EXTENSIONS), 2)
    name = GALOIS_EXTENSIONS[ext][0]
    D = data[name] if data else galois_datum(name)
    doc = {"op": "galois-adjunction", "extension": name, "galois": jsonio.galois_to_json(D)}
    if kind == 0:
        doc["gset"] = jsonio.gset_to_json(_coset_union(d, D, 3 * D.size))
    else:
        degrees = [k for k in range(1, D.size + 1) if D.size % k == 0]
        A = subfield_compatible_algebra(d, D.base, d.shape.randint(4, 8), degrees)
        doc["coalgebra"] = jsonio.coalgebra_to_json(dual_coalgebra(A))
    return doc


# Day categories: one-object k[t]/(t^n), chain posets, cyclic groups
DAY_KINDS = ("one-object", "chain", "cyclic")
DAY_OPS = ("day-convolve", "internal-hom", "day-subgen", "invariant-closure")


def day_category(kind, p, n):
    field = GF(p)
    if kind == "one-object":
        t_n = Polynomial(field, [field.zero] * n + [field.one])
        return day_mod.one_object_algebra_category(field, polynomial_quotient_algebra(field, t_n))
    if kind == "chain":
        return day_mod.poset_max_category(field, n)
    return day_mod.cyclic_group_category(field, n)


def _nilpotent_module(d, cat, n, dim):
    """k[t]/(t^n)-module: t acts by a conjugated nilpotent Jordan matrix
    with blocks of size <= n; basis morphism t^i acts by its i-th power."""
    fld = cat.field
    J = Matrix.zeros(fld, dim, dim)
    start = 0
    while start < dim:
        size = d.shape.randint(1, min(n, dim - start))
        for r in range(start, start + size - 1):
            J.data[r][r + 1] = fld.one
        start += size
    P = invertible(d.value, fld, dim)
    N = P @ J @ P.inverse()
    actions, power = {}, Matrix.identity(fld, dim)
    for i in range(n):
        actions[(0, 0, i)] = power
        power = power @ N
    return day_mod.DayPresheaf(cat, [dim], actions)


def _chain_presheaf(d, cat, dims):
    """Restriction maps chosen along consecutive steps, then composed."""
    fld = cat.field
    rng = d.value
    step = [Matrix(fld, dims[a], dims[a + 1],
                   [[fld.random(rng) for _ in range(dims[a + 1])] for _ in range(dims[a])])
            for a in range(cat.size - 1)]
    actions = {}
    for a in range(cat.size):
        M = Matrix.identity(fld, dims[a])
        actions[(a, a, 0)] = M
        for b in range(a + 1, cat.size):
            M = M @ step[b - 1]
            actions[(a, b, 0)] = M
    return day_mod.DayPresheaf(cat, dims, actions)


def day_presheaf(d, cat, kind, n):
    if kind == "one-object":
        return _nilpotent_module(d, cat, n, d.shape.randint(3, 5))
    dims = [d.shape.randint(1, 3) for _ in range(cat.size)]
    if not any(dims):
        dims[d.shape.randrange(cat.size)] = 1
    if kind == "chain":
        return _chain_presheaf(d, cat, dims)
    fld = cat.field
    return day_mod.DayPresheaf(
        cat, dims, {(a, a, 0): Matrix.identity(fld, dims[a]) for a in range(cat.size)}
    )


def graded_dual_numbers(cat):
    """k[t]/(t^2) with t in degree 1, as a Day coalgebra over Z_2:
    delta(1) = 1 (x) 1 and delta(t) = 1 (x) t + t (x) 1."""
    fld = cat.field
    F = day_mod.DayPresheaf(cat, [1, 1], {(a, a, 0): Matrix.identity(fld, 1) for a in range(2)})
    conv = day_mod.DayTensor(F, F)
    one = [fld.one]
    d0 = conv.insert(0, 0, 0, one, one, one)
    d1 = [fld.add(a, b) for a, b in zip(conv.insert(1, 0, 1, one, one, one),
                                       conv.insert(1, 1, 0, one, one, one))]
    delta = day_mod.NatTransform(F, conv.presheaf, [
        Matrix.from_cols(fld, [d0], conv.dim(0)), Matrix.from_cols(fld, [d1], conv.dim(1))])
    h1 = day_mod.representable(cat, cat.unit)
    eps = day_mod.NatTransform(F, h1, [Matrix.identity(fld, 1), Matrix.zeros(fld, 0, 1)])
    return day_mod.DayCoalgebra(F, delta, eps, conv)


def day_input(seed, index):
    d = Draw(seed, "day-convolution", index)
    op, p, kind = stratum(index, len(DAY_OPS), 2, len(DAY_KINDS))
    op, p = DAY_OPS[op], (2, 3)[p]
    if op in ("day-convolve", "internal-hom"):
        kind = DAY_KINDS[kind]
        n = d.shape.randint(3, 4) if kind == "chain" else d.shape.randint(2, 4)
        cat = day_category(kind, p, n)
        doc = {"op": op, "kind": kind, "category": jsonio.day_category_to_json(cat)}
        for name in ("F", "G", "H"):
            doc[name] = jsonio.day_presheaf_to_json(day_presheaf(d, cat, kind, n), "category")
        return doc
    cat = day_mod.cyclic_group_category(GF(p), 2)
    base = graded_dual_numbers(cat)
    FC = base
    for _ in range(d.shape.randint(1, 2)):
        FC = day_mod.day_direct_sum(FC, base)
    seeded = d.shape.sample([0, 1], d.shape.randint(1, 2))
    spaces = [[jsonio.vector_to_json(cat.field, nonzero_vector(d.value, cat.field, dim))]
              if U in seeded else [] for U, dim in enumerate(FC.presheaf.dims)]
    return {"op": op, "coalgebra": jsonio.day_coalgebra_to_json(FC, "category"),
            "category": jsonio.day_category_to_json(cat),
            "seed": {"schema": jsonio.SCHEMA, "type": "day-subpresheaf", "spaces": spaces}}


# -- command line -------------------------------------------------------------------

# every demos/data pairing the README shows, with its expected exit code
CLI_DEMOS = (
    (["validate", "demos/data/dual_numbers.json"], 0),
    (["grouplikes", "demos/data/F4dual.json"], 0),
    (["etale", "demos/data/dual_numbers.json"], 0),
    (["subgen", "demos/data/dual_numbers.json", "demos/data/span_t.json"], 0),
    (["galois-functor", "demos/data/galois_F4.json", "demos/data/gset_regular.json"], 0),
    (["galois-adjunction", "demos/data/galois_F4.json", "demos/data/F4dual.json"], 0),
    (["day-convolve", "demos/data/day_cat_Z2.json", "demos/data/day_F.json", "demos/data/day_G.json"], 0),
    (["day-subgen", "demos/data/day_graded_coalg.json", "demos/data/day_line_t.json"], 0),
    (["validate", "demos/data/garbage.json"], 2),
)
CLI_COMMANDS = ("invalid", "validate", "etale", "decompose", "grouplikes", "retract",
                "adjunction-gp", "subgen", "galois-adjunction", "day-convolve", "day-hom")
CLI_FIELDS = (GF(2), GF(3), QQ)


def cli_input(seed, index):
    """One command line: {"argv": [...], "files": {name: document}, "expect": code}.

    An argument naming a key of "files" stands for that document; the
    benchmark writes the files and substitutes their paths."""
    slot = index % (len(CLI_DEMOS) + len(CLI_COMMANDS))
    if slot < len(CLI_DEMOS):
        argv, code = CLI_DEMOS[slot]
        return {"argv": list(argv), "files": {}, "expect": code}
    command = CLI_COMMANDS[slot - len(CLI_DEMOS)]
    if command == "galois-adjunction":
        doc = finite_galois_input(seed, GALOIS_EVERY * (index % 8) + GALOIS_EVERY - 1)
        other = "gset" if "gset" in doc else "coalgebra"
        return {"argv": [command, "galois", other], "expect": 0,
                "files": {"galois": doc["galois"], other: doc[other]}}
    if command in ("day-convolve", "day-hom"):
        doc = day_input(seed, len(DAY_OPS) * (index % 6))
        return {"argv": [command, "category", "F", "G"], "expect": 0,
                "files": {"category": doc["category"], "F": doc["F"], "G": doc["G"]}}
    d = Draw(seed, "cli-cold", index)
    field = CLI_FIELDS[index % len(CLI_FIELDS)]
    C = coalgebra(d, field, d.shape.randint(1, 4), d.shape.choice(RECIPES))
    doc = jsonio.coalgebra_to_json(C)
    if command == "invalid":
        doc["epsilon"] = [field.format(field.zero)] * C.dim  # breaks the counit axiom
        return {"argv": ["etale", "coalgebra"], "files": {"coalgebra": doc}, "expect": 3}
    if command == "subgen":
        span = {"schema": jsonio.SCHEMA, "type": "subspace", "field": field.to_json(),
                "ambient": C.dim, "vectors": [jsonio.vector_to_json(field, nonzero_vector(
                    d.value, field, C.dim))]}
        return {"argv": [command, "coalgebra", "span"], "expect": 0,
                "files": {"coalgebra": doc, "span": span}}
    return {"argv": [command, "coalgebra"], "files": {"coalgebra": doc}, "expect": 0}
