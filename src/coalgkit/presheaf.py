"""Sectionwise presheaves of coalgebras on a finite index category, their
etale subpresheaves, and the presheaf-level pointwise/group-like adjunction.

The index is a plain finite category (objects, a morphism list containing
the identities, and a composition table).  A presheaf assigns a coalgebra to
each object and a coalgebra morphism F(f): F(b) -> F(a) to each f: a -> b.
Everything here reduces to the structure module section by section; the
content is that the sectionwise data assembles to presheaf morphisms, which
the functoriality and naturality of the etale machinery guarantees.
"""

from .coalgebra import CoalgebraMorphism, diagonal_coalgebra, std_basis, validate
from .errors import ReportedFailure, ShapeMismatch, ValidationError
from .linalg import Matrix
from .structure import etale_part, gp_adjunction_checks, group_likes


class FiniteCategory:
    """objects, morphisms as (name, src, dst), identities, composition table
    keyed (g, f) -> index of g o f."""

    def __init__(self, objects, morphisms, identity, compose_table):
        self.objects = list(objects)
        self.morphisms = [tuple(m) for m in morphisms]
        self.identity = list(identity)
        self.compose_table = dict(compose_table)
        self._validate()

    def _validate(self):
        for a, idx in enumerate(self.identity):
            name, src, dst = self.morphisms[idx]
            if src != a or dst != a:
                raise ValidationError(f"identity of object {a} has wrong endpoints")
        for f, (fn, fs, fd) in enumerate(self.morphisms):
            for g, (gn, gs, gd) in enumerate(self.morphisms):
                if gs != fd:
                    continue
                if (g, f) not in self.compose_table:
                    raise ValidationError(f"missing composite of {gn} o {fn}")
                cn, cs, cd = self.morphisms[self.compose_table[(g, f)]]
                if cs != fs or cd != gd:
                    raise ValidationError(f"composite {cn} has wrong endpoints")
        for f, (fn, fs, fd) in enumerate(self.morphisms):
            if self.compose_table[(self.identity[fd], f)] != f:
                raise ValidationError(f"left identity fails on {fn}")
            if self.compose_table[(f, self.identity[fs])] != f:
                raise ValidationError(f"right identity fails on {fn}")
        for f, (_, fs, fd) in enumerate(self.morphisms):
            for g, (_, gs, gd) in enumerate(self.morphisms):
                if gs != fd:
                    continue
                for h, (_, hs, hd) in enumerate(self.morphisms):
                    if hs != gd:
                        continue
                    lhs = self.compose_table[(h, self.compose_table[(g, f)])]
                    rhs = self.compose_table[(self.compose_table[(h, g)], f)]
                    if lhs != rhs:
                        raise ValidationError("composition not associative")

    @property
    def size(self):
        return len(self.objects)

    def src(self, f):
        return self.morphisms[f][1]

    def dst(self, f):
        return self.morphisms[f][2]


def arrow_category():
    """Two objects 0 -> 1 with a single non-identity morphism."""
    return FiniteCategory(
        ["0", "1"],
        [("id0", 0, 0), ("id1", 1, 1), ("u", 0, 1)],
        [0, 1],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},
    )


class CoalgebraPresheaf:
    """Sections are coalgebras; restrictions are contravariant morphisms."""

    def __init__(self, index, sections, restrictions):
        self.index = index
        self.sections = list(sections)
        self.restrictions = list(restrictions)
        if len(self.sections) != index.size:
            raise ShapeMismatch("one section per object required")
        if len(self.restrictions) != len(index.morphisms):
            raise ShapeMismatch("one restriction per morphism required")

    def validate(self):
        failures = []
        for U, C in enumerate(self.sections):
            bad = validate(C)
            if bad:
                failures.append(("section", U, bad))
        for f, phi in enumerate(self.restrictions):
            a, b = self.index.src(f), self.index.dst(f)
            if phi.source is not self.sections[b] and phi.source != self.sections[b]:
                failures.append(("restriction-source", f))
                continue
            if phi.target != self.sections[a]:
                failures.append(("restriction-target", f))
                continue
            bad = validate(phi)
            if bad:
                failures.append(("restriction-morphism", f, bad))
        for a, idx in enumerate(self.index.identity):
            if self.restrictions[idx].matrix != Matrix.identity(
                self.sections[a].field, self.sections[a].dim
            ):
                failures.append(("identity-restriction", a))
        for (g, f), c in self.index.compose_table.items():
            lhs = self.restrictions[f].matrix @ self.restrictions[g].matrix
            if not (lhs == self.restrictions[c].matrix):
                failures.append(("functoriality", (g, f)))
        return failures


class PresheafMorphism:
    """A family of coalgebra morphisms, one per object, natural in the index."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = list(components)

    def validate(self):
        failures = []
        for U, phi in enumerate(self.components):
            bad = validate(phi)
            if bad:
                failures.append(("component", U, bad))
        for f in range(len(self.source.index.morphisms)):
            a = self.source.index.src(f)
            lhs = self.components[a].matrix @ self.source.restrictions[f].matrix
            rhs = self.target.restrictions[f].matrix @ self.components[self.source.index.dst(f)].matrix
            if not (lhs == rhs):
                failures.append(("naturality", f))
        return failures


def etale_subpresheaf(F):
    """Objectwise etale parts with the induced restrictions; returns
    (presheaf, inclusion, splitting) with both families natural."""
    data = [etale_part(C) for C in F.sections]
    sections = [d.etale for d in data]
    restrictions = []
    for f in range(len(F.index.morphisms)):
        a, b = F.index.src(f), F.index.dst(f)
        mat = data[a].retraction.matrix @ F.restrictions[f].matrix @ data[b].inclusion.matrix
        restrictions.append(CoalgebraMorphism(sections[b], sections[a], mat))
    E = CoalgebraPresheaf(F.index, sections, restrictions)
    inclusion = PresheafMorphism(E, F, [d.inclusion for d in data])
    splitting = PresheafMorphism(F, E, [d.retraction for d in data])
    bad = inclusion.validate() + splitting.validate() + E.validate()
    if bad:
        raise ReportedFailure("etale subpresheaf naturality failed", bad)
    return E, inclusion, splitting


class SetPresheaf:
    """Finite sets with contravariant functions between them."""

    def __init__(self, index, sizes, maps):
        self.index = index
        self.sizes = list(sizes)
        self.maps = [list(m) for m in maps]  # maps[f]: X(dst) -> X(src)

    def validate(self):
        failures = []
        for f, m in enumerate(self.maps):
            a, b = self.index.src(f), self.index.dst(f)
            if len(m) != self.sizes[b] or any(not 0 <= x < self.sizes[a] for x in m):
                failures.append(("map-shape", f))
        for a, idx in enumerate(self.index.identity):
            if self.maps[idx] != list(range(self.sizes[a])):
                failures.append(("identity-map", a))
        for (g, f), c in self.index.compose_table.items():
            composed = [self.maps[f][x] for x in self.maps[g]]
            if composed != self.maps[c]:
                failures.append(("functoriality", (g, f)))
        return failures


def pointwise_coalgebra_presheaf(X, field):
    """k^delta applied sectionwise to a presheaf of finite sets."""
    sections = [diagonal_coalgebra(n, field) for n in X.sizes]
    restrictions = []
    for f, m in enumerate(X.maps):
        a, b = X.index.src(f), X.index.dst(f)
        entries = [(y, x, field.one) for x, y in enumerate(m)]
        M = Matrix.from_entries(field, X.sizes[a], X.sizes[b], entries)
        restrictions.append(CoalgebraMorphism(sections[b], sections[a], M))
    return CoalgebraPresheaf(X.index, sections, restrictions)


def presheaf_gp_adjunction(F=None, X=None, field=None):
    """Sectionwise adjunction checks plus naturality across restrictions.

    For a set presheaf X: the unit is a sectionwise bijection commuting with
    the restrictions, each section's unit being checked by its own
    `gp_adjunction_checks(X=n)`, the Galois adjunction at k/k.  For a
    coalgebra presheaf F: the counit components are valid, land in the
    sectionwise etale parts, commute with restrictions, and, when every
    section is split, corestrict to a presheaf isomorphism onto the etale
    subpresheaf.
    """
    checks = []
    if X is not None:
        # the unit sends x in X(a) to the basis vector e_x of k^delta[X(a)]: it
        # is natural when the units of both ends are bijective and k^delta[X(f)]
        # sends e_x to e_(X(f)(x)); every x of X(b) is reached through id_b, so a
        # section whose unit misses a group-like fails here too
        KX = pointwise_coalgebra_presheaf(X, field)
        # a section's report depends only on its size
        by_size = {
            n: dict(gp_adjunction_checks(X=n, field=field)["checks"])["unit-bijective"]
            for n in dict.fromkeys(X.sizes)
        }
        bijective = [by_size[n] for n in X.sizes]
        checks.append(("unit-sectionwise-bijective", all(bijective)))
        units = [std_basis(field, n) for n in X.sizes]
        natural = all(
            bijective[a] and bijective[b]
            and KX.restrictions[f].matrix.apply(units[b][x]) == units[a][y]
            for f, (_, a, b) in enumerate(X.index.morphisms)
            for x, y in enumerate(X.maps[f])
        )
        checks.append(("unit-natural", natural))
    if F is not None:
        # the sectionwise counit checks are those of each section's own report
        reports = [dict(gp_adjunction_checks(C=C)["checks"]) for C in F.sections]
        checks.append(
            ("counit-sectionwise-valid", all(r["counit-valid-morphism"] for r in reports))
        )
        checks.append(
            ("counit-lands-in-etale", all(r["counit-lands-in-etale"] for r in reports))
        )
        # the counit of a section sends the i-th basis vector of k^delta[gp]
        # to its i-th group-like, and gp(f) is F(f) on group-likes: the counit
        # is natural exactly when F(f) sends each group-like of the target
        # section to one of the source section; one the search misses is a
        # failed check, not a lookup error
        gls = [group_likes(C).elements for C in F.sections]
        found = [{tuple(g) for g in elements} for elements in gls]
        natural = all(
            tuple(F.restrictions[f].matrix.apply(c)) in found[a]
            for f, (_, a, b) in enumerate(F.index.morphisms)
            for c in gls[b]
        )
        checks.append(("counit-natural", natural))
        split = [r.get("split-counit-iso-onto-etale") for r in reports]
        if None not in split:
            checks.append(("split-iso-onto-etale-sections", all(split)))
    return {"checks": checks, "ok": all(ok for _, ok in checks)}
