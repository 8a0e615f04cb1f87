"""Closure procedures for sub-presheaves under Day convolution: purity,
invariance, generated subcoalgebras, and separation of parallel morphisms.

A sub-presheaf is one subspace per object closed under the restriction maps.
pure_closure enlarges a sub-presheaf until convolving its inclusion with a
fixed presheaf N becomes injective: each kernel witness is lifted to the
direct-sum level, expressed against the ambient relation generators, and the
tensor legs of the generators involved are adjoined before closing under
restrictions again.  invariant_closure similarly adjoins the legs of
coproduct values until they land in the image of the convolution square of
the sub-presheaf.  Both strictly grow a bounded subspace, so they terminate.

The generated subcoalgebra alternates purity against the current stage,
purity against the ambient presheaf, and invariance; the extra ambient pass
makes the convolution square of the result embed into that of the ambient
coalgebra, which is what lets the comultiplication restrict uniquely.

A run (one call of a public closure) computes each realization, convolution
and purity check once: a memo that lives only as long as the call keys each
realization of a sub-presheaf by its spaces, each convolution by its two
presheaves and each purity or invariance check by the sub-presheaf and its
ambient convolution, and the full sub-presheaf realizes as the presheaf
itself, so a run that reaches it reuses the coalgebra's own square.  So the
stage of a round, its purity and invariance checks, and the repeated checks
of the last round are each built once, and the generated subcoalgebra
restricts delta through the convolution square and solutions of the last
invariance check.
"""

from .day import (DayCoalgebra, DayPresheaf, DayTensor, NatTransform, _d_level_entries,
                  _free_entries, convolve_nat, identity_nat, quotient_nat, representable)
from .errors import ComputationError, MapsEqual, ShapeMismatch
from .linalg import Matrix, Subspace


class SubPresheaf:
    """One subspace of F(U) per object, meant to be restriction-closed."""

    def __init__(self, presheaf, spaces):
        self.presheaf = presheaf
        self.spaces = list(spaces)

    @classmethod
    def from_vectors(cls, presheaf, assignment):
        """assignment: {object index: list of vectors in F(U)}."""
        fld = presheaf.category.field
        spaces = []
        for U in range(presheaf.category.size):
            vecs = assignment.get(U, [])
            spaces.append(Subspace.from_vectors(fld, presheaf.dims[U], vecs))
        return cls(presheaf, spaces)

    @classmethod
    def zero(cls, presheaf):
        return cls.from_vectors(presheaf, {})

    @classmethod
    def full(cls, presheaf):
        fld = presheaf.category.field
        return cls(
            presheaf,
            [Subspace.full(fld, d) for d in presheaf.dims],
        )

    def dims(self):
        return [s.dim for s in self.spaces]

    def total_dim(self):
        return sum(s.dim for s in self.spaces)

    def is_closed(self):
        cat = self.presheaf.category
        for (a, b, i) in cat.all_basis_mors():
            M = self.presheaf.action(a, b, i)
            for v in self.spaces[b].vectors():
                if not self.spaces[a].contains_vector(M.apply(v)):
                    return False
        return True

    def close(self):
        """Smallest restriction-closed enlargement."""
        cat = self.presheaf.category
        fld = cat.field
        spaces = list(self.spaces)
        changed = True
        while changed:
            changed = False
            for (a, b, i) in cat.all_basis_mors():
                if cat.basis_mor(a, b, i) == cat.id_mor(a):
                    continue
                M = self.presheaf.action(a, b, i)
                extra = [
                    w for w in map(M.apply, spaces[b].vectors())
                    if not spaces[a].contains_vector(w)
                ]
                if extra:
                    spaces[a] = Subspace.from_vectors(
                        fld, self.presheaf.dims[a], spaces[a].vectors() + extra
                    )
                    changed = True
        return SubPresheaf(self.presheaf, spaces)

    def with_added(self, assignment):
        fld = self.presheaf.category.field
        spaces = []
        for U, s in enumerate(self.spaces):
            extra = assignment.get(U, [])
            if extra:
                spaces.append(
                    Subspace.from_vectors(
                        fld, self.presheaf.dims[U], s.vectors() + list(extra)
                    )
                )
            else:
                spaces.append(s)
        return SubPresheaf(self.presheaf, spaces)

    def contains(self, other):
        return all(a.contains(b) for a, b in zip(self.spaces, other.spaces))

    def __eq__(self, other):
        if not isinstance(other, SubPresheaf):
            return NotImplemented
        return self.presheaf is other.presheaf and self.spaces == other.spaces

    def as_presheaf(self):
        """Realize as a DayPresheaf plus the inclusion transformation."""
        cat = self.presheaf.category
        fld = cat.field
        dims = self.dims()
        actions = {}
        for (a, b, i) in cat.all_basis_mors():
            M = self.presheaf.action(a, b, i)
            cols = []
            for v in self.spaces[b].vectors():
                coords = self.spaces[a].coordinates(M.apply(v))
                if coords is None:
                    raise ShapeMismatch("sub-presheaf not closed under restrictions")
                cols.append(coords)
            actions[(a, b, i)] = Matrix.from_cols(fld, cols, dims[a])
        sub = DayPresheaf(cat, dims, actions)
        incl = NatTransform(
            sub,
            self.presheaf,
            [
                Matrix.from_cols(fld, s.vectors(), self.presheaf.dims[U])
                for U, s in enumerate(self.spaces)
            ],
        )
        return sub, incl

    def __repr__(self):
        return f"SubPresheaf(dims {self.dims()} of {self.presheaf.dims})"


class _Run:
    """What one closure run computes, each once, for as long as the run's
    call lasts: the realization of each sub-presheaf (as_presheaf, keyed by
    its spaces; every sub-presheaf of a run lies in one presheaf), the
    convolution of each pair of presheaves (keyed by the pair, compared by
    identity, which the realizations make enough), and each purity and
    invariance check.  The full sub-presheaf realizes as the presheaf
    itself, so its convolutions are those given to the run, such as the
    ambient square of a coalgebra.  Nothing is stored on the presheaves."""

    def __init__(self, *convs):
        self._memo = {("convolve", id(T.F), id(T.G)): T for T in convs}

    def once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def realize(self, sub):
        if all(s.dim == s.ambient for s in sub.spaces):
            return sub.presheaf, identity_nat(sub.presheaf)
        return self.once(("realize", tuple(sub.spaces)), sub.as_presheaf)

    def convolve(self, F, G):
        return self.once(("convolve", id(F), id(G)), lambda: DayTensor(F, G))


def purity_kernels(M, sub, N):
    """Kernels per object of (sub (x) N) -> (M (x) N); all trivial = pure.

    Returns (kernels, conv_sub, conv_amb, lifts), lifts[U] being the
    nonzero entries of the D-level matrix of incl (x) id_N at U, as
    `day.quotient_nat` reads them."""
    run = _Run()
    return _purity_kernels(sub, run.convolve(M, N), run)


def _purity_kernels(sub, conv_amb, run):
    """purity_kernels against the ambient convolution conv_amb = M (x) N."""

    def check():
        N = conv_amb.G
        subp, incl = run.realize(sub)
        conv_sub = run.convolve(subp, N)
        lifts = _d_level_entries(conv_sub, conv_amb, incl, identity_nat(N))
        kappa = quotient_nat(conv_sub, conv_amb, lifts)
        return [kappa.at(U).kernel() for U in range(N.category.size)], conv_sub, conv_amb, lifts

    return run.once(("pure", tuple(sub.spaces), id(conv_amb)), check)


def pure_closure(M, M0, N):
    """Enlarge M0 inside M until tensoring the inclusion with N is injective."""
    run = _Run()
    return _pure_closure(M0.close(), run.convolve(M, N), run)


def _pure_closure(current, conv_amb, run):
    """pure_closure of the closed sub-presheaf current against the ambient
    convolution conv_amb = M (x) N, which every round shares."""
    while True:
        kernels, conv_sub, _, lifts = _purity_kernels(current, conv_amb, run)
        if all(k.dim == 0 for k in kernels):
            return current
        additions = {}
        for U, ker in enumerate(kernels):
            if ker.dim == 0:
                continue
            lift = Matrix.from_entries(conv_amb.category.field, conv_amb.d_dims[U],
                                       conv_sub.dim(U), _free_entries(conv_sub.free[U], lifts[U]))
            for w in ker.vectors():
                z = conv_amb.relations[U].solve(lift.apply(w))
                if z is None:
                    raise ComputationError("kernel witness not a relation image")
                _collect_left_legs(conv_amb, U, z, additions)
        grown = current.with_added(additions).close()
        if grown.dims() == current.dims():
            raise ComputationError("purity closure made no progress")
        current = grown


def _collect_left_legs(conv, U, z, additions):
    """Adjoin, per generator group, the left (F-side) legs of a relation
    combination: for fixed morphism data, the column space of the (s, t)
    coefficient matrix."""
    fld = conv.category.field
    groups = {}
    for idx, c in enumerate(z):
        if fld.is_zero(c):
            continue
        X, Y, Xp, Yp, ai, bi, pi, s, t = conv.relation_tags[U][idx]
        groups.setdefault((X, Y, Xp, Yp, ai, bi, pi), {})[(s, t)] = c
    for (X, Y, Xp, Yp, ai, bi, pi), coeffs in groups.items():
        fd = conv.F.dims[X]
        tvals = sorted({t for (_, t) in coeffs})
        for t in tvals:
            vec = [fld.zero] * fd
            nonzero = False
            for s in range(fd):
                c = coeffs.get((s, t))
                if c is not None and not fld.is_zero(c):
                    vec[s] = c
                    nonzero = True
            if nonzero:
                additions.setdefault(X, []).append(vec)


def invariant_kernels(FC, sub):
    """Coproduct values of sub basis vectors lacking a preimage in
    (sub (x) sub); returns (failures, conv_sub, kappa)."""
    return _invariant_kernels(FC, sub, _Run(FC.conv))[:3]


def _invariant_kernels(FC, sub, run):
    """invariant_kernels plus, per object, the solution of
    kappa @ sol = delta @ incl (None where there is none)."""

    def check():
        subp, incl = run.realize(sub)
        conv_sub = run.convolve(subp, subp)
        kappa = convolve_nat(conv_sub, FC.conv, incl, incl)
        failures = []
        sols = []
        for U in range(FC.category.size):
            target = FC.delta.at(U) @ incl.at(U)
            sol = kappa.at(U).solve_matrix(target)
            sols.append(sol)
            if sol is None:
                for j, v in enumerate(sub.spaces[U].vectors()):
                    col = FC.delta.at(U).apply(incl.at(U).col(j))
                    if kappa.at(U).solve(col) is None:
                        failures.append((U, col))
        return failures, conv_sub, kappa, sols

    return run.once(("invariant", tuple(sub.spaces)), check)


def invariant_closure(FC, M0):
    """Enlarge M0 inside the coalgebra F until delta(M') lands in the image
    of M' (x) M' -> F (x) F."""
    return _invariant_closure(FC, M0.close(), _Run(FC.conv))


def _invariant_closure(FC, current, run):
    """invariant_closure of the closed sub-presheaf current."""
    while True:
        failures = _invariant_kernels(FC, current, run)[0]
        if not failures:
            return current
        additions = {}
        for U, value in failures:
            # sections[U] @ value: value[k] at the index free[k] of D(U)
            for X, leg in FC.conv.legs(U, dict(zip(FC.conv.free[U], value))):
                additions.setdefault(X, []).append(leg)
        grown = current.with_added(additions).close()
        if grown.dims() == current.dims():
            raise ComputationError("invariance closure made no progress")
        current = grown


def generated_day_subcoalgebra(FC, M0):
    """Smallest manageable subcoalgebra of FC containing M0.

    Alternates purity (against the current stage, then against the ambient
    presheaf) with invariance until jointly stable, then restricts delta and
    epsilon.  Returns (subcoalgebra, inclusion, sub_presheaf).
    """
    F = FC.presheaf
    run = _Run(FC.conv)
    current = M0.close()
    while True:
        before = current.dims()
        stage, _ = run.realize(current)
        current = _pure_closure(current, run.convolve(F, stage), run)
        current = _pure_closure(current, FC.conv, run)
        current = _invariant_closure(FC, current, run)
        if current.dims() == before:
            break
    subp, incl = run.realize(current)
    _, conv_sub, kappa, sols = _invariant_kernels(FC, current, run)
    for U in range(F.category.size):
        if kappa.at(U).kernel().dim != 0:
            raise ComputationError("restricted convolution square is not injective")
        if sols[U] is None:
            raise ComputationError("coproduct does not restrict to the closure")
    delta = NatTransform(subp, conv_sub.presheaf, sols)
    h1 = representable(F.category, F.category.unit)
    eps = NatTransform(
        subp, h1, [FC.epsilon.at(U) @ incl.at(U) for U in range(F.category.size)]
    )
    return DayCoalgebra(subp, delta, eps, conv_sub), incl, current


def separate_by_generator(FC, eta, psi):
    """A subcoalgebra of FC's carrier on which two distinct morphisms out of
    it still differ: generated by one coordinate line where they disagree."""
    fld = FC.category.field
    witness = None
    for U in range(FC.category.size):
        if eta.at(U) == psi.at(U):
            continue
        for j in range(FC.presheaf.dims[U]):
            if eta.at(U).col(j) != psi.at(U).col(j):
                vec = [fld.one if i == j else fld.zero for i in range(FC.presheaf.dims[U])]
                witness = (U, vec)
                break
        if witness:
            break
    if witness is None:
        raise MapsEqual("the morphisms agree everywhere")
    M0 = SubPresheaf.from_vectors(FC.presheaf, {witness[0]: [witness[1]]})
    subcoalg, incl, subspaces = generated_day_subcoalgebra(FC, M0)
    differs = any(
        not (eta.at(U) @ incl.at(U) == psi.at(U) @ incl.at(U))
        for U in range(FC.category.size)
    )
    if not differs:
        raise ComputationError("separating subobject lost the disagreement")
    return subcoalg, incl, subspaces
