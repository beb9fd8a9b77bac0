"""Graded invariant rings of finite matrix groups.

Degreewise invariant spaces, Hilbert dimension tables, the Molien series,
Reynolds projection, minimal generators with their degree gcd, scaled torus
exponents, lowest-degree relations, and the pseudo-reflection reduction.

The action used throughout is f |-> f(g x): substitute variable i by the
linear form given by row i of g.  A polynomial is G-invariant iff it is
fixed by this substitution for every generator, in any characteristic.
"""

from __future__ import annotations

import math

from .errors import InvForgeError, ModularityError
from .groups import (FiniteMatrixGroup, pseudo_reflections,
                     reflection_subgroup)
from .linalg import EchelonBasis, Matrix, _berkowitz, combine_rows, kernel
from .poly import Polynomial


def weighted_monomials(degrees, w):
    """Exponent tuples e with sum e_i * degrees[i] = w, descending lex."""
    if not degrees:
        return [()] if w == 0 else []
    out = []

    def rec(i, remaining, prefix):
        if i == len(degrees) - 1:
            # the last exponent is what remains, if its degree divides it
            if remaining >= 0 and remaining % degrees[i] == 0:
                out.append(prefix + (remaining // degrees[i],))
            return
        for e in range(remaining // degrees[i], -1, -1):
            rec(i + 1, remaining - e * degrees[i], prefix + (e,))

    rec(0, w, ())
    return out


def monomials(nvars, degree):
    """Degree-d exponent tuples in descending lexicographic order."""
    return weighted_monomials((1,) * nvars, degree)


def coefficient_vector(p, idx):
    """Coefficients of p over the monomials of idx (monomial -> position)."""
    vec = [p.spec.zero()] * len(idx)
    for e, c in p.terms.items():
        vec[idx[e]] = c
    return vec


def apply_matrix(g: Matrix, f: Polynomial) -> Polynomial:
    """f(g x): substitute x_i -> sum_j g[i][j] x_j."""
    return f.substitute_linear(g.entries)


def is_invariant(group: FiniteMatrixGroup, f: Polynomial) -> bool:
    return all(apply_matrix(m, f) == f for m in group.generators())


class GradedDims:
    """Dimension table d -> dim of the degree-d graded piece."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        self.dims = tuple(int(d) for d in dims)

    def __getitem__(self, d):
        return self.dims[d]

    def __len__(self):
        return len(self.dims)

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        return f"GradedDims({list(self.dims)})"


# ---------------------------------------------------------------------------
# degreewise invariant spaces
# ---------------------------------------------------------------------------

def invariant_space(group: FiniteMatrixGroup, d):
    """rref-canonical basis of the degree-d invariants, any characteristic.

    Joint kernel of rho_d(gen) - 1 over the generators.  Generators with one
    nonzero entry per row send monomials to single terms: their joint fixed
    space is read off orbit transports in linear time (the identity basis
    when there are none).  Each remaining generator then cuts that basis
    with one kernel, mapping only the monomials in the basis's support.
    """
    if d < 0:
        raise InvForgeError("degree must be >= 0")
    spec, nvars = group.spec, group.n
    if d == 0:
        return [Polynomial.constant(spec, nvars, 1)]
    basis = monomials(nvars, d)
    gens = group.generators()
    monomial = [all(sum(not c.is_zero() for c in row) == 1 for row in g.entries)
                for g in gens]
    vectors = _orbit_fixed_vectors(
        spec, basis, [g for g, m in zip(gens, monomial) if m])
    for g, m in zip(gens, monomial):
        if not m and vectors:
            vectors = _kernel_cut(spec, basis, vectors, g)
    out = []
    for v in vectors:
        terms = {e: c for e, c in zip(basis, v) if not c.is_zero()}
        out.append(Polynomial(spec, nvars, terms))
    return out


def _monomial_image(spec, g, e):
    return apply_matrix(g, Polynomial.monomial(spec, g.rows, e))


def _orbit_fixed_vectors(spec, basis, gens):
    """Joint fixed vectors of generators sending monomial -> scalar*monomial.

    Transport coefficients along generator moves; a component survives iff
    every loop has scalar 1.  Output is rref-canonical: within a component
    the lex-greatest monomial carries coefficient 1.
    """
    index = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    moves = [[] for _ in range(n)]  # i -> list of (j, lam): gen maps m_i to lam*m_j
    for g in gens:
        for i, e in enumerate(basis):
            (f, c), = _monomial_image(spec, g, e).terms.items()
            moves[i].append((index[f], c))
    zero, one = spec.zero(), spec.one()
    coeff = [None] * n
    comp = [None] * n
    vectors = []
    for root in range(n):
        if comp[root] is not None:
            continue
        comp_id = len(vectors)
        comp[root] = comp_id
        coeff[root] = one
        stack = [root]
        members = [root]
        consistent = True
        while stack:
            i = stack.pop()
            for j, lam in moves[i]:
                # f invariant and f_i on m_i forces f_j = lam * f_i on m_j
                want = coeff[i] * lam
                if comp[j] is None:
                    comp[j] = comp_id
                    coeff[j] = want
                    members.append(j)
                    stack.append(j)
                elif comp[j] != comp_id or coeff[j] != want:
                    if comp[j] != comp_id:
                        raise InvForgeError("inconsistent orbit bookkeeping")
                    consistent = False
        if consistent:
            v = [zero] * n
            scale = coeff[root].inverse()  # root is lex-greatest in its component
            for m in members:
                v[m] = coeff[m] * scale
            vectors.append(v)
        else:
            vectors.append(None)
    return [v for v in vectors if v is not None]


def _kernel_cut(spec, basis, rows, g):
    """rref basis of the vectors in span(rows) that g fixes; rows is an rref
    basis (the identity, orbit-transport output or an earlier cut).

    Only the monomials in the rows' support are mapped: (rho(g) - 1) * row
    combines their moved images with the row's coefficients on them.
    """
    index = {e: i for i, e in enumerate(basis)}
    support = sorted({i for row in rows for i, c in enumerate(row) if not c.is_zero()})
    moved = []
    for i in support:
        image = coefficient_vector(_monomial_image(spec, g, basis[i]), index)
        image[i] = image[i] - spec.one()
        moved.append(image)
    cols = combine_rows(spec, [[row[i] for i in support] for row in rows], moved)
    ker = kernel(Matrix(spec, cols).transpose())
    # No second elimination: for C the rref kernel basis and R the rref
    # rows, row j of C * R is C[j][i] at R's i-th pivot column and zero left
    # of R[q_j]'s pivot (q_j the pivot of C[j]), so C * R is rref already.
    return combine_rows(spec, ker.basis, rows)


def check_degree_bound(d_max):
    if d_max < 0:
        raise InvForgeError("d_max must be >= 0")


def hilbert_dims(group: FiniteMatrixGroup, d_max) -> GradedDims:
    check_degree_bound(d_max)
    return GradedDims([len(invariant_space(group, d)) for d in range(d_max + 1)])


# ---------------------------------------------------------------------------
# Molien series (characteristic 0)
# ---------------------------------------------------------------------------

def molien_series(group: FiniteMatrixGroup, d_max) -> GradedDims:
    """Coefficients of (1/|G|) sum_g 1/det(1 - t g) up to degree d_max.

    Elements are bucketed by characteristic polynomial; each bucket's series
    inverse is a linear recurrence of length n.
    """
    check_degree_bound(d_max)
    if group.spec.characteristic() != 0:
        raise ModularityError("Molien series requires characteristic 0")
    spec, n = group.spec, group.n
    buckets = {}
    for m in group.elements:
        # det(1 - t g) = sum_k c_k t^k for char poly x^n + c_1 x^{n-1} + ...
        den = _berkowitz(m)
        key = tuple(c.rep for c in den)
        if key in buckets:
            buckets[key][1] += 1
        else:
            buckets[key] = [den, 1]
    totals = [spec.zero() for _ in range(d_max + 1)]
    for den, count in buckets.values():
        inv = [spec.one()]
        for m_ in range(1, d_max + 1):
            acc = spec.zero()
            for k in range(1, min(m_, n) + 1):
                acc = acc + den[k] * inv[m_ - k]
            inv.append(-acc)
        cnt = spec.from_int(count)
        for d in range(d_max + 1):
            totals[d] = totals[d] + cnt * inv[d]
    order = spec.from_int(group.order)
    dims = []
    for d, tot in enumerate(totals):
        val = (tot / order).as_rational()
        if val.denominator != 1 or val < 0:
            raise InvForgeError(f"non-integral Molien coefficient at degree {d}")
        dims.append(int(val))
    return GradedDims(dims)


# ---------------------------------------------------------------------------
# Reynolds projection
# ---------------------------------------------------------------------------

def reynolds(group: FiniteMatrixGroup, f: Polynomial) -> Polynomial:
    """(1/|G|) sum_g f(g x); projection onto invariants when char does not divide |G|."""
    p = group.spec.characteristic()
    if p and group.order % p == 0:
        raise ModularityError("Reynolds projection needs char not dividing |G|")
    total = Polynomial.zero(group.spec, group.n)
    for m in group.elements:
        total = total + apply_matrix(m, f)
    return total.scale(group.spec.from_int(group.order).inverse())


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

class GeneratorSet:
    """Minimal homogeneous generators with degrees and their gcd e."""

    __slots__ = ("group", "generators", "e", "d_max")

    def __init__(self, group, generators, d_max):
        self.group = group
        self.generators = tuple(generators)  # (degree, Polynomial), degree ascending
        self.d_max = d_max
        degs = [d for d, _ in generators]
        self.e = math.gcd(*degs) if degs else 0

    @property
    def degrees(self):
        return [d for d, _ in self.generators]

    @property
    def polynomials(self):
        return [p for _, p in self.generators]

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GeneratorSet(degrees {self.degrees}, e = {self.e})"


def minimal_generators(group: FiniteMatrixGroup, d_max=None) -> GeneratorSet:
    """Degree-by-degree minimal generators of the invariant ring.

    d_max defaults to |G| (valid bound whenever char does not divide |G|);
    the modular case requires an explicit bound.  In characteristic 0 the
    Molien series prunes degrees that products of earlier generators
    already fill.
    """
    p = group.spec.characteristic()
    modular = p != 0 and group.order % p == 0
    if d_max is None:
        if modular:
            raise ModularityError(
                "modular case: pass an explicit degree bound d_max")
        d_max = group.order
    check_degree_bound(d_max)
    mol = None
    if p == 0:
        mol = molien_series(group, d_max)
    gens = []
    power_cache = {}
    for d in range(1, d_max + 1):
        target_dim = mol[d] if mol is not None else None
        if target_dim == 0:
            continue
        basis_order = monomials(group.n, d)
        idx = {e: i for i, e in enumerate(basis_order)}
        span = EchelonBasis(group.spec)
        polys = [f for _, f in gens]
        for expo in weighted_monomials([dg for dg, _ in gens], d):
            span.insert(coefficient_vector(
                _power_product(polys, expo, power_cache), idx))
        if target_dim is not None and len(span) == target_dim:
            continue
        space = invariant_space(group, d)
        if target_dim is None and len(span) == len(space):
            continue
        for f in space:
            normalized = span.insert(coefficient_vector(f, idx))
            if normalized is None:
                continue
            terms = {basis_order[i]: c for i, c in enumerate(normalized)
                     if not c.is_zero()}
            gens.append((d, Polynomial(group.spec, group.n, terms)))
    return GeneratorSet(group, gens, d_max)


def _power_product(polys, expo, power_cache):
    """prod_i polys[i] ** expo[i] for a nonzero exponent tuple expo.

    power_cache maps (i, a) -> polys[i] ** a and is shared across calls.
    """
    prod = None
    for i, a in enumerate(expo):
        if a:
            if (i, a) not in power_cache:
                power_cache[i, a] = polys[i] ** a
            prod = (power_cache[i, a] if prod is None
                    else prod * power_cache[i, a])
    return prod


def scaled_torus_exponents(gs: GeneratorSet):
    """Generator degrees divided by their gcd; overall gcd of the output is 1."""
    if not gs.generators:
        return []
    return [d // gs.e for d in gs.degrees]


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

class Relation:
    """A polynomial in generator symbols y_1..y_m vanishing on the generators."""

    __slots__ = ("poly", "weighted_degree", "degrees")

    def __init__(self, poly, weighted_degree, degrees):
        self.poly = poly
        self.weighted_degree = weighted_degree
        self.degrees = tuple(degrees)

    def support(self):
        return sorted(self.poly.terms.keys(), reverse=True)

    def __repr__(self):
        return f"Relation({self.poly.render(self._names())} at wdeg {self.weighted_degree})"

    def _names(self):
        return tuple(f"y{i + 1}" for i in range(self.poly.nvars))


def find_relation(gs: GeneratorSet, wdeg_max):
    """Lowest-weighted-degree relation among the generators, or None.

    Returns the rref-canonical kernel element of the evaluation map
    {monomials in y of weighted degree w} -> k[x].
    """
    group = gs.group
    spec = group.spec
    check_degree_bound(wdeg_max)
    m = len(gs.generators)
    degrees, polys = gs.degrees, gs.polynomials
    power_cache = {}
    for w in range(1, wdeg_max + 1):
        expos = weighted_monomials(degrees, w)
        if len(expos) < 2:
            continue
        idx = {x: i for i, x in enumerate(monomials(group.n, w))}
        rows = [coefficient_vector(_power_product(polys, e, power_cache), idx)
                for e in expos]
        ker = kernel(Matrix(spec, rows).transpose())
        if ker.dim:
            coeffs = ker.basis[0]
            terms = {e: c for e, c in zip(expos, coeffs) if not c.is_zero()}
            lead = max(terms)
            poly = Polynomial(spec, m, terms).scale(terms[lead].inverse())
            return Relation(poly, w, degrees)
    return None


def check_presented_automorphism(rel: Relation, images):
    """True iff substituting the images into the relation lands in (relation).

    Exact single-divisor division in the generator-symbol ring; valid for
    hypersurface presentations (one relation)."""
    if len(images) != rel.poly.nvars:
        raise InvForgeError("need one image per generator symbol")
    composed = rel.poly.compose(images)
    if composed.is_zero():
        return True
    return rel.poly.divides(composed)


# ---------------------------------------------------------------------------
# pseudo-reflection reduction
# ---------------------------------------------------------------------------

class ReductionReport:
    """Outcome of the reflection-subgroup reduction k[x]^G = k[basics]^(G/W)."""

    __slots__ = ("applicable", "reflection_group", "basics", "coset_action",
                 "reason")

    def __init__(self, applicable, reflection_group, basics, coset_action, reason):
        self.applicable = applicable
        self.reflection_group = reflection_group
        self.basics = basics
        self.coset_action = coset_action  # list of (coset rep index, Matrix)
        self.reason = reason

    def __repr__(self):
        state = "ok" if self.applicable else f"not applicable ({self.reason})"
        return f"ReductionReport({state})"


def cst_quotient_action(group: FiniteMatrixGroup) -> ReductionReport:
    """Quotient by the reflection subgroup, acting on its basic invariants.

    W = subgroup generated by all pseudo-reflections; its invariant ring is
    verified to be polynomial (n generators, degree product = |W|).  The
    returned action expresses each coset representative on the basics when
    that action is linear degree-by-degree; otherwise the report is flagged
    not-applicable.
    """
    p = group.spec.characteristic()
    if p and group.order % p == 0:
        raise ModularityError("reduction defined for char not dividing |G|")
    spec, n = group.spec, group.n
    w = reflection_subgroup(group)
    basics = minimal_generators(w, d_max=w.order)
    prod = math.prod(basics.degrees)
    if len(basics) != n or prod != w.order:
        raise InvForgeError(
            "reflection subgroup invariants are not polynomial "
            f"(found {len(basics)} generators, degree product {prod}, |W| = {w.order})")
    # coset representatives of G/W inside G (minimal index per coset)
    _, coset_of = group.table_group().quotient(
        group.subgroup_closure(pseudo_reflections(group)))
    reps = []
    for x, c in enumerate(coset_of):
        if c == len(reps):
            reps.append(x)
    action = []
    for rep in reps:
        mat_rows = [[spec.zero()] * n for _ in range(n)]
        g_mat = group.elements[rep]
        for j, (dj, bj) in enumerate(basics.generators):
            img = apply_matrix(g_mat, bj)
            sol = _express_in_basics(spec, group.n, img, basics, dj)
            if sol is None:
                return ReductionReport(
                    False, w, basics, None,
                    f"coset representative {rep} does not act linearly on the basics")
            for i_, c in sol:
                mat_rows[i_][j] = c
        action.append((rep, Matrix(spec, mat_rows)))
    return ReductionReport(True, w, basics, action, None)


def _express_in_basics(spec, nvars, img, basics, degree):
    """img as a linear combination of the basics of the same degree, or None."""
    same = [(i, b) for i, (d, b) in enumerate(basics.generators) if d == degree]
    basis_order = monomials(nvars, degree)
    idx = {e: i for i, e in enumerate(basis_order)}
    cols = [coefficient_vector(b, idx) for _, b in same]
    cols.append(coefficient_vector(img, idx))
    aug = Matrix(spec, cols).transpose()
    red, pivots = aug.rref()
    k = len(same)
    if k in pivots:
        return None  # target outside the span
    sol = [spec.zero()] * k
    for r, pc in enumerate(pivots):
        sol[pc] = red.entries[r][k]
    return [(same[i][0], sol[i]) for i in range(k)]
