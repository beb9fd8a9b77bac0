"""Graded invariant rings of finite matrix groups.

Degreewise invariant spaces, Hilbert dimension tables, the Molien series,
Reynolds projection, minimal generators with their degree gcd, scaled torus
exponents, lowest-degree relations, and the pseudo-reflection reduction.

The action used throughout is f |-> f(g x): substitute variable i by the
linear form given by row i of g.  A polynomial is G-invariant iff it is
fixed by this substitution for every generator, in any characteristic.
"""

from __future__ import annotations

import itertools
import math
import types

from .errors import (CertificateError, FieldError, InvForgeError,
                     ModularityError, check_enumeration_bound)
from .groups import FiniteMatrixGroup, reflection_subgroup
from .fields import FieldElement, _berkowitz, degree_one_reduction
from .linalg import EchelonBasis, Matrix, combine_rows, kernel
from .poly import Polynomial, _int_mul, _int_terms
from .tables import cayley_closure, extend_map


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
    Both read the monomial images from `_monomial_images`, which builds
    rho_d(gen) from the rho_(d-1)(gen) of the previous call when it can.
    Only `spec`, `n`, `generators()` and `_cache` of group are read.
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
        spec, basis, [_monomial_images(group, g, basis)
                      for g, m in zip(gens, monomial) if m])
    for g, m in zip(gens, monomial):
        if not m:
            vectors = _kernel_cut(group, basis, vectors, g)
    out = []
    for v in vectors:
        terms = {e: c for e, c in zip(basis, v) if not c.is_zero()}
        out.append(Polynomial(spec, nvars, terms))
    return out


def _monomial_images(group, g, exponents):
    """(integer-term dict, den) of g . x^e for each exponent tuple e of one
    degree d >= 1, g a generator of group.

    A generator whose rows are single-term forms c_i x_(v_i) sends x^e to
    the one term (prod_i c_i^(e_i)) prod_i x_(v_i)^(e_i), over den^d; the
    powers of each c_i are kept in group._cache across degrees.  For any
    other generator group._cache keeps the images of the last degree asked
    (only the monomials asked).  At degree d, x^e is x^(e - e_j) * x_j for
    j the last variable with e_j > 0: when the image of x^(e - e_j) is
    cached, g . x^e is that image times the linear form g . x_j.  Otherwise
    (the first degree, or a jump such as e8's 12 -> 20 -> 30, where the
    sparse support makes repeated squaring cheaper than a chain of
    products) it is the substitution `apply_matrix`.
    """
    spec, key = group.spec, ("monomial images", g)
    if key not in group._cache:
        forms, _, den = _int_terms(spec, [Polynomial.linear(spec, row)
                                          for row in g.entries])
        # powers[i][a - 1] = c_i^a for a single-term row i, else None
        powers = ([list(f.values()) for f in forms]
                  if all(len(f) == 1 for f in forms) else None)
        group._cache[key] = forms, den, 0, {}, powers
    forms, den, last, known, powers = group._cache[key]
    d = sum(exponents[0])
    current = known if last == d else {}
    scale = spec._row_scale
    out = []
    for e in exponents:
        if e not in current and powers is not None:
            f, x = [0] * group.n, None
            for form, row, a in zip(forms, powers, e):
                if a:
                    while len(row) < a:
                        row.append(scale(row[0], [row[-1]])[0])
                    (unit,) = form
                    f[unit.index(1)] += a
                    x = row[a - 1] if x is None else scale(x, [row[a - 1]])[0]
            current[e] = {tuple(f): x}, den ** d
        elif e not in current:
            j = max(i for i, a in enumerate(e) if a)
            prev = e[:j] + (e[j] - 1,) + e[j + 1:]
            if last == d - 1 and prev in known:
                terms, prev_den = known[prev]
                # the form outermost: one _row_scale of the image per term
                current[e] = _int_mul(spec, forms[j], terms), prev_den * den
            else:
                image = apply_matrix(g, Polynomial.monomial(spec, group.n, e))
                (terms,), _, image_den = _int_terms(spec, [image])
                current[e] = terms, image_den
        out.append(current[e])
    group._cache[key] = forms, den, d, current, powers
    return out


def _orbit_fixed_vectors(spec, basis, images):
    """Joint fixed vectors of generators sending monomial -> scalar*monomial,
    given by their `_monomial_images` of basis, one list per generator.

    Each orbit of monomials is one `cayley_closure` from its least index
    (its lex-greatest monomial) under the generator moves m_i -> lam * m_j.
    An invariant with coefficient 1 at the root has f_j = lam * f_i on every
    edge, which `extend_map` carries over the orbit; an orbit with a
    disagreeing edge holds no invariant.  Output is rref-canonical.
    """
    index = {e: i for i, e in enumerate(basis)}
    n = len(basis)
    moves = []  # per generator (targets, scalars): m_i -> scalars[i] m_targets[i]
    for gen_images in images:
        targets, scalars = [], []
        for terms, den in gen_images:
            (f, x), = terms.items()
            lam, = spec._reps_of_int_row([x], den)
            targets.append(index[f])
            scalars.append(FieldElement(spec, lam))
        moves.append((targets, scalars))
    zero, one = spec.zero(), spec.one()
    seen = [False] * n
    vectors = []
    for root in range(n):
        if seen[root]:
            continue
        orbit = cayley_closure(root, moves, lambda i, move: move[0][i], int, n)
        for i in orbit[0]:
            seen[i] = True
        f = extend_map(orbit, n, one, lambda i, fi, k: fi * moves[k][1][i])
        if f is not None:
            v = [zero] * n
            for i in orbit[0]:
                v[i] = f[i]
            vectors.append(v)
    return vectors


def _kernel_cut(group, basis, rows, g):
    """rref basis of the vectors in span(rows) that g fixes; rows is an rref
    basis (the identity, orbit-transport output or an earlier cut).

    Only the monomials in the rows' support are mapped: (rho(g) - 1) * row
    combines their moved images with the row's coefficients on them.  A
    full-rank rref basis is the identity (the first cut's input when no
    generator is monomial, as on m7): then the moved images are those
    columns and the kernel basis is the cut, with no combine_rows on
    either side.  No rows cut to no rows.
    """
    if not rows:
        return []
    spec = group.spec
    zero, one = spec.zero(), spec.one()
    index = {e: i for i, e in enumerate(basis)}
    full = len(rows) == len(basis)
    if full:
        support = range(len(basis))
    else:
        support = sorted({i for row in rows for i, c in enumerate(row)
                          if not c.is_zero()})
    moved = []
    images = _monomial_images(group, g, [basis[i] for i in support])
    for i, (terms, den) in zip(support, images):
        vec = [zero] * len(basis)
        for e, r in zip(terms, spec._reps_of_int_row(list(terms.values()), den)):
            vec[index[e]] = FieldElement(spec, r)
        vec[i] = vec[i] - one
        moved.append(vec)
    cols = moved if full else combine_rows(
        spec, [[row[i] for i in support] for row in rows], moved)
    ker = kernel(Matrix(spec, cols).transpose())
    if full:
        return ker.basis
    # No second elimination: for C the rref kernel basis and R the rref
    # rows, row j of C * R is C[j][i] at R's i-th pivot column and zero left
    # of R[q_j]'s pivot (q_j the pivot of C[j]), so C * R is rref already.
    return combine_rows(spec, ker.basis, rows)


def check_degree_bound(d_max):
    if d_max < 0:
        raise InvForgeError("d_max must be >= 0")


def hilbert_dims(group: FiniteMatrixGroup, d_max) -> GradedDims:
    """dim of the degree-d invariants, d = 0 .. d_max.

    In characteristic 0, counted by `invariant_space` on the generators mod
    a degree-1 prime P, p prime to |G| (Kemper and Steel 1999): dim_P >=
    dim_K, as a minor nonzero mod P is nonzero over K, and they are equal,
    as the Reynolds idempotent over O_P reduces to one of the same rank.  A
    dim_P is taken where it is the Molien coefficient; elsewhere the exact
    `invariant_space` over K decides."""
    check_degree_bound(d_max)
    gens = group.generators()
    reduction = degree_one_reduction(
        group.spec, [c.rep for g in gens for row in g.entries for c in row],
        group.order)
    if reduction is None:
        return GradedDims([len(invariant_space(group, d)) for d in range(d_max + 1)])
    field, reduce = reduction
    images = [Matrix(field, [[FieldElement(field, reduce(c.rep)) for c in row]
                             for row in g.entries]) for g in gens]
    mod_p = types.SimpleNamespace(spec=field, n=group.n, _cache={},
                                  generators=lambda: images)
    molien = molien_series(group, d_max)
    dims = [len(invariant_space(mod_p, d)) for d in range(d_max + 1)]
    return GradedDims([dim if dim == molien[d] else len(invariant_space(group, d))
                       for d, dim in enumerate(dims)])


# ---------------------------------------------------------------------------
# Molien series (characteristic 0)
# ---------------------------------------------------------------------------

def molien_series(group: FiniteMatrixGroup, d_max) -> GradedDims:
    """Coefficients of (1/|G|) sum_g 1/det(1 - t g) up to degree d_max.

    Conjugacy classes (one Berkowitz call each) are bucketed by characteristic
    polynomial with their sizes; each bucket's series inverse is a linear
    recurrence of length n over its nonzero coefficients.  The recurrences
    and the sum weighted by bucket size run on representatives
    (`spec._add`, `_mul`, `_neg`); FieldElements are built for the totals
    only.  group._cache keeps each bucket's recurrence with the series so
    far: a smaller d_max is its truncation, and a larger one extends the
    recurrences without taking a characteristic polynomial again.
    """
    check_degree_bound(d_max)
    if group.spec.characteristic() != 0:
        raise ModularityError("Molien series requires characteristic 0")
    spec = group.spec
    zero, one = spec.zero().rep, spec.one().rep
    if "molien series" not in group._cache:
        buckets = {}  # det(1 - t g) as representatives -> number of elements
        for cls in group.conjugacy_classes():
            # det(1 - t g) = sum_k c_k t^k for char poly x^n + c_1 x^{n-1} + ...
            den = _berkowitz(group.elements[cls[0]].entries, spec.zero(),
                             spec.one())
            key = tuple(c.rep for c in den)
            buckets[key] = buckets.get(key, 0) + len(cls)
        # per bucket: its taps (k, c_k), size and series inverse so far
        group._cache["molien series"] = [
            ([(k, c) for k, c in enumerate(den) if k and not spec._is_zero(c)],
             spec._const(count), []) for den, count in buckets.items()], []
    recurrences, dims = group._cache["molien series"]
    add, mul = spec._add, spec._mul
    order = spec.from_int(group.order)
    for d in range(len(dims), d_max + 1):
        total = zero
        for taps, count, inv in recurrences:
            acc = zero
            for k, c in taps:
                if k <= d:
                    acc = add(acc, mul(c, inv[d - k]))
            # assigned, not appended: a degree refused below is redone
            inv[d:] = [spec._neg(acc) if d else one]
            total = add(total, mul(count, inv[d]))
        val = (FieldElement(spec, total) / order).as_rational()
        if val.denominator != 1 or val < 0:
            raise InvForgeError(f"non-integral Molien coefficient at degree {d}")
        dims.append(int(val))
    return GradedDims(dims[:d_max + 1])


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
    the modular case requires an explicit bound, and so does a group whose
    degree-|G| monomials exceed the enumeration bound.  In characteristic 0
    the Molien series prunes degrees that products of earlier generators
    already fill, and the search stops earlier, at the bound
    `_cohen_macaulay_bound` reads off the first homogeneous system of
    parameters among the generators (tested below the last degree only,
    where a stop can still shorten the search); the series is extended only
    as far as the degrees the search reaches.
    """
    p = group.spec.characteristic()
    modular = p != 0 and group.order % p == 0
    if d_max is None:
        if modular:
            raise ModularityError(
                "modular case: pass an explicit degree bound d_max")
        d_max = group.order
        check_enumeration_bound(
            math.comb(d_max + group.n - 1, group.n - 1),
            f"degree-{d_max} monomial (the default bound |G|; pass --max-degree)")
    check_degree_bound(d_max)
    gens = []
    power_cache = {}
    reduced = None  # (F_p, reduce, generators mod P)
    stop = d_max  # lowered once, to the Cohen-Macaulay bound of an hsop
    for d in range(1, d_max + 1):
        if d > stop:
            break
        target_dim = molien_series(group, d)[d] if p == 0 else None
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
        new = len(gens)
        for f in space:
            normalized = span.insert(coefficient_vector(f, idx))
            if normalized is None:
                continue
            terms = {basis_order[i]: c for i, c in enumerate(normalized)
                     if not c.is_zero()}
            gens.append((d, Polynomial(group.spec, group.n, terms)))
        if p == 0 and stop == d_max > d and len(gens) >= group.n:
            reduced = _reduce_generators(group.spec, [f for _, f in gens], reduced)
            if reduced is not None:
                stop = _cohen_macaulay_bound(group, gens, new, reduced, d_max) or stop
    return GeneratorSet(group, gens, d_max)


def _cohen_macaulay_bound(group, gens, new, reduced, d_max):
    """A degree bound for the minimal generators in characteristic 0, from
    the first n of the (degree, polynomial) pairs gens, one at index >= new,
    whose reductions mod the P of `reduced`, or else mod the least other
    degree-1 prime, are an hsop; None if none are.

    Full rank mod P is full rank over K (a minor nonzero mod P is nonzero
    over K); less proves nothing.  Only subsets with |G| dividing
    prod d_i = [k(x) : k(f)] can be an hsop, and only those with D <= d_max
    are tried, so the rank test has no more columns than a degree the search
    may reach.  The ring is Cohen-Macaulay (Hochster-Eagon), so it is free
    over k[f] on prod d_i / |G| secondaries whose degrees are the exponents
    of N(t) = Molien(t) prod (1 - t^d_i), none above sum d_i - n (Stanley
    1979).  Primaries and secondaries generate: the bound is max(d_i, deg N).
    N up to degree sum d_i - n must be >= 0 and add up to prod d_i / |G|,
    else `CertificateError`.
    """
    n, (field, _, images) = group.n, reduced
    check_enumeration_bound(math.comb(len(gens), n) - math.comb(new, n),
                            "hsop candidate subset")
    for i in range(new, len(gens)):
        for rest in itertools.combinations(range(i), n - 1):
            subset = rest + (i,)
            ds = [gens[j][0] for j in subset]
            product = math.prod(ds)
            if product % group.order or sum(ds) - n + 1 > d_max:
                continue
            if not _is_hsop(field, ds, [images[j] for j in subset]):
                # an unlucky P is retried once, at another degree-1 prime
                retry, _, again = _reduce_generators(
                    group.spec, [gens[j][1] for j in subset], None,
                    field.characteristic())
                if not _is_hsop(retry, ds, again):
                    continue
            numer = list(molien_series(group, sum(ds) - n).dims)
            for dj in ds:  # times 1 - t^dj, truncated
                numer = [c - (numer[k - dj] if k >= dj else 0)
                         for k, c in enumerate(numer)]
            if min(numer) < 0 or sum(numer) * group.order != product:
                factors = "".join(f"(1 - t^{dj})" for dj in ds)
                raise CertificateError(
                    f"Molien series times {factors} is not a count of "
                    f"{product}/{group.order} secondary invariants")
            return max(max(ds), max(k for k, c in enumerate(numer) if c))
    return None


def _is_hsop(field, degs, forms):
    """True iff the n forms over `field` in n variables, of degrees degs, are
    a homogeneous system of parameters: iff the products m * f_i, m of degree
    D - d_i, span all monomials of degree D = sum (d_i - 1) + 1.  k[x]/(f)
    is finite-dimensional iff it vanishes in degree D, since for an hsop its
    Hilbert series prod (1 + t + .. + t^(d_i - 1)) has degree D - 1."""
    n = len(forms)
    top = sum(degs) - n + 1
    idx = {e: k for k, e in enumerate(monomials(n, top))}
    span = EchelonBasis(field)
    for f, dg in zip(forms, degs):
        for m in monomials(n, top - dg):
            span.insert(coefficient_vector(Polynomial.monomial(field, n, m) * f, idx))
            if len(span) == len(idx):
                return True
    return False


def _reduce_generators(spec, polys, reduced, skip=1):
    """(F_p, reduce, polys mod P) at the prime P of `reduced` while every
    generator is P-integral, else at a prime picked again over all of
    them, p not dividing skip; None when there is no reduction."""
    if reduced is not None:
        field, reduce, images = reduced
        try:
            images = images + [_reduce_polynomial(field, reduce, f)
                               for f in polys[len(images):]]
            return field, reduce, images
        except FieldError:
            pass
    reduction = degree_one_reduction(
        spec, [c.rep for f in polys for c in f.terms.values()], skip)
    if reduction is None:
        return None
    field, reduce = reduction
    return field, reduce, [_reduce_polynomial(field, reduce, f) for f in polys]


def _reduce_polynomial(field, reduce, f):
    return Polynomial(field, f.nvars, {e: FieldElement(field, reduce(c.rep))
                                       for e, c in f.terms.items()})


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
    least = group.coset_representatives([group.index_of(m) for m in w.elements])
    reps = [x for x, r in enumerate(least) if r == x]
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
