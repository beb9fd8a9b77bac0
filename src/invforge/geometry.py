"""Finite-geometry checks: projective fixed points, multiplicity bounds over
F_q, parabolic-invariant hypersurfaces, deleted permutation modules, and the
elementary-abelian rank obstruction on projective images."""

from __future__ import annotations

import itertools
import math

from .errors import InvForgeError, NotInvariantError, check_enumeration_bound
from .fields import FieldSpec, _power
from .groups import FiniteMatrixGroup
from .invariants import apply_matrix
from .linalg import Matrix, simultaneous_eigenvectors, spin_submodule
from .poly import Polynomial
from . import tables


class ProjPoint:
    """Projective point, normalized so the first nonzero coordinate is 1."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = list(coords)
        lead = next((c for c in coords if not c.is_zero()), None)
        if lead is None:
            raise InvForgeError("projective point needs a nonzero vector")
        inv = lead.inverse()
        self.coords = tuple(c * inv for c in coords)

    def __eq__(self, other):
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def render(self):
        return "(" + " : ".join(c.render() for c in self.coords) + ")"

    def __repr__(self):
        return f"ProjPoint{self.render()}"


def projective_fixed_points(group: FiniteMatrixGroup):
    """Common eigenlines of the group over its declared field, normalized."""
    lines = simultaneous_eigenvectors(group.generators())
    points = [ProjPoint(v) for v in lines]
    points.sort(key=lambda p: tuple(str(c.spec._coefficients(c.rep)) for c in p.coords))
    return points


# ---------------------------------------------------------------------------
# multiplicities over finite fields
# ---------------------------------------------------------------------------

def multiplicity_at_point(f: Polynomial, point):
    """Lowest total degree of f(x + point); 0 iff f(point) != 0."""
    if f.is_zero():
        raise InvForgeError("multiplicity of the zero polynomial is undefined")
    return f.translate(point).min_degree()


def _translate_terms(f):
    """T: the term products one translate f(x + p) costs in `compose`.

    Each term x^e of f expands to prod (e_i + 1) terms before like terms
    are collected, after each (x_i + p_i)^(e_i) is built by `_power`.  That
    squaring is counted by running `_power` on exponents: (x + p)^r has
    r + 1 terms.
    """
    products = []

    def mul(r, s):
        products.append((r + 1) * (s + 1))
        return r + s

    for expo in f.terms:
        products.append(math.prod(e + 1 for e in expo))
        for e in expo:
            if e:
                _power(1, e, mul)
    return sum(products)


class MultReport:
    """Multiplicity bookkeeping for one polynomial over a finite field."""

    __slots__ = ("poly", "poly_degree", "points", "total", "bound", "verdict",
                 "notes")

    def __init__(self, poly, poly_degree, points, total, bound, verdict,
                 notes=None):
        self.poly = poly
        self.poly_degree = poly_degree
        self.points = points          # list of (point tuple, multiplicity > 0)
        self.total = total
        self.bound = bound
        self.verdict = verdict
        self.notes = list(notes or [])

    def as_dict(self):
        return {
            "degree": self.poly_degree,
            "vanishing_points": len(self.points),
            "total": self.total,
            "bound": self.bound,
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def __repr__(self):
        return (f"MultReport(total {self.total} <= {self.bound}: "
                f"{self.verdict})")


def check_claim_51(f: Polynomial, n=None):
    """Sum of multiplicities over all F_q-points against q^(n-1) * deg f."""
    if f.is_zero():
        raise InvForgeError("zero polynomial")
    spec = f.spec
    if spec.kind != "finite":
        raise InvForgeError("multiplicity sums run over a finite field")
    n = n if n is not None else f.nvars
    if n < 1:
        raise InvForgeError("the bound q^(n-1) * deg f needs n >= 1")
    q = spec.size()
    check_enumeration_bound(q ** n, "point")
    check_enumeration_bound(q ** n * _translate_terms(f), "translate term")
    deg = f.total_degree()
    total = 0
    vanishing = []
    for pt in itertools.product(spec.elements(), repeat=n):
        m = multiplicity_at_point(f, pt)
        if m > 0:
            vanishing.append((pt, m))
            total += m
    bound = q ** (n - 1) * deg
    return MultReport(f, deg, vanishing, total, bound, total <= bound)


# ---------------------------------------------------------------------------
# parabolic-invariant hypersurfaces
# ---------------------------------------------------------------------------

def parabolic_generators(spec: FieldSpec, n):
    """Generators of the stabilizer of the hyperplane (x1 = 0) in GL_n(F_q).

    Unipotent radical: e1 -> e1 + c*ei; Levi: GL_{n-1} on e2..en plus the
    scalar on e1.
    """
    if spec.kind != "finite":
        raise InvForgeError("parabolic subgroup defined over a finite field")
    gens = []
    one, zero = spec.one(), spec.zero()
    for i in range(1, n):
        for c in [spec.gen() ** k for k in range(spec.degree)]:
            m = [[one if a == b else zero for b in range(n)] for a in range(n)]
            m[i][0] = c
            gens.append(Matrix(spec, m))
    # Levi block GL_{n-1}: a cycle, a transvection, a diagonal generator
    mult_gen = _multiplicative_generator(spec)
    if n >= 3:
        cyc = [[zero] * n for _ in range(n)]
        cyc[0][0] = one
        for i in range(1, n):
            cyc[i][1 + (i % (n - 1))] = one
        gens.append(Matrix(spec, cyc))
        tv = [[one if a == b else zero for b in range(n)] for a in range(n)]
        tv[1][2] = one
        gens.append(Matrix(spec, tv))
    if n >= 2:
        dg = [[one if a == b else zero for b in range(n)] for a in range(n)]
        dg[1][1] = mult_gen
        gens.append(Matrix(spec, dg))
        sc = [[one if a == b else zero for b in range(n)] for a in range(n)]
        sc[0][0] = mult_gen
        gens.append(Matrix(spec, sc))
    return gens


def _multiplicative_generator(spec):
    """A generator of the cyclic group F_q^*: the first element whose walk
    of powers 1, e, e^2, ... has q - 1 elements."""
    q = spec.size()
    for e in spec.elements():
        if not e.is_zero() and len(tables.cayley_closure(
                spec.one(), [e], lambda x, g: x * g, lambda x: x.rep,
                q - 1)[0]) == q - 1:
            return e
    raise InvForgeError("no multiplicative generator found")


def _is_semi_invariant(h, m):
    """h(m x) = lambda * h for some scalar lambda (hypersurface invariance)."""
    img = apply_matrix(m, h)
    if img.is_zero() != h.is_zero():
        return False
    e, c = h.leading()
    if e not in img.terms:
        return False
    lam = img.terms[e] / c
    return img == h.scale(lam)


def all_projective_linear_forms(spec, n):
    """Product of all linear forms with first nonzero coefficient 1."""
    if n > 0:
        q = spec.size()
        # the product of the D = (q^n - 1)/(q - 1) forms may have every
        # monomial of degree D in n variables; bounding D first keeps the
        # binomial itself cheap
        forms = (q ** n - 1) // (q - 1)
        check_enumeration_bound(forms, "projective point")
        check_enumeration_bound(math.comb(forms + n - 1, n - 1), "product monomial")
        # the k-th partial product has up to C(k + n - 1, n - 1) terms, each
        # multiplied by the n terms of a form: n * C(D + n - 1, n) in all
        check_enumeration_bound(n * math.comb(forms + n - 1, n), "product term")
    prod = Polynomial.constant(spec, n, 1)
    for coeffs in _normalized_vectors(spec, n):
        prod = prod * Polynomial.linear(spec, coeffs)
    return prod


def _normalized_vectors(spec, n):
    """The vectors of F_q^n whose first nonzero coordinate is 1, one per
    point of P^(n-1)(F_q), by leading position, then in coefficient order."""
    q = spec.size()
    check_enumeration_bound((q ** n - 1) // (q - 1), "projective point")
    zero, one = spec.zero(), spec.one()
    for lead in range(n):
        for tail in itertools.product(spec.elements(), repeat=n - lead - 1):
            yield (zero,) * lead + (one,) + tail


def check_parabolic_claim(h, q=None, n=None):
    """Max multiplicity off (x1 = 0) of a parabolic-invariant hypersurface,
    with the verdict q * max_mult <= deg h.

    h = None uses the product of all projective linear forms.  The report
    notes log the closed-form degree/multiplicity formulas
    (q^(n-1)-1)/(q-1) and, for n >= 2, (q^(n-2)-1)/(q-1) next to the
    computed values; the convention behind those formulas is not asserted,
    only logged.
    """
    if h is None:
        h = all_projective_linear_forms(FieldSpec.finite_field(q), n)
    spec = h.spec
    n = h.nvars
    if n < 1:
        raise InvForgeError("the hyperplane x1 = 0 needs n >= 1")
    if spec.kind != "finite":
        raise InvForgeError("parabolic claim runs over a finite field")
    q = spec.size()
    check_enumeration_bound(q ** (n - 1), "chart point")
    if h.is_zero():
        raise InvForgeError("zero polynomial")
    if not h.is_homogeneous():
        raise InvForgeError("hypersurface input must be homogeneous")
    for g in parabolic_generators(spec, n):
        if not _is_semi_invariant(h, g):
            raise NotInvariantError(
                "polynomial is not invariant under the hyperplane stabilizer",
                violating_generator=g)
    deg = h.total_degree()
    # affine chart x1 = 1: h(1, x2, ..., xn) in the last n - 1 variables
    one = spec.one()
    dehom = h.compose([Polynomial.constant(spec, n - 1, 1)]
                      + [Polynomial.variable(spec, n - 1, i) for i in range(n - 1)])
    check_enumeration_bound(q ** (n - 1) * _translate_terms(dehom), "translate term")
    max_mult = 0
    argmax = None
    witnesses = []
    for pt in itertools.product(spec.elements(), repeat=n - 1):
        m = multiplicity_at_point(dehom, pt) if not dehom.is_zero() else 0
        if m > 0:
            witnesses.append(((one,) + pt, m))
        if m > max_mult:
            max_mult = m
            argmax = (one,) + pt
    verdict = q * max_mult <= deg
    closed_form = f"deg = (q^(n-1)-1)/(q-1) = {(q ** (n - 1) - 1) // (q - 1)}"
    if n >= 2:  # q ** (n - 2) is a float for n < 2
        closed_form += (f", mult = (q^(n-2)-1)/(q-1) = "
                        f"{(q ** (n - 2) - 1) // (q - 1)}")
    notes = [
        f"computed: deg = {deg}, max multiplicity off (x1=0) = {max_mult}",
        "closed-form values for comparison (not asserted): " + closed_form,
    ]
    if argmax is not None:
        notes.append("max attained at " +
                     "(" + " : ".join(c.render() for c in argmax) + ")")
    return MultReport(h, deg, witnesses, max_mult, deg, verdict, notes)


# ---------------------------------------------------------------------------
# deleted permutation module
# ---------------------------------------------------------------------------

def permutation_of_matrix(m: Matrix):
    """The permutation sigma with m e_j = e_sigma(j); error if not a 0/1 matrix."""
    n = m.rows
    sigma = [None] * n
    one = m.spec.one()
    for j in range(n):
        hits = [i for i in range(n) if not m.entries[i][j].is_zero()]
        if len(hits) != 1 or m.entries[hits[0]][j] != one:
            raise InvForgeError("matrix is not a permutation matrix")
        sigma[j] = hits[0]
    if sorted(sigma) != list(range(n)):
        raise InvForgeError("matrix is not a permutation matrix")
    return sigma


def deleted_permutation_module(perms, n, p):
    """Matrices of the permutation action on the deleted module over F_p.

    For p not dividing n: the submodule {sum x_i = 0} with basis e_i - e_n;
    for p dividing n: the quotient F_p^n / <(1,...,1)> with basis the images
    of e_1..e_{n-1}.  The two are isomorphic when p does not divide n.
    """
    spec = FieldSpec.finite_field(p)
    one, zero = spec.one(), spec.zero()
    mats = []
    for sigma in perms:
        cols = []
        for i in range(n - 1):
            col = [zero] * (n - 1)
            if n % p != 0:
                # sigma(e_i - e_n) = e_{sigma(i)} - e_{sigma(n)} = b_{sigma(i)} - b_{sigma(n)}
                if sigma[i] != n - 1:
                    col[sigma[i]] = col[sigma[i]] + one
                if sigma[n - 1] != n - 1:
                    col[sigma[n - 1]] = col[sigma[n - 1]] - one
            elif sigma[i] != n - 1:
                col[sigma[i]] = one
            else:
                # quotient: e_n = -(e_1 + ... + e_{n-1}) modulo the all-ones vector
                col = [c - one for c in col]
            cols.append(col)
        mats.append(Matrix(spec, list(zip(*cols))))
    return spec, mats


def perm_module_irreducible(group: FiniteMatrixGroup, p):
    """Irreducibility of the deleted permutation module over F_p.

    Deterministic: spins one vector per projective line (scalar multiples
    generate the same submodule); irreducible iff every spin is everything.
    """
    n = group.n
    check_enumeration_bound(p ** (n - 1), "module")
    perms = [permutation_of_matrix(m) for m in group.generators()]
    spec, mats = deleted_permutation_module(perms, n, p)
    return all(spin_submodule(mats, vec).dim == n - 1
               for vec in _normalized_vectors(spec, n - 1))


# ---------------------------------------------------------------------------
# rank obstruction on the projective image
# ---------------------------------------------------------------------------

class RankReport:
    __slots__ = ("ell", "rank", "needed", "hypothesis_holds", "scalar_order",
                 "image_order")

    def __init__(self, ell, rank, needed, hypothesis_holds, scalar_order,
                 image_order):
        self.ell = ell
        self.rank = rank
        self.needed = needed
        self.hypothesis_holds = hypothesis_holds
        self.scalar_order = scalar_order
        self.image_order = image_order

    def as_dict(self):
        return {
            "ell": self.ell,
            "rank": self.rank,
            "needed": self.needed,
            "hypothesis_holds": self.hypothesis_holds,
            "scalar_order": self.scalar_order,
            "image_order": self.image_order,
        }

    def __repr__(self):
        return (f"RankReport(rank {self.rank} vs needed {self.needed}: "
                f"{self.hypothesis_holds})")


def rank_obstruction(group: FiniteMatrixGroup, ell) -> RankReport:
    """Elementary abelian rank of the image modulo scalars, against n-1.

    Reports only whether the elementary-abelian hypothesis behind the
    irreducibility criteria holds; conclusions about the action itself are
    out of reach of a rank computation and are not asserted.
    """
    if ell == group.spec.characteristic():
        raise InvForgeError("ell must differ from the field characteristic")
    scalars = group.scalar_indices()
    rank = tables.elementary_abelian_rank(group.table_group(), ell, scalars)
    needed = group.n - 1
    return RankReport(ell, rank, needed, rank >= needed, len(scalars),
                      group.order // len(scalars))
