"""Graded automorphism data of an invariant ring.

The graded automorphisms of k[x]^G come from the normalizer of G in GL_n
modulo G itself.  Computable pieces: the centralizer algebra (its dimension,
and whether it is a split torus over the declared field), and the outer
automorphism classes of G realized by GL_n-conjugation, each certified by an
explicit intertwiner.  The report describes the splitting-field object; the
group of rational points of the quotient can be larger, which is surfaced
as a note rather than computed.
"""

from __future__ import annotations

import itertools
import math

from .errors import CertificateError, FieldError, InvForgeError
from .groups import (FiniteMatrixGroup, GroupAutomorphism,
                     is_diagonalizable_over_k, natural_character,
                     outer_classes)
from .invariants import Relation, check_presented_automorphism
from .linalg import (Matrix, commutant_basis, intertwiner_space,
                     is_split_diagonalizable)
from .poly import Polynomial, parse_polynomial


def intertwiner(group: FiniteMatrixGroup, phi: GroupAutomorphism):
    """Invertible T with T g T^(-1) = phi(g) on generators, or None.

    Conjugation preserves traces in every characteristic, so a class with
    tr rho(g) != tr rho(phi g) for some g (one per conjugacy class: phi maps
    classes to classes) is refused before any solve.
    Otherwise the linear system T rho(g) = rho(phi g) T is solved over the
    declared field and an invertible element of the solution space is
    searched among its basis, then on a small deterministic grid of basis
    combinations.
    """
    chi = natural_character(group)
    if any(chi[cls[0]] != chi[phi(cls[0])] for cls in group.conjugacy_classes()):
        return None
    gens = group.generator_indices
    basis = intertwiner_space([group.elements[gi] for gi in gens],
                              [group.elements[phi(gi)] for gi in gens])
    if not basis:
        return None
    for t in basis:
        if t.is_invertible():
            return t
    return _invertible_combination(group.spec, basis, group.n)


def _invertible_combination(spec, basis, n):
    """Search c in a grid of n+1 distinct values for an invertible sum c_i basis_i.

    det is a polynomial of degree <= n on the solution space, so if an
    invertible element exists it is nonzero somewhere on the grid (for a
    finite field smaller than the grid, fall back to full enumeration).
    The grid is 0..n, topped up from the field's elements when the
    characteristic is too small for those integers to be distinct.
    """
    if spec.kind == "finite" and spec.size() <= n + 1:
        coords = spec.elements()
    else:
        coords = list(dict.fromkeys(spec.from_int(k) for k in range(n + 1)))
        if len(coords) <= n:
            coords = list(dict.fromkeys(coords + spec.elements()))[:n + 1]
    for c in itertools.product(coords, repeat=len(basis)):
        t = Matrix.zero(spec, n, n)
        for x, b in zip(c, basis):
            if not x.is_zero():
                t = t + b * x
        if t.rows and t.is_invertible():
            return t
    return None


def verify_intertwiner(group, phi, t):
    """Exact check of T rho(g) = rho(phi g) T on all generators."""
    for gi in group.generator_indices:
        if t * group.elements[gi] != group.elements[phi(gi)] * t:
            return False
    return True


class RealizedOuter:
    """A nontrivial outer class realized by conjugation, with its witness."""

    __slots__ = ("automorphism", "intertwiner")

    def __init__(self, automorphism, matrix):
        self.automorphism = automorphism
        self.intertwiner = matrix

    def __repr__(self):
        return f"RealizedOuter({self.automorphism.perm})"


class NormalizerReport:
    """Computable description of the graded automorphism group data."""

    __slots__ = ("group", "commutant_dim", "torus_rank", "torus_split",
                 "center_order", "realized_outer", "outer_class_count",
                 "notes")

    def __init__(self, group, commutant_dim, torus_rank, torus_split,
                 center_order, realized_outer, outer_class_count, notes):
        self.group = group
        self.commutant_dim = commutant_dim
        self.torus_rank = torus_rank
        self.torus_split = torus_split
        self.center_order = center_order
        self.realized_outer = realized_outer
        self.outer_class_count = outer_class_count
        self.notes = notes

    @property
    def realized_outer_group_order(self):
        return len(self.realized_outer) + 1

    def as_dict(self):
        return {
            "commutant_dim": self.commutant_dim,
            "torus_rank": self.torus_rank,
            "torus_split": self.torus_split,
            "center_order": self.center_order,
            "realized_outer_count": len(self.realized_outer),
            "realized_outer_group_order": self.realized_outer_group_order,
            "outer_class_count": self.outer_class_count,
            "notes": list(self.notes),
        }

    def __repr__(self):
        return (f"NormalizerReport(commutant {self.commutant_dim}, "
                f"split={self.torus_split}, outer realized "
                f"{len(self.realized_outer)}/{self.outer_class_count - 1})")


def normalizer_report(group: FiniteMatrixGroup, aut_bound=None) -> NormalizerReport:
    """Centralizer dimension, torus splitting, realized outer classes, notes."""
    kwargs = {} if aut_bound is None else {"bound": aut_bound}
    commutant = commutant_basis(group.generators())
    cdim = len(commutant)
    split = is_split_diagonalizable(commutant)
    classes = outer_classes(group, **kwargs)
    realized = []
    for rep in classes:
        if rep.inner:
            continue
        t = intertwiner(group, rep)
        if t is not None:
            if not verify_intertwiner(group, rep, t):
                raise CertificateError("intertwiner fails T g T^(-1) = phi(g)")
            realized.append(RealizedOuter(rep, t))
    center_order = len(group.center_indices())
    notes = [
        "graded automorphism group = (commutant unit group) extended by the "
        "realized outer classes, modulo the image of the group itself",
        "this report describes the splitting-field object; the group of "
        "rational points of the quotient can be larger than the quotient of "
        "rational points",
    ]
    if not split:
        notes.append("commutant is a non-split algebra over the declared field; "
                     "torus rank is reported as the raw algebra dimension")
    if cdim == 1 and not realized:
        notes.append("normalizer = group times scalars; quotient by the group "
                     "is a 1-dimensional torus (scalars modulo the center)")
    if is_diagonalizable_over_k(group):
        notes.append("group is diagonalizable over the declared field: monomial "
                     "automorphisms commute with it, so the non-linear centralizer "
                     "is infinite dimensional")
    return NormalizerReport(
        group=group,
        commutant_dim=cdim,
        torus_rank=cdim,
        torus_split=split,
        center_order=center_order,
        realized_outer=realized,
        outer_class_count=len(classes),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# graded automorphisms of the A_{n-1} family x^2 - d y^2 = z^n
# ---------------------------------------------------------------------------

class AnAutDescription:
    __slots__ = ("d", "n", "split", "branch", "description", "verified")

    def __init__(self, d, n, split, branch, description, verified):
        self.d = d
        self.n = n
        self.split = split
        self.branch = branch
        self.description = description
        self.verified = verified

    def as_dict(self):
        return {
            "d": self.d.render(),
            "n": self.n,
            "split": self.split,
            "branch": self.branch,
            "description": self.description,
            "verified": self.verified,
        }

    def __repr__(self):
        return f"AnAutDescription({self.branch}: {self.description})"


def _is_square(d):
    spec = d.spec
    if spec.kind == "finite":
        q = spec.size()
        if q % 2 == 0:
            raise InvForgeError("square classes undefined in characteristic 2 here")
        return (d ** ((q - 1) // 2)) == spec.one()
    try:
        val = d.as_rational()
    except FieldError as exc:
        raise InvForgeError(
            "square test supported for rational and finite-field values") from exc
    if val < 0:
        return False
    num, den = val.numerator, val.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return rn * rn == num and rd * rd == den


def graded_aut_of_An(d, n: int) -> AnAutDescription:
    """Branchwise description of the graded automorphisms of x^2 - d y^2 = z^n.

    Split case (d a square): elementary automorphisms exist, the group is
    infinite dimensional.  Non-split: the orthogonal similitude group of
    x^2 - d y^2 acts, with an odd/even branch in n; the sample actions are
    verified against the relation by exact substitution.
    """
    spec = d.spec
    if n < 2:
        raise InvForgeError("n must be >= 2")
    p = spec.characteristic()
    if p and (2 * n) % p == 0:
        raise InvForgeError("requires characteristic not dividing 2n")
    split = _is_square(d)
    if split:
        verified = _verify_split_sample(spec, n)
        return AnAutDescription(
            d, n, True, "split",
            "split: infinite-dimensional (elementary automorphisms exist)",
            verified)
    r = (n - 1) // 2 if n % 2 else n // 2
    if n % 2:
        desc = ("GO(x^2 - d*y^2) acting via N -> det^(-r)*N*N^(2r+1) "
                f"(r = {r}); the reflection descends to (x, y) -> (-x, y)")
        branch = "odd-nonsplit"
    else:
        desc = ("Gm x O(x^2 - d*y^2): (lambda, M) scales z by lambda and "
                f"(x, y) by lambda^r times M (r = {r}); the reflection "
                "descends to (x, y) -> (x, -y)")
        branch = "even-nonsplit"
    verified = _verify_nonsplit_sample(d, n, r)
    return AnAutDescription(d, n, False, branch, desc, verified)


def _relation_xy_zn(spec, n):
    rel_poly = parse_polynomial("x1*x2 - x3^" + str(n), 3, spec,
                                var_names=("x1", "x2", "x3"))
    return Relation(rel_poly, 2 * n, (1, 1, 1))


def _verify_split_sample(spec, n):
    rel = _relation_xy_zn(spec, n)
    x = Polynomial.variable(spec, 3, 0)
    y = Polynomial.variable(spec, 3, 1)
    zvar = Polynomial.variable(spec, 3, 2)
    ok = True
    for p_of_x in (x, x * x):
        shift = x * p_of_x
        numerator = (zvar + shift) ** n - zvar ** n
        quo, rem = numerator.divmod_single(x)
        if not rem.is_zero():
            return False
        images = [x, y + quo, zvar + shift]
        ok = ok and check_presented_automorphism(rel, images)
    return ok


def _relation_x2_dy2_zn(d, n):
    spec = d.spec
    x = Polynomial.variable(spec, 3, 0)
    y = Polynomial.variable(spec, 3, 1)
    zvar = Polynomial.variable(spec, 3, 2)
    rel_poly = x * x - (y * y).scale(d) - zvar ** n
    return Relation(rel_poly, 2 * n, (1, 1, 1)), x, y, zvar


def go_sample_matrix(d, c, s):
    """[[c, d*s], [s, c]] in GO(x^2 - d y^2), similitude factor c^2 - d s^2."""
    spec = d.spec
    return Matrix(spec, [[c, d * s], [s, c]])


def _apply_pair(m, x, y, factor):
    new_x = (x.scale(m.entries[0][0]) + y.scale(m.entries[0][1])).scale(factor)
    new_y = (x.scale(m.entries[1][0]) + y.scale(m.entries[1][1])).scale(factor)
    return new_x, new_y


def orthogonal_sample_matrix(d):
    """A nontrivial rational point of c^2 - d s^2 = 1 (needs d != 1)."""
    spec = d.spec
    one = spec.one()
    denom = one - d
    c = (one + d) / denom
    s = spec.from_int(2) / denom
    return go_sample_matrix(d, c, s)


def _verify_nonsplit_sample(d, n, r):
    spec = d.spec
    rel, x, y, zvar = _relation_x2_dy2_zn(d, n)
    one = spec.one()
    ok = True
    if n % 2:
        # similitudes act: (x, y) -> det^r M (x, y), z -> det z
        for m in (go_sample_matrix(d, one, one),
                  go_sample_matrix(d, spec.from_int(2), one)):
            det = m.det()
            if det.is_zero():
                continue
            new_x, new_y = _apply_pair(m, x, y, det ** r)
            ok = ok and check_presented_automorphism(rel, [new_x, new_y,
                                                           zvar.scale(det)])
        # the descended reflection (x, y) -> (-x, y)
        ok = ok and check_presented_automorphism(rel, [-x, y, zvar])
    else:
        # (lambda, M) with M orthogonal: (x, y) -> lambda^r M (x, y), z -> lambda z
        m = orthogonal_sample_matrix(d)
        if m.det() != one:
            raise CertificateError("orthogonal sample must preserve the form")
        for lam in (spec.from_int(2), spec.from_int(3)):
            new_x, new_y = _apply_pair(m, x, y, lam ** r)
            ok = ok and check_presented_automorphism(rel, [new_x, new_y,
                                                           zvar.scale(lam)])
        # the descended reflection (x, y) -> (x, -y)
        ok = ok and check_presented_automorphism(rel, [x, -y, zvar])
    return ok
