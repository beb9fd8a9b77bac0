"""Exact arithmetic in finite fields F_{p^m} and number fields Q[z]/(m(z)).

Q is the number field Q[z]/(z).  Cyclotomic fields are number fields with
the n-th cyclotomic polynomial as modulus; they additionally carry the
conjugation automorphism z -> z^(n-1).  Elements are canonical
representatives: a coefficient tuple over F_q, an integer tuple over a
denominator in a number field (over Q, the 1-tuple of the numerator of a
reduced fraction).  Everything here is immutable and hashable, so values
can be shared.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from fractions import Fraction
from functools import lru_cache

from .errors import (CertificateError, EntryParseError, FieldError,
                     check_enumeration_bound)

_ZERO = Fraction(0)  # shared: Fractions are immutable

RATIONAL = "rational"
FINITE = "finite"
NUMBER_FIELD = "number_field"


# ---------------------------------------------------------------------------
# univariate polynomials over Z or F_p (coefficient lists, c[0] = const)
# ---------------------------------------------------------------------------

def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _power(x, e, mul):
    """x^e for e >= 1 by repeated squaring with the product `mul`."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def _reduced_product(a, b, tail):
    """a * b for coefficient sequences of length m = len(tail), reduced from
    the top down with z^m = sum tail[i] z^i (coefficients not put in normal
    form).  Only nonzero pairs of entries are multiplied."""
    m = len(tail)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    taps = [(i, t) for i, t in enumerate(tail) if t]
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k]
        if c:
            base = k - m
            for i, t in taps:
                prod[base + i] += c * t
    del prod[m:]
    return prod


def _berkowitz(rows, zero, one):
    """Coefficients [1, c_1, .., c_n] of det(xI - A), highest degree first,
    for the square matrix A with these rows, over any commutative ring with
    this zero and one (FieldElements, or ints).

    Berkowitz's division-free recursion, valid in every characteristic.
    For the leading principal submatrix A = [[M, C], [R, a]], the Schur
    complement of xI - M gives det(xI - A) = det(xI - M) *
    (x - a - sum_k R M^k C x^(-k-1)); the product is a polynomial, and its
    coefficients need only k < dim M.
    """
    coeffs = [one]
    for r in range(len(rows)):
        M, R = [row[:r] for row in rows[:r]], rows[r][:r]
        v = [row[r] for row in rows[:r]]  # C, then M^k C
        col = [one, -rows[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(operator.mul, row, v), zero) for row in M]
            col.append(-sum(map(operator.mul, R, v), zero))
        coeffs = [sum((col[i - j] * coeffs[j] for j in range(min(i, r) + 1)), zero)
                  for i in range(r + 2)]
    return coeffs


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n < 1:
        raise FieldError(f"cyclotomic index must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_coeffs(d)  # monic: the long division stays in Z
            quo = [0] * (len(poly) - len(phi) + 1)
            for k in reversed(range(len(quo))):
                c = quo[k] = poly[k + len(phi) - 1]
                for i, x in enumerate(phi):
                    poly[k + i] -= c * x
            if any(poly):
                raise CertificateError(f"Phi_{d} does not divide z^{n} - 1")
            poly = quo
    return tuple(poly)


def is_irreducible_coeffs(coeffs, p):
    """Irreducibility of a univariate polynomial over F_p (degree <= 12).

    Ben-Or's test: f of degree m is irreducible iff gcd(f, z^(p^d) - z) = 1
    for every d <= m/2, that is iff z^(p^d) - z is a unit of F_p[z]/(f),
    which holds iff its norm (`_scaled_inverse`) is nonzero mod p.
    """
    f = _trim(c % p for c in coeffs)
    m = len(f) - 1
    if m < 1:
        raise FieldError("irreducibility test needs degree >= 1")
    if m > 12:
        raise FieldError(f"irreducibility test supports degree <= 12, got {m}")
    if m == 1:
        return True
    lead_inv = pow(f[-1], p - 2, p)
    ring = FiniteField(p, [c * lead_inv % p for c in f])  # F_p[z]/(f / lead)
    z = frob = ring.gen()
    for _ in range(m // 2):
        frob = frob ** p  # z^(p^d) from z^(p^(d-1))
        if not ring._scaled_inverse((frob - z).rep)[1] % p:
            return False
    return True


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _divisors(n):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def rational_root_candidates(num, den):
    """The rational-root theorem's candidates +-r/s for r | num, s | den (both > 0).

    Order: r over the divisors of num, then s over those of den, then +
    before -; repeats such as 2/2 are not filtered.
    """
    for r in _divisors(num):
        for s in _divisors(den):
            for sign in (1, -1):
                yield Fraction(sign * r, s)


def _signed_fraction(c):
    """(string of |c|, c < 0) for an int or Fraction coefficient."""
    return str(abs(c)), c < 0


def _z_power(k):
    """The monomial string of z^k: "" for a constant."""
    return "" if k == 0 else "z" if k == 1 else f"z^{k}"


def _join_terms(terms):
    """Expression of a sum of (monomial, |c| string, c < 0) terms c*monomial,
    in order; the monomial is "" for a constant."""
    out = []
    for monomial, coeff_str, negative in terms:
        if not monomial:
            body = coeff_str
        else:
            body = monomial if coeff_str == "1" else f"{coeff_str}*{monomial}"
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# field specifications: one arithmetic kernel per kind
# ---------------------------------------------------------------------------

class FieldSpec:
    """One of F_{p^m} = F_p[z]/(modulus) or Q[z]/(min_poly), Q being Q[z]/(z).

    Immutable; use the constructors `rationals`, `finite_field`,
    `number_field`, `cyclotomic`.  Equality and hashing are structural.
    There are two arithmetic kernels, one per coefficient ring: FiniteField
    and NumberField (RationalField is the NumberField of modulus z, with its
    own name and no generator).  Each works on raw representatives: `_add`,
    `_sub`, `_neg`, `_mul`, `_is_zero`, `_inv` and the constant constructor
    `_const`.  An element is a polynomial in z of degree < deg modulus, and
    each kind keeps one fact about its modulus, its integral tail `_tail`,
    which `_reduced_product` and `_scaled_inverse` read.  `_reduced_product`
    multiplies only nonzero pairs of entries; above degree 2 the
    number-field row primitives keep zero entries and rational scalars
    away from it.

    Each kernel also gives the integer-row primitives behind
    `linalg.EchelonBasis`, `linalg.combine_rows` (so `Matrix.__mul__`) and
    the `Polynomial` products.  An integer row represents a row of field
    elements up to a positive integer factor, in a per-kind integer
    representation: `int` tuples over a number field (1-tuples over Q), the
    representatives themselves over F_q.  `_int_add` and `_int_is_zero` are
    `_add` and `_is_zero` on integer-row entries.

    - `_int_row(reps)`: (integer row, positive integer den) with
      reps = row / den;
    - `_integral_inverse(a)`: (A, D) with a * A = D, D a positive integer;
    - `_row_scale(A, row)`: A * row;
    - `_row_combine(D, row, F, piv)`: D * row - F * piv, the elimination
      step, D a positive integer;
    - `_row_primitive(row)`: (row / g, g) for the integer content g of row
      (g = 1 when there is nothing to divide);
    - `_reps_of_int_row(row, d)`: the representatives of row / d.
    """

    __slots__ = ("p", "modulus", "cyclotomic_n", "degree", "_hash", "_tail")
    kind = None

    def __init__(self, modulus, p=None, cyclotomic_n=None):
        self.p = p
        self.modulus = tuple(modulus)
        self.cyclotomic_n = cyclotomic_n
        self.degree = len(self.modulus) - 1
        self._hash = hash((self.kind, p, self.modulus, cyclotomic_n))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals():
        return _RATIONALS

    @staticmethod
    def finite_field(p, modulus=None):
        """F_p for modulus None, else F_p[z]/(modulus) with modulus monic irreducible."""
        if not _is_prime(p):
            raise FieldError(f"finite field characteristic must be prime, got {p}")
        if modulus is None:
            modulus = (0, 1)  # z: representatives are the constants, i.e. F_p itself
        mod = _trim([int(c) % p for c in modulus])
        if len(mod) < 2:
            raise FieldError("finite field modulus must have degree >= 1")
        if mod[-1] != 1:
            raise FieldError("finite field modulus must be monic")
        if len(mod) - 1 >= 2:
            if len(mod) - 1 <= 12:
                if not is_irreducible_coeffs(mod, p):
                    raise FieldError("finite field modulus is reducible over F_p")
            else:
                warnings.warn("finite field modulus degree > 12: irreducibility not verified")
        return FiniteField(p=p, modulus=mod)

    @staticmethod
    def number_field(min_poly):
        """Q[z]/(min_poly), min_poly monic with rational coefficients.

        Irreducibility over Q is checked up to degree 8 (rational-root test
        plus modular irreducibility probes); larger degrees are accepted with
        a warning and errors surface later as non-invertible elements.
        """
        mp = _trim(Fraction(c) for c in min_poly)
        if len(mp) < 2:
            raise FieldError("number field min_poly must have degree >= 1")
        if mp[-1] != 1:
            raise FieldError("number field min_poly must be monic")
        _check_min_poly_irreducible(mp)
        return NumberField(modulus=mp)

    @staticmethod
    def cyclotomic(n):
        """Q(zeta_n) presented as Q[z]/(Phi_n)."""
        if n < 1:
            raise FieldError(f"cyclotomic index must be >= 1, got {n}")
        coeffs = tuple(Fraction(c) for c in cyclotomic_coeffs(n))
        return NumberField(modulus=coeffs, cyclotomic_n=n)

    # -- basic protocol ------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldSpec) and self.kind == other.kind
            and self.p == other.p and self.modulus == other.modulus
            and self.cyclotomic_n == other.cyclotomic_n)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec({self.describe()})"

    # -- properties (infinite fields; FiniteField overrides) -----------------

    def characteristic(self):
        return 0

    def size(self):
        """Number of elements; raises for infinite fields."""
        raise FieldError("infinite field has no size")

    def elements(self):
        """All elements of a finite field, in deterministic coefficient order."""
        raise FieldError("cannot enumerate an infinite field")

    # -- element constructors --------------------------------------------

    def zero(self):
        return FieldElement(self, self._const(0))

    def one(self):
        return FieldElement(self, self._const(1))

    def from_int(self, k):
        return FieldElement(self, self._const(k))

    from_fraction = from_int

    def gen(self):
        """The class of z."""
        if self.degree == 1:
            # z reduces to a constant modulo a degree-1 modulus
            return FieldElement(self, self._const(-self.modulus[0]))
        return FieldElement(self, self._from_coefficients(
            (0, 1) + (0,) * (self.degree - 2)))

    def _as_rational(self, rep):
        raise FieldError("element is not a rational constant")

    def _coefficients(self, rep):
        """What rendering reads: the z^k coefficients in normal form."""
        return rep

    def conjugate_element(self, elt):
        """Complex conjugation z -> z^(n-1) on a cyclotomic field."""
        raise FieldError("conjugation requires a cyclotomic field spec")

    # -- shared kernel pieces --------------------------------------------

    def _is_zero(self, a):
        return not any(a)

    _int_is_zero = _is_zero

    def _scaled_inverse(self, a):
        """(A, N) with a * A = N = +-norm(a) for an int tuple a in the basis
        z^k of `_tail`, by Cayley-Hamilton on the matrix of multiplication by a
        (Cohen, GTM 138, 4.3): its characteristic polynomial x^m + c_1
        x^(m-1) + .. + c_m kills a, so a * -(a^(m-1) + .. + c_(m-1)) = c_m.
        A rational a uses x - a0 instead, and m = 2 the closed form Tr a - a.
        """
        m, tail = self.degree, self._tail
        if not any(a[1:]):
            return (1,) + (0,) * (m - 1), a[0]
        if m == 2:
            # z^2 = t0 + t1 z: N = a0^2 + t1 a0 a1 - t0 a1^2
            (t0, t1), (a0, a1) = tail, a
            return (a0 + t1 * a1, -a1), a0 * a0 + t1 * a0 * a1 - t0 * a1 * a1
        z, cols = (0, 1) + (0,) * (m - 2), [list(a)]  # the columns a * z^k
        for _ in range(m - 1):
            cols.append(_reduced_product(cols[-1], z, tail))
        charpoly = _berkowitz(list(zip(*cols)), 0, 1)
        acc = list(a)  # Horner: a^(m-1) + c_1 a^(m-2) + .. + c_(m-1)
        acc[0] += charpoly[1]
        for c in charpoly[2:m]:
            acc = _reduced_product(acc, a, tail)
            acc[0] += c
        return tuple(-x for x in acc), charpoly[m]

    @staticmethod
    def _not_invertible(a):
        """The error for a of norm 0: zero, or a zero divisor of the modulus."""
        return FieldError("division by zero" if not any(a) else
                          "element not invertible (reducible modulus?)")

    def _render(self, rep):
        return _join_terms((_z_power(k),) + self._render_coeff(c)
                           for k, c in enumerate(self._coefficients(rep)) if c)


class FiniteField(FieldSpec):
    """F_p[z]/(modulus), F_p itself for modulus z; coefficients are ints mod p."""

    __slots__ = ()
    kind = FINITE
    _from_coefficients = staticmethod(tuple)

    def __init__(self, p, modulus):
        super().__init__(modulus, p=p)
        self._tail = tuple(self._red(-c) for c in self.modulus[:self.degree])

    def describe(self):
        if self.degree == 1:
            return f"finite({self.p})"
        return f"finite({self.p}, {render_univariate(self.modulus)})"

    def characteristic(self):
        return self.p

    def size(self):
        """Number of elements."""
        return self.p ** self.degree

    def elements(self):
        """All elements, in deterministic coefficient order."""
        check_enumeration_bound(self.size(), "field element")
        return [FieldElement(self, r)
                for r in itertools.product(range(self.p), repeat=self.degree)]

    def _red(self, c):
        return c % self.p

    def _cinv(self, c):
        return pow(c, self.p - 2, self.p)

    def _const(self, c):
        rep = [0] * self.degree
        rep[0] = int(c) % self.p
        return tuple(rep)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        den = fr.denominator % self.p
        if den == 0:
            raise FieldError("denominator not invertible in finite field")
        return FieldElement(self, self._const(fr.numerator * self._cinv(den)))

    def random_element(self, rng, height=10):
        return FieldElement(self, tuple(rng.randrange(self.p)
                                        for _ in range(self.degree)))

    def _add(self, a, b):
        p = self.p
        if self.degree == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    _int_add = _add

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        p = self.p
        if self.degree == 1:
            return ((a[0] * b[0]) % p,)
        return tuple(c % p for c in _reduced_product(a, b, self._tail))

    def _inv(self, a):
        A, N = self._scaled_inverse(a)
        p = self.p
        if not N % p:
            raise self._not_invertible(a)
        c = pow(N, p - 2, p)
        return tuple([x * c % p for x in A])

    @staticmethod
    def _render_coeff(c):
        return str(c), False

    # -- integer rows: the representatives, with D = 1 and no content -------

    def _int_row(self, reps):
        return list(reps), 1

    def _integral_inverse(self, a):
        return self._inv(a), 1

    def _row_scale(self, A, row):
        if self.degree == 1:
            p, a0 = self.p, A[0]
            return [(a0 * b0 % p,) for b0, in row]
        return [self._mul(A, x) for x in row]

    def _row_combine(self, D, row, F, piv):
        # D is always 1: every pivot is normalized to 1 by `_integral_inverse`
        if self.degree == 1:
            p, f = self.p, F[0]
            return [((a - f * b) % p,) for (a,), (b,) in zip(row, piv)]
        return [self._sub(a, self._mul(F, b)) for a, b in zip(row, piv)]

    def _row_primitive(self, row):
        return row, 1

    def _reps_of_int_row(self, row, d):
        return row


class NumberField(FieldSpec):
    """Q[z]/(min_poly), cyclotomic when cyclotomic_n is set.

    A representative (t, d) is sum t[k] z'^k / d: an int tuple t in the basis
    of z' = s*z, d > 0, gcd(t, d) = 1.  s is the least common denominator
    of min_poly, so z' has the monic integral minimal polynomial
    s^deg * min_poly(z'/s) and products of integer tuples stay integral.
    The integer-row primitives write out the cases of degree 1 (Q among
    others) and degree 2.  Above that, a zero entry passes through
    unchanged, and a rational scalar (A[1:] all zero, so its multiplication
    matrix is A[0] * I) scales each coefficient with no reduction; `_mul`
    is `_row_scale` on one entry and gets both.
    """

    __slots__ = ("_scale_powers", "_conjugation")
    kind = NUMBER_FIELD
    _render_coeff = staticmethod(_signed_fraction)

    def __init__(self, modulus, cyclotomic_n=None):
        super().__init__(modulus, cyclotomic_n=cyclotomic_n)
        deg = self.degree
        s = math.lcm(*(c.denominator for c in self.modulus))
        self._scale_powers = tuple(s ** k for k in range(deg))
        self._tail = tuple(int(-c * s ** (deg - k))
                           for k, c in enumerate(self.modulus[:deg]))
        self._conjugation = None

    def describe(self):
        if self.cyclotomic_n is not None:
            return f"cyclotomic({self.cyclotomic_n})"
        return f"number_field({render_univariate(self.modulus)})"

    def _const(self, c):
        c = Fraction(c)
        return (c.numerator,) + (0,) * (self.degree - 1), c.denominator

    def random_element(self, rng, height=10):
        return FieldElement(self, self._from_coefficients(
            [rng.randint(-height, height) for _ in range(self.degree)]))

    def _coefficients(self, rep):
        t, d = rep
        return tuple(Fraction(x * s, d) if x else _ZERO
                     for x, s in zip(t, self._scale_powers))

    def _from_coefficients(self, coeffs):
        # over den, the lcm of the reduced denominators, the content is 1
        fr = [Fraction(c, s) for c, s in zip(coeffs, self._scale_powers)]
        den = math.lcm(*(f.denominator for f in fr))
        return tuple(f.numerator * (den // f.denominator) for f in fr), den

    def _is_zero(self, a):
        return not any(a[0])

    def _add(self, a, b):
        (s, d), (t, e) = a, b
        if d == e:
            return _reduced(tuple(map(operator.add, s, t)), d)
        return _reduced(tuple(x * e + y * d for x, y in zip(s, t)), d * e)

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _neg(self, a):
        t, d = a
        return tuple(map(operator.neg, t)), d

    def _mul(self, a, b):
        (s, d), (t, e) = a, b
        return _reduced(self._row_scale(s, [t])[0], d * e)

    def _inv(self, a):
        t, d = a
        A, D = self._integral_inverse(t)
        return _reduced(tuple(d * x for x in A), D)

    def _as_rational(self, rep):
        (c, *rest), d = rep
        if any(rest):
            raise FieldError("element is not a rational constant")
        return Fraction(c, d)

    def conjugate_element(self, elt):
        if self.cyclotomic_n is None:
            return super().conjugate_element(elt)
        if self._conjugation is None:
            # columns of the integer map z^k -> zbar^k, zbar = z^(n-1): Phi_n
            # is monic integral, so s = 1 and powers of zbar have d = 1
            zbar = self.gen() ** (self.cyclotomic_n - 1)
            self._conjugation = tuple(zip(*((zbar ** k).rep[0] for k in range(self.degree))))
        t, d = elt.rep
        return FieldElement(self, _reduced(
            tuple(sum(map(operator.mul, t, col)) for col in self._conjugation), d))

    # -- integer rows: int tuples in the basis z'^k -------------------------

    def _int_add(self, a, b):
        if self.degree == 1:
            return (a[0] + b[0],)
        return tuple(map(operator.add, a, b))

    def _int_row(self, reps):
        den = math.lcm(*(d for _, d in reps))
        return [t if d == den else tuple([x * (den // d) for x in t])
                for t, d in reps], den

    def _integral_inverse(self, a):
        A, N = self._scaled_inverse(a)
        if not N:
            raise self._not_invertible(a)
        g = math.gcd(N, *A) if N > 0 else -math.gcd(N, *A)  # so that D > 0
        return (A, N) if g == 1 else (tuple([x // g for x in A]), N // g)

    def _row_scale(self, A, row):
        if self.degree == 1:
            a0, = A
            return [(a0 * b0,) for b0, in row]
        if self.degree == 2:
            # z'^2 = t0 + t1 z', so A * b = (a0 b0 + t0 a1 b1,
            # a1 b0 + (a0 + t1 a1) b1)
            (t0, t1), (a0, a1) = self._tail, A
            u, v = t0 * a1, a0 + t1 * a1
            return [(a0 * b0 + u * b1, a1 * b0 + v * b1) for b0, b1 in row]
        if not any(A[1:]):
            # a rational A multiplies like the integer a0 (its matrix is a0 I)
            a0 = A[0]
            return [tuple([a0 * x for x in b]) for b in row]
        tail = self._tail
        return [tuple(_reduced_product(A, b, tail)) if any(b) else b
                for b in row]

    def _row_combine(self, D, row, F, piv):
        if self.degree == 1:
            f0, = F
            return [(D * a0 - f0 * b0,) for (a0,), (b0,) in zip(row, piv)]
        if self.degree == 2:
            # z'^2 = t0 + t1 z', so F * b = (f0 b0 + t0 f1 b1,
            # f0 b1 + f1 b0 + t1 f1 b1)
            (t0, t1), (f0, f1) = self._tail, F
            u, v = t0 * f1, f0 + t1 * f1
            return [(D * a0 - f0 * b0 - u * b1, D * a1 - f1 * b0 - v * b1)
                    for (a0, a1), (b0, b1) in zip(row, piv)]
        if not any(F[1:]):
            f0 = F[0]
            return [tuple([D * x - f0 * y for x, y in zip(a, b)])
                    for a, b in zip(row, piv)]
        tail, out = self._tail, []
        for a, b in zip(row, piv):
            if any(b):
                a = tuple([D * x - y for x, y in zip(a, _reduced_product(F, b, tail))])
            elif D != 1:
                a = tuple([D * x for x in a])
            out.append(a)
        return out

    def _row_primitive(self, row):
        g = math.gcd(*itertools.chain.from_iterable(row))
        if g <= 1:
            return row, 1
        if self.degree == 1:
            return [(x // g,) for x, in row], g
        return [tuple(map(g.__rfloordiv__, t)) for t in row], g

    def _reps_of_int_row(self, row, d):
        return [_reduced(t, d) for t in row]


def _reduced(t, d):
    """The number-field representative of the int tuple t over d > 0."""
    g = math.gcd(d, *t)
    return (t, d) if g == 1 else (tuple([x // g for x in t]), d // g)


def degree_one_reduction(spec, reps):
    """(F_p, reduce) at a prime P of degree 1 of the number field `spec`;
    None over F_q, which needs no reduction.

    m' is the monic integral minimal polynomial of z' = s*z, the basis of
    the representatives.  p is the least prime >= 3 that does not divide
    disc(m') (so m' is squarefree mod p, p is unramified and Z[z'] is
    p-maximal), at which m' has a root mod p (r, the least one), and that
    divides no denominator of the representatives `reps`.  Such p exist
    beyond every bound (Schur: a nonconstant integer polynomial has roots
    modulo infinitely many primes), so the search ends.  P = (p, z' - r)
    has residue field F_p, and reduce((t, d)) = sum t_k r^k / d mod p is a
    ring homomorphism on the elements whose d is prime to p, which are
    P-integral.  It refuses any other element with FieldError.
    """
    if spec.characteristic():
        return None
    tail, m = spec._tail, spec.degree
    # the norm of m''(z') is +-Res(m', m'') = +-disc(m')
    disc = spec._scaled_inverse(
        tuple(-(k + 1) * tail[k + 1] for k in range(m - 1)) + (m,))[1]
    dens = {d for _, d in reps}
    for p in itertools.count(3):
        if _is_prime(p) and disc % p and all(d % p for d in dens):
            r = next((r for r in range(p) if (pow(r, m, p) - sum(
                t * pow(r, k, p) for k, t in enumerate(tail))) % p == 0), None)
            if r is not None:
                break
    powers = [pow(r, k, p) for k in range(m)]

    def reduce(rep):
        t, d = rep
        if not d % p:
            raise FieldError(f"denominator {d} is divisible by the prime {p}")
        return (sum(map(operator.mul, t, powers)) * pow(d, -1, p) % p,)

    return FieldSpec.finite_field(p), reduce


def _check_min_poly_irreducible(mp):
    deg = len(mp) - 1
    if deg == 1:
        return
    if deg > 8:
        warnings.warn("min_poly degree > 8: irreducibility not verified")
        return
    # clear denominators for the rational-root test
    den = math.lcm(*(c.denominator for c in mp))
    ip = [int(c * den) for c in mp]
    lead, const = ip[-1], ip[0]
    if const == 0:
        raise FieldError("min_poly is reducible over Q (root 0)")
    for root in rational_root_candidates(abs(const), abs(lead)):
        if sum(c * root ** i for i, c in enumerate(mp)) == 0:
            raise FieldError(f"min_poly is reducible over Q (root {root})")
    # modular probes: one irreducible reduction certifies irreducibility over Q
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if lead % p == 0 or den % p == 0:
            continue
        dinv = pow(den % p, p - 2, p)
        reduced = [(c * dinv) % p for c in ip]
        if len(_trim(reduced)) - 1 != deg:
            continue
        if is_irreducible_coeffs(reduced, p):
            return
    warnings.warn("min_poly irreducibility over Q not certified by modular probes")


class RationalField(NumberField):
    """Q as the number field Q[z]/(z): the representative ((n,), d) is the
    reduced fraction n / d."""

    __slots__ = ()
    kind = RATIONAL

    def __init__(self):
        super().__init__((0, 1))

    def describe(self):
        return "rational"

    def gen(self):
        raise FieldError("rational field has no generator z")

    def random_element(self, rng, height=10):
        den = rng.randint(1, height)
        return FieldElement(self, _reduced((rng.randint(-height, height),), den))


_RATIONALS = RationalField()


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Canonical element of a FieldSpec (immutable, hashable)."""

    __slots__ = ("spec", "rep", "_hash")

    def __init__(self, spec, rep):
        self.spec = spec
        self.rep = rep
        self._hash = None

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldError("field spec mismatch")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        if isinstance(other, Fraction):
            return self.spec.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._add(self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._sub(self.rep, other.rep))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._sub(other.rep, self.rep))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(self.rep, self.spec._inv(other.rep)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.spec, self.spec._mul(other.rep, self.spec._inv(self.rep)))

    def __neg__(self):
        return FieldElement(self.spec, self.spec._neg(self.rep))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, operator.mul) if e else self.spec.one()

    def inverse(self):
        return FieldElement(self.spec, self.spec._inv(self.rep))

    def is_zero(self):
        return self.spec._is_zero(self.rep)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self._coerce(other)
            except FieldError:
                return NotImplemented
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.rep == other.rep

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.rep))
        return self._hash

    def conjugate(self):
        return self.spec.conjugate_element(self)

    def as_rational(self):
        """The element as a Fraction, if it is a rational constant."""
        return self.spec._as_rational(self.rep)

    def render(self):
        """Canonical string in the entry grammar; parse_element round-trips it."""
        return self.spec._render(self.rep)

    def __repr__(self):
        return f"<{self.render()} in {self.spec.describe()}>"


# ---------------------------------------------------------------------------
# entry-expression parser
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := ['-'] (atom | '(' expr ')') ('^' uint)?
# atom   := int | int '/' int | 'z'
#
# Polynomials (poly.parse_polynomial) use the same grammar, with a variable
# name as one more atom.
#
# The unary minus is a superset of the published grammar so canonical renders
# of negative leading coefficients parse back.
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def take_uint(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise EntryParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def parse_element(text, spec):
    """Parse an entry expression to a canonical FieldElement of `spec`."""
    toks = _Tokens(text)
    value = _parse_expr(toks, lambda t: _parse_atom(t, spec))
    toks.skip_ws()
    if toks.pos != len(text):
        raise EntryParseError(f"unexpected character {text[toks.pos]!r}", toks.pos)
    return value


def _parse_expr(toks, atom):
    """expr over the values that `atom(toks)` parses (field elements or
    polynomials): the grammar is the same, apart from the atom."""
    value = _parse_term(toks, atom)
    while True:
        ch = toks.peek()
        if ch == "+":
            toks.take()
            value = value + _parse_term(toks, atom)
        elif ch == "-":
            toks.take()
            value = value - _parse_term(toks, atom)
        else:
            return value


def _parse_term(toks, atom):
    value = _parse_factor(toks, atom)
    while toks.peek() == "*":
        toks.take()
        value = value * _parse_factor(toks, atom)
    return value


def _parse_factor(toks, atom):
    negate = False
    if toks.peek() == "-":
        toks.take()
        negate = True
    if toks.peek() == "(":
        toks.take()
        value = _parse_expr(toks, atom)
        if toks.peek() != ")":
            raise EntryParseError("expected ')'", toks.pos)
        toks.take()
    else:
        value = atom(toks)
    if toks.peek() == "^":
        toks.take()
        value = value ** toks.take_uint()
    return -value if negate else value


def _parse_atom(toks, spec):
    ch = toks.peek()
    if ch is None:
        raise EntryParseError("unexpected end of input", toks.pos)
    if ch == "z":
        toks.take()
        return spec.gen()
    if ch.isdigit():
        num = toks.take_uint()
        if toks.peek() == "/":
            toks.take()
            pos = toks.pos
            den = toks.take_uint()
            if den == 0:
                raise EntryParseError("division by zero", pos)
            return spec.from_fraction(Fraction(num, den))
        return spec.from_int(num)
    raise EntryParseError(f"unexpected character {ch!r}", toks.pos)


def render_univariate(coeffs):
    """Render an integer/Fraction coefficient list as an entry expression in z."""
    return _join_terms((_z_power(k),) + _signed_fraction(coeffs[k])
                       for k in range(len(coeffs) - 1, -1, -1) if coeffs[k] != 0)


def is_irreducible_mod_p(f):
    """Irreducibility over F_p of a univariate Polynomial with prime-field
    coefficients (degree 1..12)."""
    spec = f.spec
    if spec.kind != FINITE or spec.degree != 1:
        raise FieldError("polynomial must live over a prime finite field")
    if f.nvars != 1:
        raise FieldError("irreducibility test needs a univariate polynomial")
    deg = f.total_degree()
    coeffs = [0] * (deg + 1)
    for (k,), c in f.terms.items():
        coeffs[k] = c.rep[0]
    return is_irreducible_coeffs(coeffs, spec.p)


def cyclotomic_polynomial(n):
    """Phi_n as a univariate Polynomial over Q (monic, degree phi(n))."""
    from .poly import Polynomial  # local import: poly depends on fields

    spec = FieldSpec.rationals()
    terms = {}
    for k, c in enumerate(cyclotomic_coeffs(n)):
        if c:
            terms[(k,)] = spec.from_int(c)
    return Polynomial(spec, 1, terms)


def parse_field_spec(text):
    """Parse a field description: rational | cyclotomic(N) | finite(P[, MOD]) | number_field(POLY)."""
    s = text.strip()
    if s == "rational":
        return FieldSpec.rationals()
    for head in ("cyclotomic", "finite", "number_field"):
        if s.startswith(head + "(") and s.endswith(")"):
            inner = s[len(head) + 1:-1].strip()
            if head == "cyclotomic":
                return FieldSpec.cyclotomic(int(inner))
            if head == "finite":
                if "," in inner:
                    p_text, mod_text = inner.split(",", 1)
                    p = int(p_text)
                    mod = _univariate_coeffs(mod_text.strip(), integral=True)
                    return FieldSpec.finite_field(p, mod)
                return FieldSpec.finite_field(int(inner))
            poly = _univariate_coeffs(inner, integral=False)
            return FieldSpec.number_field(poly)
    raise EntryParseError(f"unrecognized field spec {text!r}")


def _univariate_coeffs(text, integral):
    """Coefficients of a univariate polynomial literal in z (constant first)."""
    from .poly import parse_polynomial  # local import: poly depends on fields

    base = FieldSpec.rationals()
    poly = parse_polynomial(text, 1, base, var_names=("z",))
    deg = poly.total_degree()
    coeffs = [Fraction(0)] * (deg + 1)
    for expo, c in poly.terms.items():
        coeffs[expo[0]] = c.as_rational()
    if integral:
        if any(c.denominator != 1 for c in coeffs):
            raise EntryParseError(f"modulus over F_p needs integer coefficients: {text!r}")
        return [int(c) for c in coeffs]
    return coeffs
