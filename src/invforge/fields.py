"""Exact arithmetic in Q, finite fields F_{p^m} and number fields Q[z]/(m(z)).

Cyclotomic fields are number fields with the n-th cyclotomic polynomial as
modulus; they additionally carry the conjugation automorphism z -> z^(n-1).
Elements are canonical representatives: a reduced Fraction over Q, a
coefficient tuple over F_q, an integer tuple over a denominator in a number
field.  Everything here is immutable and hashable, so values can be shared.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from fractions import Fraction
from functools import lru_cache

from .errors import CertificateError, EntryParseError, FieldError

_ZERO = Fraction(0)  # shared: Fractions are immutable

RATIONAL = "rational"
FINITE = "finite"
NUMBER_FIELD = "number_field"


# ---------------------------------------------------------------------------
# univariate polynomials over Q or F_p (coefficient lists, c[0] = const)
#
# One copy of each helper serves both coefficient fields: `red` puts a
# coefficient in normal form and `inv` inverts a nonzero one.  Over Q they
# are `_exact` and `_q_inv`; over F_p, the `_red` and `_cinv` of FiniteField.
# ---------------------------------------------------------------------------

def _exact(c):
    return c


def _q_inv(c):
    return 1 / Fraction(c)


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_sub(a, b, red):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([red(x - y) for x, y in zip(a, b)])


def _poly_mul(a, b, red):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = red(out[i + j] + x * y)
    return _trim(out)


def _poly_divmod(num, den, red, inv):
    num, den = _trim(map(red, num)), _trim(map(red, den))
    if not den:
        raise FieldError("polynomial division by zero")
    lead_inv = inv(den[-1])
    quo = [0] * max(0, len(num) - len(den) + 1)
    rem = num
    while len(rem) >= len(den):
        k = len(rem) - len(den)
        f = quo[k] = red(rem[-1] * lead_inv)
        for i, d in enumerate(den):
            rem[k + i] = red(rem[k + i] - f * d)
        rem = _trim(rem)
    return quo, rem


def _poly_gcd(a, b, red, inv):
    """Monic gcd; [] when both are zero."""
    a, b = _trim(map(red, a)), _trim(map(red, b))
    while b:
        a, b = b, _poly_divmod(a, b, red, inv)[1]
    if a:
        c = inv(a[-1])
        a = [red(x * c) for x in a]
    return a


def _poly_powmod(base, e, mod, red, inv):
    result = [1]
    base = _poly_divmod(base, mod, red, inv)[1]
    while e:
        if e & 1:
            result = _poly_divmod(_poly_mul(result, base, red), mod, red, inv)[1]
        base = _poly_divmod(_poly_mul(base, base, red), mod, red, inv)[1]
        e >>= 1
    return result


def _reduction_rows(tail, red):
    """Images of z^k for k = deg .. 2*deg-2 modulo a monic modulus of degree
    deg = len(tail) with z^deg = sum tail[i] z^i, for `_reduced_product`."""
    cur = list(tail)  # z^deg
    table = [tuple(cur)]
    for _ in range(len(tail) - 2):
        # multiply by z and reduce
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            cur = [red(a + carry * t) for a, t in zip(cur, tail)]
        table.append(tuple(cur))
    return table


def _reduced_product(a, b, table):
    """a * b for coefficient sequences of length deg, reduced with a
    `_reduction_rows` table (coefficients not put in normal form)."""
    deg = len(a)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:deg]
    for c, row in zip(prod[deg:], table):
        if c:
            out = [o + c * r for o, r in zip(out, row)]
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n):
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n < 1:
        raise FieldError(f"cyclotomic index must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_coeffs(d), _exact, _q_inv)
            if rem:
                raise CertificateError(f"Phi_{d} does not divide z^{n} - 1")
    return tuple(int(c) for c in poly)


def is_irreducible_coeffs(coeffs, p):
    """Irreducibility of a univariate polynomial over F_p (degree <= 12).

    Trial factorization: f of degree m is irreducible iff gcd(f, z^(p^d) - z)
    is trivial for every d <= m/2.
    """
    fp = FiniteField(p=p, modulus=(0, 1))
    red, inv = fp._red, fp._cinv
    f = _trim(map(red, coeffs))
    m = len(f) - 1
    if m < 1:
        raise FieldError("irreducibility test needs degree >= 1")
    if m > 12:
        raise FieldError(f"irreducibility test supports degree <= 12, got {m}")
    if m == 1:
        return True
    x = [0, 1]
    for d in range(1, m // 2 + 1):
        frob = _poly_powmod(x, p ** d, f, red, inv)  # z^(p^d) mod f
        g = _poly_gcd(f, _poly_sub(frob, x, red), red, inv)
        if len(g) - 1 >= 1:
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


def _render_fraction(fr):
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _signed_fraction(c):
    """(string of |c|, c < 0) for an int or Fraction coefficient."""
    return _render_fraction(abs(c)), c < 0


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
    """One of Q, F_{p^m} = F_p[z]/(modulus), or Q[z]/(min_poly).

    Immutable; use the constructors `rationals`, `finite_field`,
    `number_field`, `cyclotomic`.  Equality and hashing are structural.
    Each kind is a subclass (RationalField, FiniteField, NumberField) with
    its own kernel on raw representatives: `_add`, `_sub`, `_neg`, `_mul`,
    `_is_zero`, `_inv` and the constant constructor `_const`.

    Each kernel also gives the integer-row primitives behind
    `linalg.EchelonBasis`, `linalg.combine_rows` (so `Matrix.__mul__`) and
    the `Polynomial` products.  An integer row represents a row of field
    elements up to a positive integer factor, in a per-kind integer
    representation: `int`s over Q, `int` tuples over a number field, the
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

    __slots__ = ("p", "modulus", "cyclotomic_n", "degree", "_hash")
    kind = None

    def __init__(self, p=None, modulus=None, cyclotomic_n=None):
        self.p = p
        self.modulus = tuple(modulus) if modulus is not None else None
        self.cyclotomic_n = cyclotomic_n
        self.degree = (len(self.modulus) - 1) if self.modulus else 1
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

    def _as_rational(self, rep):
        raise FieldError("element is not a rational constant")

    def _coefficients(self, rep):
        """What rendering reads: the Fraction over Q, else the z^k coefficients."""
        return rep

    def conjugate_element(self, elt):
        """Complex conjugation z -> z^(n-1) on a cyclotomic field."""
        raise FieldError("conjugation requires a cyclotomic field spec")


class RationalField(FieldSpec):
    """Q; a representative is a reduced Fraction."""

    __slots__ = ()
    kind = RATIONAL

    def describe(self):
        return "rational"

    def _const(self, c):
        return Fraction(c)

    def gen(self):
        raise FieldError("rational field has no generator z")

    def random_element(self, rng, height=10):
        den = rng.randint(1, height)
        return FieldElement(self, Fraction(rng.randint(-height, height), den))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _is_zero(self, a):
        return a == 0

    _int_add, _int_is_zero = _add, _is_zero

    def _inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def _as_rational(self, rep):
        return rep

    def _render(self, rep):
        return _render_fraction(rep)

    # -- integer rows: ints ------------------------------------------------

    def _int_row(self, reps):
        den = math.lcm(*(c.denominator for c in reps))
        return [c.numerator * (den // c.denominator) for c in reps], den

    def _integral_inverse(self, a):
        return (1, a) if a > 0 else (-1, -a)

    def _row_scale(self, A, row):
        return [A * x for x in row]

    def _row_combine(self, D, row, F, piv):
        return [D * a - F * b for a, b in zip(row, piv)]

    def _row_primitive(self, row):
        g = math.gcd(*row)
        if g <= 1:
            return row, 1
        return [x // g for x in row], g

    def _reps_of_int_row(self, row, d):
        return [Fraction(x, d) if x else _ZERO for x in row]


class _ExtensionField(FieldSpec):
    """What F_p[z]/(m) and Q[z]/(m) share: elements are polynomials in z of
    degree < deg m, with coefficients (`_coefficients`) in normal form."""

    __slots__ = ()

    def gen(self):
        """The class of z."""
        if self.degree == 1:
            # z reduces to a constant modulo a degree-1 modulus
            return FieldElement(self, self._const(-self.modulus[0]))
        return FieldElement(self, self._from_coefficients(
            (0, 1) + (0,) * (self.degree - 2)))

    def _is_zero(self, a):
        return not any(a)

    _int_is_zero = _is_zero

    def _inv(self, a, modulus=None):
        if not any(a):
            raise FieldError("division by zero")
        # extended Euclid against the modulus: find s with s*a = gcd mod modulus
        red, cinv = self._red, self._cinv
        r0, r1 = list(modulus or self.modulus), _trim(a)
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1, red, cinv)
            r0, r1, s0, s1 = r1, r, s1, _poly_sub(s0, _poly_mul(q, s1, red), red)
            if not r1:
                raise FieldError(
                    f"element not invertible (reducible {self._modulus_name}?)")
        c = cinv(r1[0])
        s1 += [0] * self.degree
        return tuple(red(x * c) for x in s1[:self.degree])

    def _render(self, rep):
        return _join_terms((_z_power(k),) + self._render_coeff(c)
                           for k, c in enumerate(self._coefficients(rep)) if c)


class FiniteField(_ExtensionField):
    """F_p[z]/(modulus), F_p itself for modulus z; coefficients are ints mod p."""

    __slots__ = ("_red_table",)
    kind = FINITE
    _modulus_name = "modulus"
    _from_coefficients = staticmethod(tuple)

    def __init__(self, p, modulus):
        super().__init__(p=p, modulus=modulus)
        self._red_table = _reduction_rows(
            [self._red(-c) for c in self.modulus[:self.degree]], self._red)

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
        return tuple(c % p for c in _reduced_product(a, b, self._red_table))

    @staticmethod
    def _render_coeff(c):
        return str(c), False

    # -- integer rows: the representatives, with D = 1 and no content -------

    def _int_row(self, reps):
        return list(reps), 1

    def _integral_inverse(self, a):
        return self._inv(a), 1

    def _row_scale(self, A, row):
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


class NumberField(_ExtensionField):
    """Q[z]/(min_poly), cyclotomic when cyclotomic_n is set.

    A representative (t, d) is sum t[k] z'^k / d: an int tuple t in the basis
    of z' = s*z, d > 0, gcd(t, d) = 1.  s is the least common denominator
    of min_poly, so z' has the monic integral minimal polynomial
    s^deg * min_poly(z'/s) and products of integer tuples stay integral.
    """

    __slots__ = ("_scale_powers", "_int_table", "_conjugation")
    kind = NUMBER_FIELD
    _modulus_name = "min_poly"
    _red = staticmethod(_exact)
    _cinv = staticmethod(_q_inv)
    _render_coeff = staticmethod(_signed_fraction)

    def __init__(self, modulus, cyclotomic_n=None):
        super().__init__(modulus=modulus, cyclotomic_n=cyclotomic_n)
        deg = self.degree
        s = math.lcm(*(c.denominator for c in self.modulus))
        self._scale_powers = tuple(s ** k for k in range(deg))
        self._int_table = _reduction_rows(
            [int(-c * s ** (deg - k)) for k, c in enumerate(self.modulus[:deg])],
            _exact)
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
        return tuple(map(operator.add, a, b))

    def _int_row(self, reps):
        den = math.lcm(*(d for _, d in reps))
        return [t if d == den else tuple(x * (den // d) for x in t)
                for t, d in reps], den

    def _integral_inverse(self, a):
        # extended Euclid against the integral minimal polynomial of z'
        fr = super()._inv(a, [-c for c in self._int_table[0]] + [1])
        D = math.lcm(*(f.denominator for f in fr))
        return tuple(f.numerator * (D // f.denominator) for f in fr), D

    def _row_scale(self, A, row):
        if self.degree == 2:
            # z'^2 = t0 + t1 z', so A * b = (a0 b0 + t0 a1 b1,
            # a1 b0 + (a0 + t1 a1) b1)
            (t0, t1), = self._int_table
            a0, a1 = A
            u, v = t0 * a1, a0 + t1 * a1
            return [(a0 * b0 + u * b1, a1 * b0 + v * b1) for b0, b1 in row]
        table = self._int_table
        return [tuple(_reduced_product(A, b, table)) for b in row]

    def _row_combine(self, D, row, F, piv):
        if self.degree == 2:
            # z'^2 = t0 + t1 z', so F * b = (f0 b0 + t0 f1 b1,
            # f0 b1 + f1 b0 + t1 f1 b1)
            (t0, t1), = self._int_table
            f0, f1 = F
            u, v = t0 * f1, f0 + t1 * f1
            return [(D * a0 - f0 * b0 - u * b1, D * a1 - f1 * b0 - v * b1)
                    for (a0, a1), (b0, b1) in zip(row, piv)]
        table = self._int_table
        return [tuple(D * x - y for x, y in zip(a, _reduced_product(F, b, table)))
                for a, b in zip(row, piv)]

    def _row_primitive(self, row):
        g = math.gcd(*itertools.chain.from_iterable(row))
        if g <= 1:
            return row, 1
        return [tuple(map(g.__rfloordiv__, t)) for t in row], g

    def _reps_of_int_row(self, row, d):
        return [_reduced(t, d) for t in row]


def _reduced(t, d):
    """The number-field representative of the int tuple t over d > 0."""
    g = math.gcd(d, *t)
    return (t, d) if g == 1 else (tuple(x // g for x in t), d // g)


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
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
