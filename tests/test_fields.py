import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from invforge.errors import EntryParseError, FieldError
from invforge.fields import (FieldElement, FieldSpec, FiniteField, NumberField,
                             cyclotomic_coeffs, cyclotomic_polynomial,
                             is_irreducible_coeffs, is_irreducible_mod_p,
                             parse_element, parse_field_spec)
from invforge.poly import Polynomial, parse_polynomial


def test_parse_literal_cyclotomic():
    spec = FieldSpec.cyclotomic(20)
    e = parse_element("1/2 + z^3", spec)
    assert e.render() == "1/2 + z^3"


def test_parse_reduces_mod_cyclotomic():
    spec = FieldSpec.cyclotomic(20)
    # z^20 = 1 after reduction by the degree-8 modulus
    assert parse_element("z^20", spec) == spec.one()
    # cross-check by long division: z^20 - 1 is divisible by Phi_20
    phi = cyclotomic_polynomial(20)
    z20 = Polynomial.monomial(FieldSpec.rationals(), 1, (20,))
    one = Polynomial.constant(FieldSpec.rationals(), 1, 1)
    assert phi.divides(z20 - one)


def test_division_by_zero_literal():
    with pytest.raises(EntryParseError):
        parse_element("2/0", FieldSpec.rationals())


def test_parse_error_position():
    with pytest.raises(EntryParseError):
        parse_element("1 + ?", FieldSpec.rationals())


def test_cyclotomic_polynomials_small():
    names = ("z",)
    assert cyclotomic_polynomial(1).render(names) == "z - 1"
    assert cyclotomic_polynomial(4).render(names) == "z^2 + 1"
    assert cyclotomic_polynomial(20).render(names) == "z^8 - z^6 + z^4 - z^2 + 1"
    assert cyclotomic_coeffs(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)
    assert all(type(c) is int for c in cyclotomic_coeffs(30))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 20, 30])
def test_cyclotomic_divides_z_n_minus_one(n):
    q = FieldSpec.rationals()
    phi = cyclotomic_polynomial(n)
    zn = Polynomial.monomial(q, 1, (n,)) - Polynomial.constant(q, 1, 1)
    assert phi.divides(zn)


def test_invert_rational():
    q = FieldSpec.rationals()
    assert q.from_int(2).inverse() == q.from_fraction("1/2")


def test_invert_cyclotomic():
    c4 = FieldSpec.cyclotomic(4)
    assert c4.gen().inverse() == -c4.gen()
    c3 = FieldSpec.cyclotomic(3)
    v = parse_element("1 + z", c3)
    assert v.inverse() == -c3.gen()
    assert v * v.inverse() == c3.one()


def test_invert_zero_raises():
    with pytest.raises(FieldError):
        FieldSpec.rationals().zero().inverse()


def test_conjugate():
    c4 = FieldSpec.cyclotomic(4)
    assert c4.gen().conjugate() == -c4.gen()
    assert c4.from_int(7).conjugate() == c4.from_int(7)
    c5 = FieldSpec.cyclotomic(5)
    real = c5.gen() + c5.gen() ** 4
    assert real.conjugate() == real


def test_conjugate_requires_cyclotomic():
    k = parse_field_spec("number_field(z^2 + z + 2)")
    with pytest.raises(FieldError):
        k.gen().conjugate()


def test_conjugate_is_involution_and_fixes_rationals():
    rng = random.Random(11)
    for spec in (FieldSpec.cyclotomic(5), FieldSpec.cyclotomic(12)):
        for _ in range(50):
            a = spec.random_element(rng)
            assert a.conjugate().conjugate() == a
        assert spec.from_fraction("3/7").conjugate() == spec.from_fraction("3/7")


def test_is_irreducible_mod_p():
    assert is_irreducible_coeffs([1, 1, 1], 2) is True      # x^2+x+1 over F_2
    assert is_irreducible_coeffs([1, 1, 1], 7) is False     # 3 | 7-1
    assert is_irreducible_coeffs([-1, 1], 5) is True        # x - 1
    # (x^5-1)/(x-1) over F_2: 5 does not divide 1, so irreducible
    assert is_irreducible_coeffs([1, 1, 1, 1, 1], 2) is True
    assert is_irreducible_coeffs([1, 1, 1, 1, 1], 11) is False  # 5 | 10


def test_is_irreducible_mod_p_polynomial_surface():
    f2 = FieldSpec.finite_field(2)
    assert is_irreducible_mod_p(parse_polynomial("x^2 + x + 1", 1, f2,
                                                 var_names=("x",))) is True
    f7 = FieldSpec.finite_field(7)
    assert is_irreducible_mod_p(parse_polynomial("x^2 + x + 1", 1, f7,
                                                 var_names=("x",))) is False
    f5 = FieldSpec.finite_field(5)
    assert is_irreducible_mod_p(parse_polynomial("x - 1", 1, f5,
                                                 var_names=("x",))) is True
    with pytest.raises(FieldError):
        is_irreducible_mod_p(parse_polynomial("3", 1, f5, var_names=("x",)))


def _monic(p, degree):
    """All monic coefficient lists of this degree over F_p, constant first."""
    return [list(low) + [1]
            for low in itertools.product(range(p), repeat=degree)]


def _times_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p, max_degree", [(2, 4), (3, 4), (5, 3), (7, 3)])
def test_irreducibility_matches_products_of_monic_factors(p, max_degree):
    for m in range(1, max_degree + 1):
        reducible = {tuple(_times_mod(a, b, p))
                     for d in range(1, m // 2 + 1)
                     for a in _monic(p, d) for b in _monic(p, m - d)}
        for f in _monic(p, m):
            assert is_irreducible_coeffs(f, p) is (tuple(f) not in reducible), f


def test_irreducibility_of_a_non_monic_polynomial():
    f5 = FieldSpec.finite_field(5)
    # 2x^2 + 1 = 2 (x^2 + 3) over F_5, and 3 is not a square mod 5
    assert is_irreducible_mod_p(parse_polynomial("2*x^2 + 1", 1, f5,
                                                 var_names=("x",))) is True
    # 3x^2 - 3 = 3 (x - 1)(x + 1)
    assert is_irreducible_mod_p(parse_polynomial("3*x^2 - 3", 1, f5,
                                                 var_names=("x",))) is False


def test_finite_field_modulus_checked():
    with pytest.raises(FieldError):
        FieldSpec.finite_field(2, [1, 0, 1])  # z^2 + 1 = (z+1)^2 over F_2
    FieldSpec.finite_field(3, [1, 0, 1])      # fine over F_3


def test_number_field_rational_root_rejected():
    with pytest.raises(FieldError):
        FieldSpec.number_field([-1, 0, 1])    # z^2 - 1


@pytest.mark.parametrize("spec", [
    FieldSpec.rationals(),
    FieldSpec.finite_field(7),
    FieldSpec.finite_field(3, [1, 0, 1]),
    FieldSpec.cyclotomic(5),
    parse_field_spec("number_field(z^2 + z + 2)"),
    FieldSpec.finite_field(2, [1, 1, 0, 1]),
    FieldSpec.cyclotomic(20),
])
def test_field_axioms_random(spec):
    rng = random.Random(hash(spec.describe()) & 0xFFFF)
    one = spec.one()
    for _ in range(1000):
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        c = spec.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - b + b == a
        assert -(-a) == a
        if not a.is_zero():
            assert a * a.inverse() == one
        if not b.is_zero():
            assert (a / b) * b == a


@pytest.mark.parametrize("spec", [
    FieldSpec.finite_field(2),
    FieldSpec.finite_field(5),
    FieldSpec.finite_field(10007),
    FieldSpec.finite_field(2, [1, 1, 0, 1]),
], ids=["F2", "F5", "F10007", "F8"])
def test_finite_field_integer_rows_match_scalar_ops(spec):
    # the integer-row product and sum (degree-1 cases over F_p) against the
    # scalar product and the coefficientwise sum mod p
    rng = random.Random(spec.p)
    for _ in range(200):
        a = spec.random_element(rng).rep
        row = [spec.random_element(rng).rep for _ in range(rng.randrange(6))]
        assert spec._row_scale(a, row) == [spec._mul(a, x) for x in row]
        for x in row:
            assert spec._int_add(a, x) == tuple((u + v) % spec.p
                                                for u, v in zip(a, x))


def _coefficients(x):
    """The coefficients that rendering reads: a Fraction over Q, else the
    z^k coefficients (ints mod p, or Fractions over a number field)."""
    return x.spec._coefficients(x.rep)


@pytest.mark.parametrize("text", [
    "rational", "finite(7)", "finite(3, z^2 + 1)", "finite(2, z^3 + z + 1)",
    "cyclotomic(20)", "number_field(z^2 + z + 2)",
])
def test_spec_hash_and_rep_types(text):
    spec = parse_field_spec(text)
    assert hash(spec) == hash((spec.kind, spec.p, spec.modulus, spec.cyclotomic_n))
    # F_{p^m} coefficients are ints, number-field coefficients (Q's too)
    # Fractions, never a bare int 0 (sorting by str(_coefficients) relies on
    # it).  An F_{p^m} rep is its coefficient tuple; a number-field rep is an
    # int tuple over a positive int denominator, with no common factor.
    coeff_type = int if spec.kind == "finite" else Fraction
    x = spec.gen() * spec.from_int(5) if spec.degree > 1 else spec.from_int(5)
    if spec.degree > 1:
        assert 0 in _coefficients(x)
    for elt in (x, x * x, (x + 1).inverse(), spec.zero() * x, -x, x - x):
        coeffs = _coefficients(elt)
        assert type(coeffs) is tuple and len(coeffs) == spec.degree
        assert all(type(c) is coeff_type for c in coeffs)
        if spec.kind == "finite":
            assert elt.rep == coeffs
            continue
        ints, den = elt.rep
        assert type(ints) is tuple and len(ints) == spec.degree
        assert all(type(c) is int for c in ints + (den,))
        assert den > 0 and math.gcd(den, *ints) == 1


@pytest.mark.parametrize("spec", [
    FieldSpec.rationals(),
    FieldSpec.finite_field(5),
    FieldSpec.cyclotomic(8),
    FieldSpec.finite_field(3, [1, 0, 1]),
])
def test_render_parse_roundtrip(spec):
    rng = random.Random(23)
    for _ in range(200):
        a = spec.random_element(rng)
        assert parse_element(a.render(), spec) == a


def test_field_spec_parsing_roundtrip():
    for text in ("rational", "cyclotomic(20)", "finite(5)",
                 "finite(3, z^2 + 1)", "number_field(z^2 + z + 2)"):
        spec = parse_field_spec(text)
        again = parse_field_spec(spec.describe())
        assert spec == again


def test_polynomial_parse_and_render_roundtrip():
    q = FieldSpec.rationals()
    f = parse_polynomial("2*x1^2 + x1*x2 - 1/3", 2, q)
    assert parse_polynomial(f.render(), 2, q) == f
    c3 = FieldSpec.cyclotomic(3)
    g = parse_polynomial("(1 + z)*x1 - z*x2^2", 2, c3)
    assert parse_polynomial(g.render(), 2, c3) == g


def test_polynomial_single_divisor_division():
    q = FieldSpec.rationals()
    f = parse_polynomial("x^2*y + x*y^2", 2, q)
    g = parse_polynomial("x*y", 2, q)
    quo, rem = f.divmod_single(g)
    assert rem.is_zero()
    assert quo == parse_polynomial("x + y", 2, q)
    assert g.divides(f)
    assert not parse_polynomial("x^2", 2, q).divides(f)


# ---------------------------------------------------------------------------
# number fields against a Fraction-tuple oracle
# ---------------------------------------------------------------------------

NUMBER_FIELDS = ["cyclotomic(20)", "number_field(z^2 + z + 2)",
                 "number_field(z^2 + 1/2*z + 1/3)", "number_field(z - 3/2)"]
# every number field the tests use, for the fixed-point sort key
ALL_NUMBER_FIELDS = NUMBER_FIELDS + [
    "cyclotomic(1)", "cyclotomic(3)", "cyclotomic(4)", "cyclotomic(5)",
    "cyclotomic(6)", "cyclotomic(8)", "cyclotomic(12)", "number_field(z^2 - 1/2)"]


class _FractionTuples:
    """Q[z]/(min_poly) on tuples of Fraction coefficients of z^0 .. z^(deg-1):
    an oracle independent of the library's representation."""

    def __init__(self, spec):
        self.m = [Fraction(c) for c in spec.modulus]
        self.deg = len(self.m) - 1

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        prod = [Fraction(0)] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for k in range(len(prod) - 1, self.deg - 1, -1):
            # z^k = -sum_i m[i] z^(k - deg + i)
            c, prod[k] = prod[k], Fraction(0)
            for i in range(self.deg):
                prod[k - self.deg + i] -= c * self.m[i]
        return tuple(prod[:self.deg])

    def inv(self, a):
        # Gauss-Jordan on [M | e_0], column j of M being a * z^j
        d = self.deg
        cols = [self.mul(a, tuple(Fraction(int(i == j)) for i in range(d)))
                for j in range(d)]
        rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))]
                for i in range(d)]
        for c in range(d):
            p = next(r for r in range(c, d) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            rows[c] = [x / rows[c][c] for x in rows[c]]
            for r in range(d):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
        return tuple(row[-1] for row in rows)

    def random(self, rng):
        return tuple(Fraction(0) if rng.random() < 0.3 else
                     Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(self.deg))


def _render_fraction_tuple(coeffs):
    """The entry-grammar string of sum coeffs[k] z^k."""
    out = ""
    for k, c in enumerate(coeffs):
        if not c:
            continue
        zpow = "" if k == 0 else "z" if k == 1 else f"z^{k}"
        mag = str(abs(c))
        body = mag if not zpow else zpow if mag == "1" else f"{mag}*{zpow}"
        if not out:
            out = "-" + body if c < 0 else body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _element(spec, coeffs):
    z = spec.gen()
    return sum((spec.from_fraction(c) * z ** k for k, c in enumerate(coeffs)),
               spec.zero())


@pytest.mark.parametrize("text", NUMBER_FIELDS)
def test_number_field_matches_fraction_tuple_oracle(text):
    spec = parse_field_spec(text)
    ref = _FractionTuples(spec)
    rng = random.Random(text)
    zero = (Fraction(0),) * ref.deg
    for trial in range(150):
        ra, rb = ref.random(rng), (zero if trial == 0 else ref.random(rng))
        a, b = _element(spec, ra), _element(spec, rb)
        assert _coefficients(a) == ra and _coefficients(b) == rb
        assert _coefficients(a + b) == ref.add(ra, rb)
        assert _coefficients(a - b) == ref.add(ra, ref.neg(rb))
        assert _coefficients(-a) == ref.neg(ra)
        assert _coefficients(a * b) == ref.mul(ra, rb)
        if any(rb):
            assert _coefficients(b.inverse()) == ref.inv(rb)
            assert _coefficients(a / b) == ref.mul(ra, ref.inv(rb))
        assert (a == b) == (ra == rb)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert a.render() == _render_fraction_tuple(ra)
        assert parse_element(a.render(), spec) == a
        row, den = spec._int_row([a.rep, b.rep])
        assert spec._reps_of_int_row(row, den) == [a.rep, b.rep]
    if ref.deg == 1:
        assert spec.gen().as_rational() == -ref.m[0]
    assert spec.from_fraction(Fraction(-5, 6)).as_rational() == Fraction(-5, 6)
    assert spec.from_int(3) == 3 and spec.from_fraction(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("text", ALL_NUMBER_FIELDS)
def test_fixed_point_sort_key_is_the_fraction_tuple_string(text):
    # projective_fixed_points sorts coordinates by str(spec._coefficients(rep)),
    # the str of the Fraction tuple that number fields used to store
    spec = parse_field_spec(text)
    ref = _FractionTuples(spec)
    rng = random.Random(text)
    for _ in range(100):
        coeffs = ref.random(rng)
        assert str(_coefficients(_element(spec, coeffs))) == str(coeffs)


def _fractions_built(fn):
    """The number of Fraction objects constructed while fn() runs."""
    codes = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):
        codes.add(Fraction._from_coprime_ints.__func__.__code__)
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("text", NUMBER_FIELDS + ["rational"])
def test_number_field_scalar_ops_build_no_fraction(text):
    spec = parse_field_spec(text)
    rng = random.Random(3)
    reps = [(spec.random_element(rng) / spec.from_int(rng.randint(1, 6))).rep
            for _ in range(20)]

    def scalar_ops_and_row_conversions():
        for a, b in zip(reps, reps[1:]):
            spec._add(a, b), spec._sub(a, b), spec._neg(a), spec._mul(a, b)
        spec._reps_of_int_row(*spec._int_row(reps))

    assert _fractions_built(scalar_ops_and_row_conversions) == 0
    assert _fractions_built(lambda: _coefficients(spec.from_int(1))) > 0


def test_rational_sort_key_orders_as_fraction_strings():
    # projective_fixed_points sorts by str(_coefficients(rep)): over Q that
    # is str((c,)) of the one coefficient c, which orders coordinates
    # exactly as str(c) does
    q = FieldSpec.rationals()
    rng = random.Random(29)
    for _ in range(3000):
        a, b = (Fraction(rng.randint(-300, 300), rng.choice([1, rng.randint(1, 300)]))
                for _ in range(2))
        assert _coefficients(q.from_fraction(a)) == (a,)
        assert (str(a) < str(b)) == (str((a,)) < str((b,)))


def _conjugate_by_zbar_powers(elt):
    """Conjugation as sum c_k zbar^k with zbar = z^(n-1), on FieldElements."""
    spec = elt.spec
    n = spec.cyclotomic_n
    zbar = spec.gen() ** ((n - 1) % n) if n > 1 else spec.one()
    out, power = spec.zero(), spec.one()
    for c in _coefficients(elt):
        if c:
            out = out + spec.from_fraction(c) * power
        power = power * zbar
    return out


@pytest.mark.parametrize("n", [1, 4, 8, 20])
def test_conjugation_map_matches_zbar_powers(n):
    spec = FieldSpec.cyclotomic(n)
    rng = random.Random(n)
    for _ in range(100):
        a = spec.random_element(rng) / spec.from_int(rng.randint(1, 6))
        assert a.conjugate() == _conjugate_by_zbar_powers(a)


QUADRATIC_FIELDS = ["number_field(z^2 + z + 2)", "number_field(z^2 - 1/2)",
                    "number_field(z^2 + 1/2*z + 1/3)", "cyclotomic(3)",
                    "cyclotomic(4)", "number_field(z^2 + 7/3*z - 11/5)"]


def _euclid_integral_inverse(spec, a):
    """(A, D) with a * A = D in the basis z' = s*z: the inverse of the int
    tuple a from extended Euclid against z'^m - sum_i t_i z'^i on Fraction
    polynomials (lowest degree first), over its least positive denominator."""
    tail = spec._tail
    m = len(tail)

    def divmod_(num, den):
        num, q = list(num), [Fraction(0)] * max(len(num) - len(den) + 1, 1)
        while len(num) >= len(den) and any(num):
            c = num[-1] / den[-1]
            shift = len(num) - len(den)
            q[shift] = c
            for i, x in enumerate(den):
                num[shift + i] -= c * x
            while num and not num[-1]:
                num.pop()
        return q, num

    def sub_mul(s0, q, s1):  # s0 - q * s1
        out = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1)
        for i, x in enumerate(s0):
            out[i] += x
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                out[i + j] -= x * y
        return out

    r0 = [Fraction(-t) for t in tail] + [Fraction(1)]
    r1 = [Fraction(x) for x in a]
    while r1 and not r1[-1]:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = divmod_(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, sub_mul(s0, q, s1)
    inverse = [c / r1[0] for c in s1] + [Fraction(0)] * m
    D = math.lcm(*(c.denominator for c in inverse[:m]))
    return tuple(int(c * D) for c in inverse[:m]), D


@pytest.mark.parametrize("text", QUADRATIC_FIELDS)
def test_quadratic_integral_inverse_matches_euclid(text):
    # the closed form (a0 + t1 a1, -a1) / N(a) gives the Euclid pair,
    # reduced to the least positive denominator
    spec = parse_field_spec(text)
    rng = random.Random(text)
    for height in (1, 3, 50, 10 ** 15) * 100:
        a = (rng.randint(-height, height), rng.randint(-height, height))
        if not any(a):
            continue
        A, D = spec._integral_inverse(a)
        assert (A, D) == _euclid_integral_inverse(spec, a)
        assert D > 0 and math.gcd(D, *A) == 1
        assert spec._row_scale(A, [a]) == [(D, 0)]
        x = FieldElement(spec, (a, 1))
        assert x * x.inverse() == spec.one()
    with pytest.raises(FieldError):
        spec._integral_inverse((0, 0))


EUCLID_FIELDS = ["cyclotomic(20)", "cyclotomic(5)", "number_field(z^3 - z - 1)",
                 "number_field(z^3 + 1/2*z + 1/3)"]


@pytest.mark.parametrize("text", EUCLID_FIELDS)
def test_integral_inverse_matches_euclid(text):
    # Cayley-Hamilton gives the Euclid pair on dense elements, rational
    # constants and monomials c*z'^k
    spec = parse_field_spec(text)
    m = spec.degree
    rng = random.Random(text)
    elements = [tuple(rng.randint(-h, h) for _ in range(m))
                for h in (1, 3, 50, 10 ** 6) for _ in range(40)]
    elements += [(c,) + (0,) * (m - 1) for c in (1, -1, 2, -7, 10 ** 15)]
    elements += [tuple(c if i == k else 0 for i in range(m))
                 for k in range(1, m) for c in (1, -3, 12)]
    for a in elements:
        if not any(a):
            continue
        A, D = spec._integral_inverse(a)
        assert (A, D) == _euclid_integral_inverse(spec, a)
        assert D > 0 and math.gcd(D, *A) == 1
        assert spec._row_scale(A, [a]) == [(D,) + (0,) * (m - 1)]
    with pytest.raises(FieldError):
        spec._integral_inverse((0,) * m)


@pytest.mark.parametrize("text", EUCLID_FIELDS)
def test_number_field_integer_rows_match_scalar_ops(text):
    # the degree >= 3 integer-row product and elimination step against
    # FieldElement * and - (and the product against the Fraction oracle),
    # on zero, rational, one-term c*z'^k and dense scalars and entries
    spec = parse_field_spec(text)
    m, oracle = spec.degree, _FractionTuples(spec)
    rng = random.Random(text)

    def operand():
        kind, t = rng.randrange(4), [0] * m
        if kind == 0:
            t = [rng.randint(-50, 50) for _ in range(m)]
        elif kind > 1:
            t[0 if kind == 2 else rng.randrange(1, m)] = rng.randint(-10 ** 6, 10 ** 6)
        return tuple(t)

    def element(t):
        assert type(t) is tuple and len(t) == m
        return FieldElement(spec, spec._reps_of_int_row([t], 1)[0])

    for _ in range(300):
        A, F, D = operand(), operand(), rng.choice((1, 1, 2, 6))
        row = [operand() for _ in range(rng.randrange(6))]
        piv = [operand() for _ in row]
        got = [element(x) for x in spec._row_scale(A, row)]
        assert got == [element(A) * element(b) for b in row]
        assert [_coefficients(x) for x in got] == [
            oracle.mul(_coefficients(element(A)), _coefficients(element(b)))
            for b in row]
        got = [element(x) for x in spec._row_combine(D, row, F, piv)]
        assert got == [spec.from_int(D) * element(a) - element(F) * element(b)
                       for a, b in zip(row, piv)]


@pytest.mark.parametrize("text", ["finite(2, z^3 + z + 1)", "finite(3, z^2 + 1)",
                                  "finite(5, z^3 + 3*z + 3)"])
def test_finite_field_inverse_is_power(text):
    # a^(q-1) = 1 on F_q^*, so a^(-1) = a^(q-2)
    spec = parse_field_spec(text)
    q = spec.size()
    assert q in (8, 9, 125)
    for a in spec.elements():
        if a.is_zero():
            continue
        assert a.inverse() == a ** (q - 2)
        assert a * a.inverse() == spec.one()


def test_zero_divisors_raise():
    # directly constructed (unchecked) reducible moduli: the norm of a zero
    # divisor is zero, and inverting it refuses instead of returning garbage
    reducible = [NumberField(modulus=[Fraction(-1), Fraction(0), Fraction(1)]),  # (z-1)(z+1)
                 NumberField(modulus=[Fraction(0), Fraction(-1), Fraction(0), Fraction(1)]),
                 FiniteField(p=2, modulus=(1, 0, 1)),        # (z+1)^2 over F_2
                 FiniteField(p=2, modulus=(1, 1, 1, 1))]     # (z+1)^3 over F_2
    for spec in reducible:
        z, one = spec.gen(), spec.one()
        for divisor in (z - one, z + one):
            with pytest.raises(FieldError, match="not invertible"):
                divisor.inverse()
        with pytest.raises(FieldError, match="division by zero"):
            spec.zero().inverse()
    cubic = reducible[1]  # z^3 - z = z(z-1)(z+1)
    with pytest.raises(FieldError, match="not invertible"):
        cubic.gen().inverse()
    with pytest.raises(FieldError, match="not invertible"):
        (cubic.gen() ** 2 - cubic.one()).inverse()
