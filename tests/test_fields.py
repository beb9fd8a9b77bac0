import random
from fractions import Fraction

import pytest

from invforge.errors import EntryParseError, FieldError
from invforge.fields import (FieldSpec, cyclotomic_coeffs, cyclotomic_polynomial,
                             is_irreducible_coeffs, parse_element,
                             parse_field_spec)
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
    from invforge.fields import is_irreducible_mod_p
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


@pytest.mark.parametrize("text", [
    "rational", "finite(7)", "finite(3, z^2 + 1)", "finite(2, z^3 + z + 1)",
    "cyclotomic(20)", "number_field(z^2 + z + 2)",
])
def test_spec_hash_and_rep_types(text):
    spec = parse_field_spec(text)
    assert hash(spec) == hash((spec.kind, spec.p, spec.modulus, spec.cyclotomic_n))
    if spec.kind == "rational":
        assert type((spec.from_int(5) * spec.zero()).rep) is Fraction
        return
    # F_{p^m} coefficients are ints, number-field coefficients Fractions,
    # never a bare int 0 (sorting by str(rep) relies on it)
    coeff_type = int if spec.kind == "finite" else Fraction
    x = spec.gen() * spec.from_int(5) if spec.degree > 1 else spec.from_int(5)
    if spec.degree > 1:
        assert 0 in x.rep
    for elt in (x, x * x, (x + 1).inverse(), spec.zero() * x, -x, x - x):
        assert type(elt.rep) is tuple and len(elt.rep) == spec.degree
        assert all(type(c) is coeff_type for c in elt.rep)


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
