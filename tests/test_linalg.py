import itertools
import math
import random
from fractions import Fraction

import pytest

from invforge.errors import FieldError, LinalgError
from invforge.fields import (FieldElement, FieldSpec, _berkowitz, _power, _reduced_product,
                             degree_one_reduction, parse_field_spec)
from invforge.groups import automorphism_group
from invforge.linalg import (EchelonBasis, Matrix, Subspace, char_poly,
                             combine_rows, commutant_basis, eigenspace,
                             eigenvalue_candidates, eval_poly_at_matrix,
                             intertwiner_space, is_split_diagonalizable, kernel,
                             simultaneous_eigenvectors, spin_submodule)
from invforge.poly import (Polynomial, _int_mul, _int_power, _int_terms,
                           parse_polynomial)

Q = FieldSpec.rationals()
FIELDS = ["rational", "finite(5)", "finite(2, z^3 + z + 1)", "cyclotomic(20)",
          "number_field(z^2 + z + 2)", "number_field(z^2 - 1/2)"]


def test_kernel_zero_matrix():
    assert kernel(Matrix.zero(Q, 2, 2)).dim == 2


def test_kernel_identity():
    assert kernel(Matrix.identity(Q, 2)).dim == 0


def test_kernel_rank_one():
    k = kernel(Matrix.from_rows(Q, [[1, 1], [1, 1]]))
    assert k.dim == 1
    assert k.basis[0] == (Q.one(), Q.from_int(-1))


def test_kernel_vectors_annihilated():
    rng = random.Random(5)
    for _ in range(25):
        m = Matrix.from_rows(Q, [[rng.randint(-3, 3) for _ in range(4)]
                                 for _ in range(3)])
        k = kernel(m)
        for v in k.basis:
            assert all(c.is_zero() for c in m.apply(v))
        assert k.dim == 4 - m.rank()


def test_subspace_canonical_equality():
    a = Subspace(Q, 2, [[Q.from_int(1), Q.from_int(1)]])
    b = Subspace(Q, 2, [[Q.from_int(2), Q.from_int(2)]])
    assert a == b and hash(a) == hash(b)


def test_char_poly_diag():
    cp = char_poly(Matrix.from_rows(Q, [[2, 0], [0, 3]]))
    assert cp == parse_polynomial("x^2 - 5*x + 6", 1, Q, var_names=("x",))


def test_char_poly_identity():
    cp = char_poly(Matrix.identity(Q, 2))
    assert cp == parse_polynomial("x^2 - 2*x + 1", 1, Q, var_names=("x",))


def test_char_poly_m7():
    k7 = parse_field_spec("number_field(z^2 + z + 2)")
    one, zero, alpha = k7.one(), k7.zero(), k7.gen()
    m7 = Matrix(k7, [[zero, zero, one],
                     [one, zero, one + alpha],
                     [zero, one, alpha]])
    expected = parse_polynomial("x^3 - z*x^2 - (1 + z)*x - 1", 1, k7,
                                var_names=("x",))
    assert char_poly(m7) == expected
    assert m7 ** 7 == Matrix.identity(k7, 3)
    assert m7 != Matrix.identity(k7, 3)


def test_char_poly_positive_characteristic():
    f5 = FieldSpec.finite_field(5)
    m = Matrix.from_rows(f5, [[1, 2], [3, 4]])
    cp = char_poly(m)
    # trace 5 = 0, det 4 - 6 = -2 = 3
    assert cp == parse_polynomial("x^2 + 3", 1, f5, var_names=("x",))


def test_cayley_hamilton_random():
    rng = random.Random(9)
    for text in ("rational", "finite(5)", "finite(2, z^3 + z + 1)"):
        spec = parse_field_spec(text)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                m = Matrix(spec, [[spec.random_element(rng, 2) for _ in range(n)]
                                  for _ in range(n)])
                res = eval_poly_at_matrix(char_poly(m), m)
                assert all(c.is_zero() for row in res.entries for c in row)


def test_eigenspace_examples():
    c5 = FieldSpec.cyclotomic(5)
    eps = c5.gen()
    m = Matrix.diagonal(c5, [eps, eps.inverse()])
    e = eigenspace(m, eps)
    assert e.dim == 1 and e.basis[0] == (c5.one(), c5.zero())
    refl = Matrix.from_rows(Q, [[-1, 0], [0, 1]])
    fixed = eigenspace(refl, Q.one())
    assert fixed.dim == 1 and fixed.basis[0] == (Q.zero(), Q.one())
    trans = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    e1 = eigenspace(trans, Q.one())
    assert e1.dim == 1 and e1.basis[0] == (Q.one(), Q.zero())


def test_eigenspace_requires_square():
    with pytest.raises(LinalgError):
        eigenspace(Matrix.zero(Q, 2, 3), Q.one())


def test_commutant_empty_list():
    assert len(commutant_basis([], n=2, spec=Q)) == 4


def test_commutant_mu3_diagonal():
    c3 = FieldSpec.cyclotomic(3)
    m = Matrix.diagonal(c3, [c3.gen(), c3.gen() ** 2])
    basis = commutant_basis([m])
    assert len(basis) == 2
    for b in basis:
        assert b * m == m * b


def test_commutant_icosahedral_is_scalars(icosahedral):
    basis = commutant_basis(icosahedral.generators())
    assert len(basis) == 1


def test_commutant_closed_under_products(quaternion, mu3):
    for g in (quaternion, mu3):
        basis = commutant_basis(g.generators())
        span = Subspace(g.spec, g.n * g.n,
                        [[c for row in b.entries for c in row] for b in basis])
        for a in basis:
            for b in basis:
                prod = a * b
                assert span.contains([c for row in prod.entries for c in row])


def test_intertwiner_space_solves_the_system(quaternion, mu3):
    for g in (quaternion, mu3):
        gens = g.generators()
        for phi in automorphism_group(g):
            images = [g.elements[phi(i)] for i in g.generator_indices]
            basis = intertwiner_space(gens, images)
            assert basis
            for t in basis:
                assert all(t * a == b * t for a, b in zip(gens, images))
        assert intertwiner_space(gens, gens) == commutant_basis(gens)


def _reduce_against(vec, rows):
    """vec minus its components along the pivots of reduced rows."""
    for row in rows:
        f = vec[next(i for i, c in enumerate(row) if not c.is_zero())]
        vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def test_echelon_basis_matches_subspace():
    # insertion in any order gives the reference Gauss-Jordan basis, with
    # the same representative types, over every field kind
    rng = random.Random(5)
    for text in FIELDS:
        spec = parse_field_spec(text)
        for _ in range(10):
            vectors = [[spec.random_element(rng, 3) for _ in range(5)]
                       for _ in range(3)]
            dependent = [a + b for a, b in zip(vectors[0], vectors[1])]
            vectors.append(dependent)
            want = Subspace(spec, 5, vectors).basis
            reference, pivots = _gauss_jordan(Matrix(spec, vectors))
            assert [list(row) for row in want] == reference[:len(pivots)]
            for _ in range(3):
                rng.shuffle(vectors)
                span = EchelonBasis(spec)
                for v in vectors:
                    residue = _reduce_against(v, span.rows)
                    row = span.insert(v)
                    if any(residue):
                        lead = next(c for c in residue if not c.is_zero())
                        assert row == [c / lead for c in residue]
                    else:
                        assert row is None
                assert tuple(tuple(row) for row in span.rows) == want
                assert ([[str(c.rep) for c in row] for row in span.rows]
                        == [[str(c.rep) for c in row] for row in want])
                assert span.insert(dependent) is None
                assert len(span) == len(want)
                assert all(Subspace(spec, 5, want).contains(v) for v in vectors)


def test_spin_submodule():
    s3 = [Matrix.from_rows(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
          Matrix.from_rows(Q, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
    e1 = (Q.one(), Q.zero(), Q.zero())
    assert spin_submodule(s3, e1).dim == 3
    ones = (Q.one(), Q.one(), Q.one())
    assert spin_submodule(s3, ones).dim == 1
    assert spin_submodule([Matrix.identity(Q, 3)], e1).dim == 1


def test_spin_submodule_invariant():
    rng = random.Random(3)
    mats = [Matrix.from_rows(Q, [[rng.randint(-2, 2) for _ in range(3)]
                                 for _ in range(3)]) for _ in range(2)]
    v = (Q.one(), Q.from_int(2), Q.zero())
    sub = spin_submodule(mats, v)
    for b in sub.basis:
        for m in mats:
            assert sub.contains(m.apply(b))


def test_spin_rejects_zero_vector():
    with pytest.raises(LinalgError):
        spin_submodule([Matrix.identity(Q, 2)], (Q.zero(), Q.zero()))


def test_simultaneous_eigenvectors_diagonal():
    c5 = FieldSpec.cyclotomic(5)
    m = Matrix.diagonal(c5, [c5.gen(), c5.gen().inverse()])
    lines = simultaneous_eigenvectors([m])
    assert sorted(tuple(c.render() for c in v) for v in lines) == [
        ("0", "1"), ("1", "0")]


def test_simultaneous_eigenvectors_icosahedral_empty(icosahedral):
    assert simultaneous_eigenvectors(icosahedral.generators()) == []


def test_simultaneous_eigenvectors_rational_rotation():
    rot = Matrix(Q, [[Q.from_fraction(Fraction(-1, 2)), Q.from_fraction(Fraction(-3, 2))],
                     [Q.from_fraction(Fraction(1, 2)), Q.from_fraction(Fraction(-1, 2))]])
    assert rot ** 3 == Matrix.identity(Q, 2)
    assert simultaneous_eigenvectors([rot]) == []


@pytest.mark.parametrize("text", ["rational", "cyclotomic(3)"])
def test_eigenvalue_candidates_beside_eigenvalue_zero(text):
    # char polys x^2 - 2x and x^2 (x - 1/2)(x + 3): the nonzero rational
    # roots come from the lowest nonzero coefficient, not from the zero
    # constant term
    spec = parse_field_spec(text)
    m = Matrix.diagonal(spec, [spec.zero(), spec.from_int(2)])
    assert eigenvalue_candidates(m) == [spec.zero(), spec.from_int(2)]
    assert is_split_diagonalizable([m])
    half = spec.from_fraction(Fraction(1, 2))
    m = Matrix.diagonal(spec, [spec.zero(), half, spec.zero(), spec.from_int(-3)])
    assert eigenvalue_candidates(m) == [spec.zero(), half, spec.from_int(-3)]
    assert is_split_diagonalizable([m])


def test_simultaneous_eigenvectors_scalars_rejected():
    with pytest.raises(LinalgError):
        simultaneous_eigenvectors([Matrix.identity(Q, 2)])


def test_rref_idempotent_and_rank():
    rng = random.Random(17)
    for _ in range(20):
        m = Matrix.from_rows(Q, [[rng.randint(-3, 3) for _ in range(4)]
                                 for _ in range(3)])
        red, pivots = m.rref()
        red2, pivots2 = red.rref()
        assert red == red2 and pivots == pivots2
        assert len(pivots) == m.rank()


def test_inverse_and_det():
    m = Matrix.from_rows(Q, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(Q, 2)
    assert m.det() == Q.from_int(-2)
    with pytest.raises(LinalgError):
        Matrix.from_rows(Q, [[1, 1], [1, 1]]).inverse()


def _gauss_jordan(m):
    """Reference rref: plain Gauss-Jordan elimination on FieldElements."""
    rows = [list(r) for r in m.entries]
    pivots, r = [], 0
    for c in range(m.cols):
        if r == m.rows:
            break
        i = next((i for i in range(r, m.rows) if not rows[i][c].is_zero()), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [a * inv for a in rows[r]]
        for i in range(m.rows):
            f = rows[i][c]
            if i != r and not f.is_zero():
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _random_matrix(spec, rng, nrows, ncols):
    """Sparse random rows mixed with zero, repeated and dependent rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.2:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.35:
            a, b, c = rng.choice(rows), rng.choice(rows), spec.random_element(rng, 5)
            rows.append([x + c * y for x, y in zip(a, b)])
        elif kind < 0.45:
            rows.append([spec.zero()] * ncols)
        else:
            rows.append([spec.zero() if rng.random() < 0.3
                         else spec.random_element(rng, 5) for _ in range(ncols)])
    return Matrix(spec, rows)


@pytest.mark.parametrize("text", FIELDS)
def test_rref_matches_field_element_gauss_jordan(text):
    # the integer-row elimination must give the reference's entries, with
    # the same representative types (point order sorts by str(rep))
    spec = parse_field_spec(text)
    rng = random.Random(text)
    shapes = [(0, 0), (1, 1), (3, 3), (6, 2), (2, 6), (5, 5), (4, 7), (7, 4)]
    for nrows, ncols in shapes * 4:
        m = _random_matrix(spec, rng, nrows, ncols)
        red, pivots = m.rref()
        want, want_pivots = _gauss_jordan(m)
        assert pivots == want_pivots
        assert (red.rows, red.cols) == (m.rows, m.cols)
        assert [list(r) for r in red.entries] == want
        assert ([[str(c.rep) for c in r] for r in red.entries]
                == [[str(c.rep) for c in r] for r in want])


@pytest.mark.parametrize("text", FIELDS)
def test_echelon_insertion_matches_gauss_jordan(text):
    # EchelonBasis stores its rows on the free columns only: after every
    # insert, the returned row, the basis rows, the pivots and the
    # representatives are those of the reference rref of the rows so far.
    # Rows are zero, repeated, in the span of rank < width fixed rows, or
    # such a row with its entries at every current pivot cleared.
    spec = parse_field_spec(text)
    rng = random.Random(text)
    for width in (1, 2, 3, 5, 8, 13, 24) * 2:
        rank = rng.randrange(width)
        gens = [[spec.random_element(rng, 5) if rng.random() < 0.7 else spec.zero()
                 for _ in range(width)] for _ in range(rank)]
        span, inserted, want, want_pivots = EchelonBasis(spec), [], [], []
        for _ in range(rank + 6):
            kind = rng.random()
            if kind < 0.15:
                vec = [spec.zero()] * width
            elif kind < 0.3 and inserted:
                vec = list(rng.choice(inserted))
            else:
                vec = [spec.zero()] * width
                for g in gens:
                    c = spec.random_element(rng, 3)
                    vec = [a + c * b for a, b in zip(vec, g)]
                if kind < 0.55:
                    vec = _reduce_against(vec, want)
                    assert all(vec[p].is_zero() for p in want_pivots)
            inserted.append(vec)
            ref, pivots = _gauss_jordan(Matrix(spec, want + [vec]))
            row = span.insert(vec)
            if len(pivots) == len(want_pivots):
                assert row is None
            else:
                new = next(r for r, p in zip(ref, pivots) if p not in want_pivots)
                assert row == new
                assert [str(c.rep) for c in row] == [str(c.rep) for c in new]
            want, want_pivots = ref[:len(pivots)], pivots
            assert span.pivots == want_pivots and len(span) == len(want)
            assert span.rows == want
            assert ([[str(c.rep) for c in r] for r in span.rows]
                    == [[str(c.rep) for c in r] for r in want])
        assert len(want) <= rank < width


def test_echelon_basis_refuses_a_row_of_another_width():
    # a shorter row used to be zipped against the stored rows, silently
    # dropping their last columns from the basis
    span = EchelonBasis(Q)
    first = [Q.from_int(1), Q.from_int(2), Q.from_int(3)]
    assert span.insert(first) == first
    for vec in ([Q.from_int(2), Q.from_int(5)], first + [Q.one()]):
        with pytest.raises(LinalgError):
            span.insert(vec)
    assert span.rows == [first] and span.pivots == [0]
    zeros = EchelonBasis(Q)
    assert zeros.insert([Q.zero()] * 3) is None
    with pytest.raises(LinalgError):
        zeros.insert([Q.one()] * 2)


@pytest.mark.parametrize("text", ["finite(2)", "finite(3)", "finite(5)",
                                  "finite(7)", "rational"])
def test_spin_submodule_basis_matches_subspace(text):
    # spin_submodule hands its EchelonBasis rows to Subspace without a
    # second elimination: the basis is the rref basis of the spun vectors
    spec = parse_field_spec(text)
    rng = random.Random(text)
    for n in (1, 2, 3, 4, 6) * 4:
        mats = [Matrix(spec, [[spec.random_element(rng, 2) if rng.random() < 0.5
                               else spec.zero() for _ in range(n)]
                              for _ in range(n)])
                for _ in range(rng.randint(1, 2))]
        v = [spec.random_element(rng, 2) for _ in range(n)]
        if all(c.is_zero() for c in v):
            v[rng.randrange(n)] = spec.one()
        vectors = [tuple(v)]
        while True:
            grown = Subspace(spec, n, vectors + [m.apply(w) for m in mats
                                                 for w in vectors])
            if grown.dim == Subspace(spec, n, vectors).dim:
                break
            vectors = list(grown.basis)
        got = spin_submodule(mats, v)
        want = Subspace(spec, n, vectors)
        assert got == want and hash(got) == hash(want)
        assert ([[str(c.rep) for c in r] for r in got.basis]
                == [[str(c.rep) for c in r] for r in want.basis])


@pytest.mark.parametrize("text", FIELDS)
def test_kernel_rows_times_rref_rows_are_rref(text):
    # for C the rref kernel basis of a map and R an rref basis, the rows of
    # C * R are rref already: kernel cuts and joint eigenspaces return them
    # without a second elimination
    spec = parse_field_spec(text)
    rng = random.Random(text)
    cut = 0
    for nrows, ncols, nmap in [(3, 5, 2), (4, 6, 3), (5, 5, 2), (6, 8, 4), (2, 7, 1)] * 4:
        rows = Subspace(spec, ncols, _random_matrix(spec, rng, nrows, ncols).entries).basis
        if not rows:
            continue
        m = _random_matrix(spec, rng, nmap, len(rows))
        out = combine_rows(spec, kernel(m).basis, rows)
        want = Subspace(spec, ncols, out).basis
        assert out == [list(r) for r in want]
        assert ([[str(c.rep) for c in r] for r in out]
                == [[str(c.rep) for c in r] for r in want])
        cut += 0 < len(out) < len(rows)
    assert cut > 0


def _leibniz_det(rows, zero, one):
    """Reference determinant: the sum over all permutations."""
    total = zero
    for perm in itertools.permutations(range(len(rows))):
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("text", FIELDS)
def test_det_and_char_poly_match_leibniz(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    zero, one = Polynomial.zero(spec, 1), Polynomial.constant(spec, 1, 1)
    x = Polynomial.variable(spec, 1, 0)
    singular = 0
    for n in range(6):
        for _ in range(4):
            m = _random_matrix(spec, rng, n, n)
            want = _leibniz_det(m.entries, spec.zero(), spec.one())
            assert m.det() == want
            assert str(m.det().rep) == str(want.rep)
            singular += want.is_zero()
            # det(xI - m) over k[x]
            shifted = [[(x if i == j else zero) - one.scale(c)
                        for j, c in enumerate(row)] for i, row in enumerate(m.entries)]
            assert char_poly(m) == _leibniz_det(shifted, zero, one)
    assert singular > 0


def test_berkowitz_on_ints_matches_rationals():
    rng = random.Random(41)
    for n in range(7):
        for _ in range(6):
            rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
            got = _berkowitz(rows, 0, 1)
            want = _berkowitz(Matrix.from_rows(Q, rows).entries, Q.zero(), Q.one())
            assert all(type(c) is int for c in got)
            assert got == [c.as_rational() for c in want]


def _long_division_product(a, b, tail):
    """Reference for `_reduced_product`: the schoolbook product of a and b,
    then its remainder on long division by the monic z^m - sum_i t_i z^i."""
    m = len(tail)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    modulus = [-t for t in tail] + [1]
    while len(prod) > m:
        c = prod.pop()  # the leading coefficient; modulus is monic
        shift = len(prod) - m
        for i, t in enumerate(modulus[:-1]):
            prod[shift + i] -= c * t
    return prod


@pytest.mark.parametrize("text", [t for t in FIELDS if t != "rational"])
def test_reduced_product_matches_long_division(text):
    spec = parse_field_spec(text)
    tail, m = spec._tail, spec.degree
    rng = random.Random(text)
    for height in (1, 10 ** 3, 10 ** 15) * 30:
        a, b = ([0 if rng.random() < 0.3 else rng.randint(-height, height)
                 for _ in range(m)] for _ in range(2))
        assert _reduced_product(a, b, tail) == _long_division_product(a, b, tail)

    def operand(kind, height):
        # zero, rational (a0 only), one term c z^k, or dense with some zeros
        out = [0] * m
        if kind == "rational":
            out[0] = rng.randint(-height, height)
        elif kind == "one term":
            out[rng.randrange(m)] = rng.randint(-height, height)
        elif kind == "dense":
            out = [0 if rng.random() < 0.3 else rng.randint(-height, height)
                   for _ in range(m)]
        return out

    kinds = ("zero", "rational", "one term", "dense")
    for height in (1, 10 ** 3, 10 ** 15) * 5:
        for first in kinds:
            for second in kinds:
                a, b = operand(first, height), operand(second, height)
                assert _reduced_product(a, b, tail) == _long_division_product(a, b, tail)
    for k in range(m):
        for j in range(m):
            a, b = [0] * m, [0] * m
            a[k], b[j] = 1, -3
            assert _reduced_product(a, b, tail) == _long_division_product(a, b, tail)


# ---------------------------------------------------------------------------
# products on integer rows against FieldElement references
# ---------------------------------------------------------------------------

def _random_scalar(spec, rng):
    """A random element with a denominator where the field has them."""
    den = spec.from_int(rng.randint(1, 4))
    return spec.random_element(rng, 5) / (den if den else spec.one())


def _random_poly(spec, rng, nvars, nterms, max_deg):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[expo] = _random_scalar(spec, rng)
    return Polynomial(spec, nvars, terms)


def _ref_mul(a, b):
    """Product of two {exponents: FieldElement} dicts, zero terms dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def _ref_compose(p, images, nvars):
    out = {}
    for e, c in p.terms.items():
        term = {(0,) * nvars: c}
        for image, a in zip(images, e):
            for _ in range(a):
                term = _ref_mul(term, image.terms)
        for f, x in term.items():
            out[f] = out[f] + x if f in out else x
    return {e: c for e, c in out.items() if not c.is_zero()}


def _same_terms(got, want):
    # values, and the representatives' types (renders go through str(rep))
    assert got.terms == want
    assert (sorted((e, str(c.rep)) for e, c in got.terms.items())
            == sorted((e, str(c.rep)) for e, c in want.items()))


@pytest.mark.parametrize("text", FIELDS)
def test_polynomial_products_match_field_element_reference(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    one = {(0, 0): spec.one()}
    for _ in range(6):
        polys = [Polynomial.zero(spec, 2), Polynomial.constant(spec, 2, 1),
                 Polynomial.constant(spec, 2, 0) + _random_poly(spec, rng, 2, 1, 0)]
        polys += [_random_poly(spec, rng, 2, n, 3) for n in (1, 2, 4)]
        for p in polys:
            for q in polys:
                _same_terms(p * q, _ref_mul(p.terms, q.terms))
            want = one
            for k in range(6):
                _same_terms(p ** k, want)
                want = _ref_mul(want, p.terms)
            # non-homogeneous images with different denominators, into
            # a ring with three variables
            images = [_random_poly(spec, rng, 3, n, 2) for n in (1, 3)]
            _same_terms(p.compose(images), _ref_compose(p, images, 3))
            rows = [[_random_scalar(spec, rng) if rng.random() < 0.7 else spec.zero()
                     for _ in range(2)] for _ in range(2)]
            linear = [Polynomial(spec, 2, {(int(j == 0), int(j == 1)): c
                                           for j, c in enumerate(row)})
                      for row in rows]
            _same_terms(p.substitute_linear(rows), _ref_compose(p, linear, 2))
    # terms of degrees 2, 1 and 0, and images over different denominators
    f = parse_polynomial("x1^2 + 3*x2 + 1", 2, spec)
    texts = (["1/2*x1 + 1/3", "1/5*x2"] if spec.characteristic() == 0
             else ["x1 + 1", "x1*x2"])
    images = [parse_polynomial(t, 2, spec) for t in texts]
    _same_terms(f.compose(images), _ref_compose(f, images, 2))


def _reference_render(poly, var_names=None):
    """Polynomial.render as it was before it joined terms with
    fields._join_terms, kept as the reference."""
    if not poly.terms:
        return "0"
    names = var_names or tuple(f"x{i + 1}" for i in range(poly.nvars))
    parts = []
    for e, c in poly.sorted_terms():
        factors = []
        for i, a in enumerate(e):
            if a == 1:
                factors.append(names[i])
            elif a > 1:
                factors.append(f"{names[i]}^{a}")
        cstr = c.render()
        multi_term = ("+" in cstr) or (" - " in cstr)
        negative = cstr.startswith("-") and not multi_term
        coeff = f"({cstr})" if multi_term else (cstr[1:] if negative else cstr)
        if not factors:
            body = coeff
        elif coeff == "1":
            body = "*".join(factors)
        else:
            body = coeff + "*" + "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


@pytest.mark.parametrize("text", FIELDS)
def test_polynomial_render_matches_reference(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    one, two = spec.one(), spec.from_int(2)
    coeffs = [one, -one, spec.from_int(3), -two, -one / (two + one)]
    if spec.degree > 1:
        z = spec.gen()
        coeffs += [z, -z, z + one, -(z * z) + two, -(z * z * z), -(z + one) / (two + one)]
    polys = [Polynomial.zero(spec, 3)]
    polys += [Polynomial.constant(spec, 3, 0) + Polynomial.monomial(spec, 3, (0, 0, 0), c)
              for c in coeffs]
    polys += [Polynomial(spec, 3, {(k % 3, k // 3, 1): c for k, c in enumerate(coeffs)})]
    polys += [_random_poly(spec, rng, 3, n, 3) for n in (1, 2, 4, 7) for _ in range(3)]
    for p in polys:
        for names in (None, ("y1", "y2", "y3"), ("a", "bb", "c")):
            assert p.render(names) == _reference_render(p, names)
    x = Polynomial.variable(spec, 1, 0)
    for c in coeffs:
        f = x * x - Polynomial.constant(spec, 1, 1).scale(c)
        assert f.render(("x",)) == _reference_render(f, ("x",))


def _ref_matmul(a, b):
    zero = a.spec.zero()
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b.entries)]
            for row in a.entries]


@pytest.mark.parametrize("text", FIELDS)
def test_matrix_product_matches_field_element_reference(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    shapes = [(2, 2, 2), (4, 4, 4), (5, 2, 3), (2, 5, 1), (1, 4, 4), (3, 0, 0),
              (0, 0, 0)]
    for n, k, m in shapes * 3:
        a = _random_matrix(spec, rng, n, k)
        b = _random_matrix(spec, rng, k, m)
        got, want = a * b, _ref_matmul(a, b)
        assert (got.rows, got.cols) == (n, m)
        assert [list(r) for r in got.entries] == want
        assert ([[str(c.rep) for c in r] for r in got.entries]
                == [[str(c.rep) for c in r] for r in want])
        c = _random_scalar(spec, rng)
        assert (a * c).entries == tuple(tuple(x * c for x in r) for r in a.entries)


# ---------------------------------------------------------------------------
# substitution and matrix-vector products against FieldElement references
# ---------------------------------------------------------------------------

def _ref_translate(p, point):
    """f(x + point) by per-variable binomial expansion on FieldElements."""
    spec, terms = p.spec, {}
    for e, c in p.terms.items():
        partial = {(): c}
        for a, x in zip(e, point):
            partial = {pref + (k,): coef * spec.from_int(math.comb(a, k)) * x ** (a - k)
                       for pref, coef in partial.items() for k in range(a + 1)}
        for f, coef in partial.items():
            terms[f] = terms[f] + coef if f in terms else coef
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _ref_evaluate(p, point):
    """sum_e c_e * prod x_i^e_i on FieldElements."""
    total = p.spec.zero()
    for e, c in p.terms.items():
        for x, a in zip(point, e):
            c = c * x ** a
        total = total + c
    return total


def _ref_dehomogenize(p):
    """p(1, x2, ..., xn): the terms with the first exponent dropped, summed."""
    terms = {}
    for e, c in p.terms.items():
        terms[e[1:]] = terms[e[1:]] + c if e[1:] in terms else c
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _same_scalar(got, want):
    assert got == want and str(got.rep) == str(want.rep)


@pytest.mark.parametrize("text", FIELDS)
def test_substitution_matches_field_element_reference(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    for nvars in range(4):
        polys = [Polynomial.zero(spec, nvars), Polynomial.constant(spec, nvars, 3)]
        polys += [_random_poly(spec, rng, nvars, n, 3) for n in (1, 3, 5)]
        point = tuple(_random_scalar(spec, rng) for _ in range(nvars))
        points = [(spec.zero(),) * nvars, point,
                  tuple(x if i % 2 else spec.zero() for i, x in enumerate(point))]
        for p in polys:
            for pt in points:
                _same_terms(p.translate(pt), _ref_translate(p, pt))
                _same_scalar(p.evaluate(pt), _ref_evaluate(p, pt))
            if nvars:
                # the affine chart x1 = 1 of check_parabolic_claim
                chart = [Polynomial.constant(spec, nvars - 1, 1)]
                chart += [Polynomial.variable(spec, nvars - 1, i)
                          for i in range(nvars - 1)]
                _same_terms(p.compose(chart), _ref_dehomogenize(p))


@pytest.mark.parametrize("text", FIELDS)
def test_linear_powers_match_repeated_squaring(text):
    # multinomial powers of linear forms with two or more terms, repeated
    # squaring for zero and single-term forms: the same integer tuples
    spec = parse_field_spec(text)
    rng = random.Random(text)

    def row(kind, n):
        if kind == "zero":
            return [spec.zero()] * n
        if kind == "single":
            k = rng.randrange(n)
            return [_random_scalar(spec, rng) if j == k else spec.zero()
                    for j in range(n)]
        return [_random_scalar(spec, rng) or spec.one() for _ in range(n)]

    kinds = ("zero", "single", "dense")
    for n in range(1, 5):
        for trial in range(3):
            rows = [row(kinds[(j + trial) % 3], n) for j in range(n)]
            forms = [Polynomial.linear(spec, r) for r in rows]
            for a in range(trial + 1, 13, 3):  # 1..12 over the three trials
                # a on one variable, the rest of degree <= 12 on the others
                i, left = rng.randrange(n), 12 - a
                e = [0] * n
                for j in range(n):
                    if j != i:
                        e[j] = rng.randint(0, left)
                        left -= e[j]
                e[i] = a
                want = Polynomial.constant(spec, n, 1)
                for form, k in zip(forms, e):
                    want = want * form ** k
                got = Polynomial.monomial(spec, n, e).substitute_linear(rows)
                _same_terms(got, want.terms)
                (base,), _, _ = _int_terms(spec, [forms[i]])
                if base:
                    assert (_int_power(spec, base, a)
                            == _power(base, a, lambda x, y: _int_mul(spec, x, y)))


@pytest.mark.parametrize("text", FIELDS)
def test_degree_one_reduction_is_a_ring_map(text):
    spec = parse_field_spec(text)
    reduction = degree_one_reduction(spec, [])
    if spec.characteristic():
        assert reduction is None  # F_q needs no reduction
        return
    field, reduce = reduction
    rng = random.Random(text)

    def image(x):
        return FieldElement(field, reduce(x.rep))

    elements = [spec.zero(), spec.one()]
    while len(elements) < 30:
        x = _random_scalar(spec, rng)
        if x.rep[1] % field.p:  # P-integral
            elements.append(x)
    assert image(spec.one()) == field.one() and image(spec.zero()) == field.zero()
    for x, y in zip(elements, elements[1:] + elements[:1]):
        assert image(x + y) == image(x) + image(y)
        assert image(x * y) == image(x) * image(y)
        assert image(-x) == -image(x)
        if x and x.inverse().rep[1] % field.p:  # a unit of the ring it maps
            assert image(x.inverse()) * image(x) == field.one()


def test_degree_one_reduction_refuses_a_denominator_divisible_by_p():
    field, reduce = degree_one_reduction(Q, [])
    assert field == FieldSpec.finite_field(3)
    assert reduce(Q.from_fraction(Fraction(1, 2)).rep) == (2,)
    with pytest.raises(FieldError, match="divisible by the prime 3"):
        reduce(Q.from_fraction(Fraction(1, 6)).rep)
    # asked for the representatives of 1/3, it moves on to p = 5
    field, reduce = degree_one_reduction(Q, [Q.from_fraction(Fraction(1, 3)).rep])
    assert field.p == 5 and reduce(Q.from_fraction(Fraction(1, 3)).rep) == (2,)


@pytest.mark.parametrize("text, p", [
    ("rational", 3), ("cyclotomic(4)", 5), ("cyclotomic(3)", 7),
    ("cyclotomic(5)", 11), ("number_field(z^2 + z + 2)", 11),
    ("cyclotomic(20)", 41)])
def test_degree_one_reduction_takes_the_least_good_prime(text, p):
    # p >= 3, prime to disc(m'), and m' has a root mod p (Q(zeta_n): p = 1 mod n)
    field, _ = degree_one_reduction(parse_field_spec(text), [])
    assert field == FieldSpec.finite_field(p)


def test_compose_of_no_images_is_the_polynomial_itself():
    for p in (Polynomial.constant(Q, 0, 5), Polynomial.zero(Q, 0)):
        assert p.compose([]) == p
        assert p.translate(()) == p
        _same_scalar(p.evaluate(()), _ref_evaluate(p, ()))


@pytest.mark.parametrize("text", FIELDS)
def test_matrix_apply_matches_field_element_dot_product(text):
    spec = parse_field_spec(text)
    rng = random.Random(text)
    for n, k in [(2, 2), (4, 4), (3, 5), (5, 1), (1, 3), (3, 0), (0, 0)] * 3:
        m = _random_matrix(spec, rng, n, k)
        vec = tuple(_random_scalar(spec, rng) if rng.random() < 0.7 else spec.zero()
                    for _ in range(k))
        got = m.apply(vec)
        want = [sum((a * x for a, x in zip(row, vec)), spec.zero())
                for row in m.entries]
        assert isinstance(got, tuple) and len(got) == n
        for x, y in zip(got, want):
            _same_scalar(x, y)
    with pytest.raises(LinalgError):
        Matrix.identity(spec, 2).apply((spec.one(),))


def test_substitution_and_apply_make_no_field_element_product(monkeypatch):
    # translate, evaluate and Matrix.apply run on integer terms and rows
    from invforge.fields import FieldElement
    cases = []
    for text in ("finite(5)", "cyclotomic(20)"):
        spec = parse_field_spec(text)
        p = parse_polynomial("x1^3*x2 + 2*x2^2*x3 - x1*x3 + 4", 3, spec)
        point = (spec.from_int(2), spec.one() + spec.gen(), spec.from_int(3))
        m = Matrix.from_rows(spec, [[1, 2, 0], [0, 3, 4], [1, 0, 1], [2, 2, 2]])
        cases.append((p, point, m))
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    for p, point, m in cases:
        p.translate(point)
        p.evaluate(point)
        m.apply(point)
    assert calls == []
