import itertools
import random

import pytest

from invforge.errors import ModularityError
from invforge.fields import FieldSpec
from invforge.groups import close_group
from invforge.invariants import (Relation, apply_matrix,
                                 check_presented_automorphism,
                                 cst_quotient_action, find_relation,
                                 hilbert_dims, invariant_space, is_invariant,
                                 minimal_generators, molien_series, monomials,
                                 reynolds, scaled_torus_exponents)
from invforge.linalg import EchelonBasis, Matrix
from invforge.poly import Polynomial, parse_polynomial
from invforge import corpus

Q = FieldSpec.rationals()


@pytest.fixture(scope="module")
def char2_group():
    return corpus.load_corpus_group("char2.group")


def test_invariant_space_mu_n(mu3):
    space = invariant_space(mu3, 2)
    assert len(space) == 1
    assert space[0] == parse_polynomial("x1*x2", 2, mu3.spec)


def test_invariant_space_trivial():
    triv = close_group([Matrix.identity(Q, 2)])
    assert len(invariant_space(triv, 3)) == 4


def test_invariant_space_char2_degree_one(char2_group):
    space = invariant_space(char2_group, 1)
    rendered = {p.render() for p in space}
    assert rendered == {"x1", "x3"}


def test_monomial_fast_path_matches_dense_kernel(icosahedral):
    # orbit transport (plus kernel cuts for e8's non-monomial generator)
    # must agree with the kernel step folded over every generator from the
    # identity basis
    from invforge.invariants import _kernel_cut, _orbit_fixed_vectors
    cases = [(corpus.load_corpus_group(name), (1, 2, 3, 4))
             for name in ("an-split.group", "mu2sq.group", "a4perm.group",
                          "po3diag.group")]
    cases.append((icosahedral, (12, 20, 30)))
    for g, degrees in cases:
        for d in degrees:
            basis = monomials(g.n, d)
            fast = invariant_space(g, d)
            dense = _orbit_fixed_vectors(g.spec, basis, [])
            for m in g.generators():
                dense = _kernel_cut(g.spec, basis, dense, m)
            as_polys = lambda polys: sorted(p.render() for p in polys)
            assert as_polys(fast) == as_polys(
                Polynomial(g.spec, g.n,
                           {e: c for e, c in zip(basis, v) if not c.is_zero()})
                for v in dense), (g.name, d)


def test_hilbert_dims_m7_eliminates_only_in_kernels(monkeypatch):
    # a kernel cut returns the rref kernel rows times its rref input rows,
    # which are rref already: 12 kernel eliminations and 10 rref kernel
    # bases, and no third elimination of each of the 10 cuts
    g = corpus.load_corpus_group("m7.group")
    calls = []
    original = Matrix.rref

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    assert hilbert_dims(g, 12).dims == (1, 0, 0, 1, 3, 3, 4, 6, 6, 7, 9, 12, 13)
    assert len(calls) == 22


def test_invariant_space_maps_only_the_running_support(icosahedral, monkeypatch):
    # orbit transport maps all d + 1 monomials under e8's diagonal
    # generator; the dense generator maps only the 3, 5 or 7 that survive,
    # whichever order the generators come in
    swapped = close_group(icosahedral.generators()[::-1])
    calls = []
    original = Polynomial.substitute_linear

    def counted(self, rows):
        calls.append(1)
        return original(self, rows)

    monkeypatch.setattr(Polynomial, "substitute_linear", counted)
    for d, images in ((12, 16), (20, 26), (30, 38)):
        bases = []
        for g in (icosahedral, swapped):
            calls.clear()
            bases.append(invariant_space(g, d))
            assert len(calls) == images, (g.generators(), d)
        assert bases[0] == bases[1]


def test_m7_invariant_space_scalar_multiplies(monkeypatch):
    # rref, the monomial images and both combine_rows run on integer rows:
    # the 91 x 91 degree-12 kernel cut costs no FieldElement product, and
    # what is left is orbit transport's 91 unit coefficients (FieldElement
    # elimination: 286,902; FieldElement accumulation and images: 9,280)
    from invforge.fields import FieldElement
    m7 = corpus.load_corpus_group("m7.group")
    calls = {"all": 0, "in rref": 0}
    depth = [0]
    mul, rref = FieldElement.__mul__, Matrix.rref

    def counted_mul(self, other):
        calls["all"] += 1
        calls["in rref"] += depth[0] > 0
        return mul(self, other)

    def traced_rref(self):
        depth[0] += 1
        try:
            return rref(self)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    monkeypatch.setattr(Matrix, "rref", traced_rref)
    assert len(invariant_space(m7, 12)) == 13
    assert calls["in rref"] == 0
    assert calls["all"] <= 91


def test_e8_generator_search_inserts_without_scalar_multiplies(icosahedral, monkeypatch):
    # EchelonBasis eliminates on integer rows: the generator search's
    # insertions cost no FieldElement product (FieldElement rows: 10,768)
    from invforge.fields import FieldElement
    calls = {"in insert": 0}
    depth = [0]
    mul, insert = FieldElement.__mul__, EchelonBasis.insert

    def counted_mul(self, other):
        calls["in insert"] += depth[0] > 0
        return mul(self, other)

    def traced_insert(self, vec):
        depth[0] += 1
        try:
            return insert(self, vec)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    monkeypatch.setattr(EchelonBasis, "insert", traced_insert)
    assert minimal_generators(icosahedral).degrees == [12, 20, 30]
    assert calls["in insert"] == 0


def test_hilbert_dims_examples():
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert hilbert_dims(mi, 4).dims == (1, 0, 3, 0, 5)
    triv = close_group([Matrix.identity(Q, 2)])
    assert hilbert_dims(triv, 4).dims == (1, 2, 3, 4, 5)


def test_hilbert_icosahedral_degree_12(icosahedral):
    assert hilbert_dims(icosahedral, 12)[12] == 1


def test_molien_examples(icosahedral):
    triv = close_group([Matrix.identity(Q, 2)])
    assert molien_series(triv, 3).dims == (1, 2, 3, 4)
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert molien_series(mi, 4).dims == (1, 0, 3, 0, 5)
    mol = molien_series(icosahedral, 31)
    nonzero = [d for d in range(32) if mol[d]]
    assert nonzero == [0, 12, 20, 24, 30]


def test_molien_rejects_positive_characteristic(char2_group):
    with pytest.raises(ModularityError):
        molien_series(char2_group, 4)


def test_molien_matches_hilbert_cross_oracle():
    for name in ("an-split.group", "an-nonsplit.group", "q8.group",
                 "mu2sq.group", "s3perm.group", "mixed.group"):
        g = corpus.load_corpus_group(name)
        assert molien_series(g, 10).dims == hilbert_dims(g, 10).dims, name


def test_reynolds_projection():
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    x = parse_polynomial("x", 2, Q)
    assert reynolds(mi, x).is_zero()
    x2 = parse_polynomial("x^2", 2, Q)
    assert reynolds(mi, x2) == x2


def test_reynolds_idempotent_and_image_dimension(mu3, sign_group):
    rng = random.Random(31)
    for g in (mu3, sign_group):
        for d in (2, 3, 4):
            dims = hilbert_dims(g, d)
            images = []
            for _ in range(dims[d] + 3):
                terms = {}
                for e in monomials(g.n, d):
                    c = rng.randint(-3, 3)
                    if c:
                        terms[e] = g.spec.from_int(c)
                f = Polynomial(g.spec, g.n, terms)
                rf = reynolds(g, f)
                assert reynolds(g, rf) == rf
                images.append(rf)
            basis_order = monomials(g.n, d)
            idx = {e: i for i, e in enumerate(basis_order)}
            rows = []
            for p in images:
                vec = [g.spec.zero()] * len(basis_order)
                for e, c in p.terms.items():
                    vec[idx[e]] = c
                rows.append(vec)
            assert Matrix(g.spec, rows).rank() == dims[d]


def test_reynolds_rejects_modular(char2_group):
    with pytest.raises(ModularityError):
        reynolds(char2_group, parse_polynomial("x1", 4, char2_group.spec))


def test_minimal_generators_mu3(mu3):
    gs = minimal_generators(mu3)
    assert gs.degrees == [2, 3, 3]
    assert gs.e == 1
    assert [p.render() for p in gs.polynomials] == ["x1*x2", "x1^3", "x2^3"]


def test_minimal_generators_signs(sign_group):
    gs = minimal_generators(sign_group)
    assert gs.degrees == [2, 2]
    assert [p.render() for p in gs.polynomials] == ["x1^2", "x2^2"]
    assert gs.e == 2
    assert scaled_torus_exponents(gs) == [1, 1]


def test_minimal_generators_icosahedral(icosahedral):
    gs = minimal_generators(icosahedral)
    assert gs.degrees == [12, 20, 30]
    assert gs.e == 2
    assert scaled_torus_exponents(gs) == [6, 10, 15]


def test_generators_regenerate_hilbert(mu3, sign_group, icosahedral):
    # dimension of weighted products of generators per degree matches
    from invforge.invariants import (_power_product, coefficient_vector,
                                     weighted_monomials)
    for g, dmax in ((mu3, 6), (sign_group, 8), (icosahedral, 24)):
        gs = minimal_generators(g)
        dims = hilbert_dims(g, dmax)
        cache = {}
        for d in range(1, dmax + 1):
            idx = {e: i for i, e in enumerate(monomials(g.n, d))}
            span = EchelonBasis(g.spec)
            for expo in weighted_monomials(gs.degrees, d):
                p = _power_product(gs.polynomials, expo, cache)
                span.insert(coefficient_vector(p, idx))
            rank = len(span)
            assert rank == dims[d], (g.name, d)


def test_degree_gcd_divides_every_invariant_degree():
    for name in ("e8.group", "an-split.group", "mu2sq.group", "mixed.group"):
        g = corpus.load_corpus_group(name)
        gs = minimal_generators(g)
        dims = hilbert_dims(g, min(12, 2 * max(gs.degrees)))
        for d in range(1, len(dims)):
            if dims[d]:
                assert d % gs.e == 0, (name, d)


def test_modular_generators_require_bound(char2_group):
    with pytest.raises(ModularityError):
        minimal_generators(char2_group)


def test_find_relation_mu_n(mu3):
    gs = minimal_generators(mu3)
    rel = find_relation(gs, 12)
    assert rel.weighted_degree == 6
    names = ("y1", "y2", "y3")
    assert rel.poly.render(names) == "y1^3 - y2*y3"


def test_find_relation_none_for_polynomial_invariants(sign_group):
    gs = minimal_generators(sign_group)
    assert find_relation(gs, 12) is None


def test_relation_substitutes_to_zero(icosahedral, mu3):
    for g in (mu3, icosahedral):
        gs = minimal_generators(g)
        rel = find_relation(gs, 60)
        assert rel is not None
        composed = rel.poly.compose(list(gs.polynomials))
        assert composed.is_zero()


def test_icosahedral_relation_support(icosahedral):
    gs = minimal_generators(icosahedral)
    rel = find_relation(gs, 60)
    assert rel.weighted_degree == 60
    assert rel.support() == [(5, 0, 0), (0, 3, 0), (0, 0, 2)]
    assert all(not c.is_zero() for c in rel.poly.terms.values())


def test_is_invariant_char2(char2_group):
    spec = char2_group.spec
    for text in ("x1", "x3", "x2^2 + x1*x2", "x4^2 + x3*x4", "x1*x4 + x2*x3"):
        assert is_invariant(char2_group, parse_polynomial(text, 4, spec))
    assert not is_invariant(char2_group, parse_polynomial("x2", 4, spec))
    assert is_invariant(char2_group, parse_polynomial("1", 4, spec))


def test_char2_relation_exact(char2_group):
    spec = char2_group.spec
    names = tuple(f"s{i+1}" for i in range(5))
    relation = parse_polynomial("s5^2 + s1*s2*s5 + s1^2*s4 + s2^2*s3", 5, spec,
                                var_names=names)
    images = [parse_polynomial(t, 4, spec) for t in
              ("x1", "x3", "x2^2 + x1*x2", "x4^2 + x3*x4", "x1*x4 + x2*x3")]
    assert relation.compose(images).is_zero()


def test_check_presented_automorphism_split():
    rel_poly = parse_polynomial("x1*x2 - x3^3", 3, Q)
    rel = Relation(rel_poly, 6, (1, 1, 1))
    x = Polynomial.variable(Q, 3, 0)
    y = Polynomial.variable(Q, 3, 1)
    z = Polynomial.variable(Q, 3, 2)
    for p_of_x in (x, x * x):
        shift = x * p_of_x
        quo, rem = ((z + shift) ** 3 - z ** 3).divmod_single(x)
        assert rem.is_zero()
        assert check_presented_automorphism(rel, [x, y + quo, z + shift])
    # identity images
    assert check_presented_automorphism(rel, [x, y, z])


def test_check_presented_automorphism_nonsplit_case():
    d = Q.from_int(2)
    n = 3
    x = Polynomial.variable(Q, 3, 0)
    y = Polynomial.variable(Q, 3, 1)
    z = Polynomial.variable(Q, 3, 2)
    rel = Relation(x * x - (y * y).scale(d) - z ** n, 2 * n, (1, 1, 1))
    # similitude [[c, d s], [s, c]] with (c, s) = (1, 1): factor det = -1
    det = Q.from_int(1 - 2)
    new_x = (x + y.scale(d)).scale(det)       # det^r with r = 1
    new_y = (x + y).scale(det)
    new_z = z.scale(det)
    assert check_presented_automorphism(rel, [new_x, new_y, new_z])
    # a non-automorphism substitution fails
    assert not check_presented_automorphism(rel, [x + z, y, z])


def test_cst_reduction_sign_group(sign_group):
    rep = cst_quotient_action(sign_group)
    assert rep.applicable
    assert rep.reflection_group.order == 4
    assert [p.render() for p in rep.basics.polynomials] == ["x1^2", "x2^2"]
    assert len(rep.coset_action) == 1
    idx, mat = rep.coset_action[0]
    assert mat == Matrix.identity(Q, 2)


def test_cst_reduction_mixed_group():
    g = corpus.load_corpus_group("mixed.group")
    rep = cst_quotient_action(g)
    assert rep.applicable
    w = rep.reflection_group
    assert g.order % w.order == 0
    assert len(rep.coset_action) == g.order // w.order
    prod = 1
    for d in rep.basics.degrees:
        prod *= d
    assert prod == w.order
    assert len(rep.basics) == g.n


def test_cst_reduction_reflection_free(icosahedral):
    rep = cst_quotient_action(icosahedral)
    assert rep.applicable
    assert rep.reflection_group.order == 1
    assert rep.basics.degrees == [1, 1]
    assert len(rep.coset_action) == icosahedral.order
    # each coset representative acts on the coordinates by its own matrix
    transposes = {m.transpose().key() for m in icosahedral.elements}
    action_keys = {mat.key() for _, mat in rep.coset_action}
    assert action_keys == transposes


def test_apply_matrix_composition(mu3):
    f = parse_polynomial("x1^2*x2 + x2^3", 2, mu3.spec)
    g1, = mu3.generators()
    lhs = apply_matrix(g1, apply_matrix(g1, f))
    rhs = apply_matrix(g1 * g1, f)
    assert lhs == rhs


def test_e8_products_make_no_scalar_multiplies(icosahedral, monkeypatch):
    # Polynomial and Matrix products convert their operands to integer rows
    # once per call: closing e8 and searching its generators costs them no
    # FieldElement product (FieldElement loops: 1,920 in the closure and
    # 13,222 in the search)
    from invforge.fields import FieldElement
    calls = {"inside": 0}
    depth = [0]
    mul = FieldElement.__mul__

    def counted_mul(self, other):
        calls["inside"] += depth[0] > 0
        return mul(self, other)

    def traced(method):
        def wrapper(*args):
            depth[0] += 1
            try:
                return method(*args)
            finally:
                depth[0] -= 1
        return wrapper

    monkeypatch.setattr(FieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(FieldElement, "__rmul__", counted_mul)
    for cls, name in ((Polynomial, "__mul__"), (Polynomial, "__pow__"),
                      (Polynomial, "compose"), (Matrix, "__mul__")):
        monkeypatch.setattr(cls, name, traced(getattr(cls, name)))
    group = close_group(icosahedral.generators())
    assert group.order == 120
    assert minimal_generators(group).degrees == [12, 20, 30]
    assert calls["inside"] == 0


@pytest.mark.parametrize("degrees", [
    (), (1,), (3,), (1, 1), (2, 3), (3, 2), (12, 20), (1, 1, 1), (3, 1, 2),
    (4, 6, 3), (1, 1, 1, 1), (2, 3, 5, 7)])
def test_weighted_monomials_match_brute_force(degrees):
    # the last degree need not divide what the others leave: (2, 3) at w = 1,
    # (3, 2) at odd remainders, (4, 6, 3) at most weights
    from invforge.invariants import weighted_monomials
    for w in range(-1, 16):
        ranges = [range(w // d + 1) for d in degrees]
        want = sorted((e for e in itertools.product(*ranges)
                       if sum(a * d for a, d in zip(e, degrees)) == w),
                      reverse=True)
        assert weighted_monomials(degrees, w) == want, (degrees, w)
        if set(degrees) <= {1}:
            assert monomials(len(degrees), w) == want
