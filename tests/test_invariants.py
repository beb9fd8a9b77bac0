import itertools
import math
import os
import random

import pytest

from invforge.errors import (BoundExceededError, CertificateError,
                             ModularityError)
from invforge.fields import FieldSpec
from invforge.groups import close_group
from invforge.invariants import (GradedDims, Relation, _kernel_cut,
                                 _monomial_images,
                                 _orbit_fixed_vectors, apply_matrix,
                                 check_presented_automorphism,
                                 cst_quotient_action, find_relation,
                                 hilbert_dims, invariant_space, is_invariant,
                                 minimal_generators, molien_series, monomials,
                                 reynolds, scaled_torus_exponents)
from invforge.linalg import EchelonBasis, Matrix
from invforge.poly import Polynomial, _poly_of_int_terms, parse_polynomial
from invforge import corpus, fields, groups, invariants

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
    cases = [(corpus.load_corpus_group(name), (1, 2, 3, 4))
             for name in ("an-split.group", "mu2sq.group", "a4perm.group",
                          "po3diag.group", "q8.group", "mixed.group",
                          "char2.group")]
    cases.append((icosahedral, (12, 20, 30)))
    for g, degrees in cases:
        for d in degrees:
            basis = monomials(g.n, d)
            fast = invariant_space(g, d)
            dense = _orbit_fixed_vectors(g.spec, basis, [])
            for m in g.generators():
                dense = _kernel_cut(g, basis, dense, m)
            as_polys = lambda polys: sorted(p.render() for p in polys)
            assert as_polys(fast) == as_polys(
                Polynomial(g.spec, g.n,
                           {e: c for e, c in zip(basis, v) if not c.is_zero()})
                for v in dense), (g.name, d)


def test_kernel_cut_of_no_rows_is_no_rows(quaternion):
    # q8 fixes no linear form, and its first generator already cuts the
    # identity basis to nothing, so the fold's second cut gets no rows
    basis = monomials(quaternion.n, 1)
    gens = quaternion.generators()
    assert _kernel_cut(quaternion, basis, [], gens[0]) == []
    zero, one = quaternion.spec.zero(), quaternion.spec.one()
    rows = [[one if i == j else zero for j in range(len(basis))]
            for i in range(len(basis))]
    cuts = []
    for g in gens:
        rows = _kernel_cut(quaternion, basis, rows, g)
        cuts.append(len(rows))
    assert cuts == [0] * len(gens)
    assert invariant_space(quaternion, 1) == []


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


def test_hilbert_dims_m7_combines_on_the_free_columns_only(monkeypatch):
    # EchelonBasis stores its rows without their pivot columns, so each
    # elimination step touches n - rank entries (412,877 on all n columns)
    g = corpus.load_corpus_group("m7.group")
    entries = [0]
    kind = type(g.spec)
    original = kind._row_combine

    def counted(self, D, row, F, piv):
        entries[0] += len(row)
        return original(self, D, row, F, piv)

    monkeypatch.setattr(kind, "_row_combine", counted)
    assert hilbert_dims(g, 12).dims == (1, 0, 0, 1, 3, 3, 4, 6, 6, 7, 9, 12, 13)
    assert entries[0] < 150_000


def test_minimal_generators_e8_multiplies_only_dense_scalars(monkeypatch):
    # zero entries and rational scalars in the integer rows never reach the
    # schoolbook product (28,939 calls when every pair paid for it); its own
    # e8, so that no earlier test's cached images or series decide the count
    icosahedral = groups.load_group_file(
        os.path.join(corpus.DATA_DIR, "e8.group"))
    calls = [0]
    original = fields._reduced_product

    def counted(a, b, tail):
        calls[0] += 1
        return original(a, b, tail)

    monkeypatch.setattr(fields, "_reduced_product", counted)
    assert minimal_generators(icosahedral).degrees == [12, 20, 30]
    assert calls[0] < 10_000


def test_minimal_generators_e8_reduced_products_within_budget(monkeypatch):
    # the search stops at 30, and the dense generator's linear images are
    # raised by the multinomial theorem
    icosahedral = groups.load_group_file(
        os.path.join(corpus.DATA_DIR, "e8.group"))
    calls = [0]
    original = fields._reduced_product

    def counted(a, b, tail):
        calls[0] += 1
        return original(a, b, tail)

    monkeypatch.setattr(fields, "_reduced_product", counted)
    assert minimal_generators(icosahedral).degrees == [12, 20, 30]
    assert calls[0] <= 4_500


def _char0_corpus_groups():
    """Freshly loaded characteristic-0 corpus groups, 2i2i2 left out."""
    for name in sorted(os.listdir(corpus.DATA_DIR)):
        if name.endswith(".group") and name != "2i2i2.group":
            g = groups.load_group_file(os.path.join(corpus.DATA_DIR, name))
            if g.spec.characteristic() == 0:
                yield name, g


def _traced_bounds(monkeypatch):
    """The values `_cohen_macaulay_bound` returns in one run."""
    bounds, bound = [], invariants._cohen_macaulay_bound

    def traced(*args):
        bounds.append(bound(*args))
        return bounds[-1]

    monkeypatch.setattr(invariants, "_cohen_macaulay_bound", traced)
    return bounds


def _traced_spaces(monkeypatch):
    """The degrees `invariant_space` is asked for in one run."""
    asked, space = [], invariants.invariant_space

    def traced(g, d):
        asked.append(d)
        return space(g, d)

    monkeypatch.setattr(invariants, "invariant_space", traced)
    return asked


def test_minimal_generators_same_with_the_stop_off(monkeypatch):
    # with no reduction there is no hsop test and the search runs to |G|
    stopped = {name: minimal_generators(g).generators
               for name, g in _char0_corpus_groups()}
    assert len(stopped) == 16
    monkeypatch.setattr(invariants, "degree_one_reduction", lambda spec, reps: None)
    bounds = _traced_bounds(monkeypatch)
    for name, g in _char0_corpus_groups():
        assert minimal_generators(g).generators == stopped[name], name
    assert bounds == []


def test_minimal_generators_fall_back_when_every_reduction_is_zero(monkeypatch):
    # a reduction that sends every coefficient to 0 certifies no hsop: the
    # search runs to |G| = 120 on e8 and to 12 on a4perm, with the same output
    want = {name: minimal_generators(
        groups.load_group_file(os.path.join(corpus.DATA_DIR, name)))
        for name in ("e8.group", "a4perm.group")}
    F = FieldSpec.finite_field(41)
    monkeypatch.setattr(invariants, "degree_one_reduction",
                        lambda spec, reps: (F, lambda rep: (0,)))
    bounds = _traced_bounds(monkeypatch)
    for name, gs in want.items():
        fresh = groups.load_group_file(os.path.join(corpus.DATA_DIR, name))
        got = minimal_generators(fresh)
        assert (got.generators, got.e, got.d_max) == (gs.generators, gs.e, gs.d_max)
        assert len(fresh._cache["molien series"][1]) == fresh.order + 1
    assert bounds and set(bounds) == {None}


def test_minimal_generators_e8_stops_at_the_cohen_macaulay_bound(monkeypatch):
    # f12 and f20 are an hsop and Molien (1 - t^12)(1 - t^20) = 1 + t^30:
    # the search and the Molien series stop at 30, and the exact search
    # runs at 12, 20 and 30 only
    icosahedral = groups.load_group_file(
        os.path.join(corpus.DATA_DIR, "e8.group"))
    exact = _traced_spaces(monkeypatch)
    bounds = _traced_bounds(monkeypatch)
    assert minimal_generators(icosahedral).degrees == [12, 20, 30]
    assert len(icosahedral._cache["molien series"][1]) == 31
    assert exact == [12, 20, 30]
    assert bounds == [30]


def test_hsop_test_skips_the_last_degree(monkeypatch):
    # an-split-5 finds its coprime pair of quintics at d = |G| = 5, where
    # the search ends anyway; e8 to 20 finds f20 at its last degree, so
    # Molien is not extended to 30
    bounds = _traced_bounds(monkeypatch)
    assert minimal_generators(corpus.load_corpus_group("an-split-5.group")).degrees == [2, 5, 5]
    assert bounds == []
    icosahedral = groups.load_group_file(
        os.path.join(corpus.DATA_DIR, "e8.group"))
    assert minimal_generators(icosahedral, 20).degrees == [12, 20]
    assert len(icosahedral._cache["molien series"][1]) == 21
    assert bounds == []


@pytest.mark.parametrize("name, stop, degrees", [
    # e1, e2, e3 plus the A4 generator e4 (degree product 24 = 2 |G|): the
    # secondaries are 1 and the Vandermonde, of degree 6
    ("a4perm.group", 6, [1, 2, 3, 4, 6]),
    # the power sums of degrees 1, 2, 3 are primaries with N = 1
    ("s3perm.group", 3, [1, 2, 3]),
])
def test_minimal_generators_stop_for_three_and_more_variables(monkeypatch, name,
                                                              stop, degrees):
    g = groups.load_group_file(os.path.join(corpus.DATA_DIR, name))
    asked = _traced_spaces(monkeypatch)
    bounds = _traced_bounds(monkeypatch)
    assert minimal_generators(g).degrees == degrees
    assert bounds == [stop]
    assert max(asked) == stop
    assert len(g._cache["molien series"][1]) == stop + 1


def _coprime_reference(f, g):
    """True iff the binary forms f, g have no common factor: the variable y
    divides at most one of them, and Euclid's gcd of f(x, 1) and g(x, 1)
    (one-variable `Polynomial`s, by `divmod_single`) is a constant."""
    if all(e[1] for e in f.terms) and all(e[1] for e in g.terms):
        return False
    a, b = (Polynomial(h.spec, 1, {e[:1]: c for e, c in h.terms.items()})
            for h in (f, g))
    while not b.is_zero():
        a, b = b, a.divmod_single(b)[1]
    return a.total_degree() == 0


def test_binary_hsop_rank_matches_euclid():
    # for n = 2 the rank test is the Sylvester matrix: over K full rank is
    # coprimality, and full rank mod P implies it
    pairs = unlucky = 0
    for name, g in _char0_corpus_groups():
        if g.n != 2:
            continue
        gs = minimal_generators(g)
        field, _, images = invariants._reduce_generators(g.spec, gs.polynomials, None)
        for i, j in itertools.combinations(range(len(gs)), 2):
            degs = [gs.degrees[i], gs.degrees[j]]
            coprime = _coprime_reference(gs.polynomials[i], gs.polynomials[j])
            assert invariants._is_hsop(
                g.spec, degs, [gs.polynomials[i], gs.polynomials[j]]) == coprime
            if invariants._is_hsop(field, degs, [images[i], images[j]]):
                assert coprime, (name, i, j)
            elif coprime:
                unlucky += 1
            pairs += 1
    assert pairs == 23 and unlucky == 1


def test_unlucky_prime_gives_no_bound():
    # an-nonsplit's quadric and first cubic are coprime, but their
    # Sylvester matrix drops rank mod 3: that pair certifies nothing, and
    # the other cubic's pair does
    g = corpus.load_corpus_group("an-nonsplit.group")
    gs = minimal_generators(g)
    assert gs.degrees == [2, 3, 3]
    f2, f3, g3 = gs.generators
    assert _coprime_reference(f2[1], f3[1])
    reduced = invariants._reduce_generators(g.spec, [f2[1], f3[1]], None)
    assert reduced[0] == FieldSpec.finite_field(3)
    assert invariants._cohen_macaulay_bound(g, [f2, f3], 1, reduced, 9) is None
    reduced = invariants._reduce_generators(g.spec, gs.polynomials, reduced)
    # Molien (1 - t^2)(1 - t^3) = 1 + t^3: two secondaries, 2 * 3 / 3
    assert invariants._cohen_macaulay_bound(g, list(gs.generators), 1, reduced, 9) == 3


def test_cohen_macaulay_bound_needs_an_hsop():
    # x^2 and x*y share x, x*y and y^2 share y (which y = 1 does not see);
    # x^2 and y^2 bound the invariants of -I at 2, since
    # Molien (1 - t^2)^2 = 1 + t^2; D = 3 past d_max = 2 skips the test
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    x2, xy, y2 = ((2, parse_polynomial(t, 2, Q)) for t in ("x^2", "x*y", "y^2"))

    def bound(gens, d_max=4):
        reduced = invariants._reduce_generators(Q, [f for _, f in gens], None)
        return invariants._cohen_macaulay_bound(mi, gens, 1, reduced, d_max)

    assert bound([x2, xy]) is None
    assert bound([xy, y2]) is None
    assert bound([x2, xy, y2]) == 2
    assert bound([x2, xy, y2], d_max=2) is None
    assert minimal_generators(mi).degrees == [2, 2, 2]


def test_non_hsop_triple_gives_no_bound():
    # x1, x2, x1*x3 all vanish on the x3-axis, so k[x]/(f) is infinite:
    # their degree-2 products miss x3^2.  x1, x2, x3^2 are an hsop of the
    # invariants of diag(1, 1, -1), a polynomial ring (N = 1)
    g = close_group([Matrix.from_rows(Q, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])])
    x1, x2, x1x3, x3sq = (parse_polynomial(t, 3, Q)
                          for t in ("x1", "x2", "x1*x3", "x3^2"))
    for third, want in ((x1x3, None), (x3sq, 2)):
        gens = [(1, x1), (1, x2), (2, third)]
        reduced = invariants._reduce_generators(Q, [f for _, f in gens], None)
        assert invariants._cohen_macaulay_bound(g, gens, 2, reduced, 6) == want
    assert minimal_generators(g).degrees == [1, 1, 2]


def test_wrong_molien_series_trips_the_certificate(monkeypatch):
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    x2, y2 = ((2, parse_polynomial(t, 2, Q)) for t in ("x^2", "y^2"))
    trivial = lambda n: (lambda g, d: GradedDims(
        [math.comb(k + n - 1, n - 1) for k in range(d + 1)]))
    # the trivial group's series: N = 1 + 2t + t^2 counts 4 secondaries, not 2
    monkeypatch.setattr(invariants, "molien_series", trivial(2))
    with pytest.raises(CertificateError, match="secondary"):
        minimal_generators(mi, 4)
    # n = 3: N = (1 + t)(1 + t + t^2) counts 6 secondaries of S3, not 1
    monkeypatch.setattr(invariants, "molien_series", trivial(3))
    with pytest.raises(CertificateError, match=r"\(1 - t\^3\) is not a count of 6/6"):
        minimal_generators(corpus.load_corpus_group("s3perm.group"))
    # N = 1 + 2t - t^2 adds up to 2 but has a negative coefficient
    monkeypatch.setattr(invariants, "molien_series",
                        lambda g, d: GradedDims([1, 2, 1][:d + 1]))
    reduced = invariants._reduce_generators(Q, [x2[1], y2[1]], None)
    with pytest.raises(CertificateError, match="secondary"):
        invariants._cohen_macaulay_bound(mi, [x2, y2], 1, reduced, 4)


def test_default_degree_bound_refused_past_the_enumeration_bound():
    # diag(64, 1, 1, 1) has order 181 in GL_4(F_1087) (64 = 2^6, 2^1086 = 1
    # and 181 is prime): degree 181 has C(184, 3) > 10^6 monomials
    F = FieldSpec.finite_field(1087)
    g = close_group([Matrix.from_rows(F, [[64, 0, 0, 0], [0, 1, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]])])
    assert g.order == 181 and math.comb(184, 3) > 10 ** 6
    with pytest.raises(BoundExceededError, match="--max-degree"):
        minimal_generators(g)
    assert minimal_generators(g, d_max=2).degrees == [1, 1, 1]


def test_invariant_space_maps_only_the_running_support(monkeypatch):
    # orbit transport maps all d + 1 monomials under e8's diagonal
    # generator, from the powers of its entries and with no substitution;
    # the dense generator maps only the 3, 5 or 7 that survive, whichever
    # order the generators come in.  Its own e8, so that no earlier test's
    # cached images decide the counts.
    icosahedral = groups.load_group_file(
        os.path.join(corpus.DATA_DIR, "e8.group"))
    swapped = close_group(icosahedral.generators()[::-1])
    calls = []
    original = Polynomial.substitute_linear

    def counted(self, rows):
        calls.append(1)
        return original(self, rows)

    monkeypatch.setattr(Polynomial, "substitute_linear", counted)
    for d, images in ((12, 3), (20, 5), (30, 7)):
        bases = []
        for g in (icosahedral, swapped):
            calls.clear()
            bases.append(invariant_space(g, d))
            assert len(calls) == images, (g.generators(), d)
        assert bases[0] == bases[1]


@pytest.mark.parametrize("name,reverse", [
    ("m7.group", False), ("e8.group", False), ("e8.group", True),
    ("an-split.group", False), ("char2.group", False), ("po3diag.group", False),
    ("mixed.group", False),
])
def test_monomial_images_match_substitution(name, reverse):
    # built from the previous degree's images where those are cached (the
    # ascending run, then 10 after 9 and 12 after 11), substituted where
    # not (9 after 6, 8 after 9, and the half of degree 12 whose
    # predecessors degree 11 left out); only the last degree stays cached
    g = corpus.load_corpus_group(name)
    if reverse:
        g = close_group(g.generators()[::-1])
    spec = g.spec
    for d in (1, 2, 3, 4, 5, 6, 9, 8, 10, 10, 11, 12):
        for m in g.generators():
            expos = monomials(g.n, d)
            if d == 11:
                expos = expos[::2]
            for e, (terms, den) in zip(expos, _monomial_images(g, m, expos)):
                assert _poly_of_int_terms(spec, g.n, terms, den) == apply_matrix(
                    m, Polynomial.monomial(spec, g.n, e)), (name, d, e)
            cached = g._cache["monomial images", m][3]
            assert {sum(e) for e in cached} == {d}


def test_hilbert_dims_m7_substitutes_only_at_degree_one(monkeypatch):
    # rho_d(g) is built from rho_(d-1)(g): only the 3 degree-1 images are
    # substitutions (454 when every degree substituted), and m7's one
    # generator cuts the identity basis, whose kernel is the cut itself
    g = corpus.load_corpus_group("m7.group")
    calls = {"substitute_linear": 0, "combine_rows": 0}
    substitute, combine = Polynomial.substitute_linear, invariants.combine_rows

    def counted_substitute(self, rows):
        calls["substitute_linear"] += 1
        return substitute(self, rows)

    def counted_combine(*args):
        calls["combine_rows"] += 1
        return combine(*args)

    monkeypatch.setattr(Polynomial, "substitute_linear", counted_substitute)
    monkeypatch.setattr(invariants, "combine_rows", counted_combine)
    assert hilbert_dims(g, 12).dims == (1, 0, 0, 1, 3, 3, 4, 6, 6, 7, 9, 12, 13)
    assert calls["substitute_linear"] <= 3
    assert calls["combine_rows"] == 0


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


def test_molien_series_memo_truncates(monkeypatch):
    # the recurrences are kept: a smaller d_max is a truncation and a larger
    # one extends them, with no characteristic polynomial taken again and
    # the coefficients of a fresh series, on every characteristic-0 group
    fresh = {name: molien_series(g, 40) for name, g in _char0_corpus_groups()}
    cached = list(_char0_corpus_groups())
    for _, g in cached:
        molien_series(g, 3)

    def no_berkowitz(*args):
        pytest.fail("molien_series recomputed a characteristic polynomial")

    monkeypatch.setattr(invariants, "_berkowitz", no_berkowitz)
    for name, g in cached:
        for d in (2, 40, 17, 4):
            assert molien_series(g, d).dims == fresh[name].dims[:d + 1], (name, d)


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


def test_cst_reduction_finds_pseudo_reflections_once(monkeypatch, sign_group):
    calls = []
    find = groups.pseudo_reflections

    def counted(g):
        calls.append(g)
        return find(g)

    monkeypatch.setattr(groups, "pseudo_reflections", counted)
    # the module's own name for it too, should it import one
    monkeypatch.setattr(invariants, "pseudo_reflections", counted, raising=False)
    mixed = corpus.load_corpus_group("mixed.group")
    for g in (sign_group, mixed):
        rep = cst_quotient_action(g)
        w = {g.index_of(m) for m in rep.reflection_group.elements}
        assert w == set(g.subgroup_closure(find(g)))
    assert calls == [sign_group, mixed]


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
