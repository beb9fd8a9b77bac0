import os
import random

import pytest

from invforge.errors import (BoundExceededError, ClosureCapError, InvForgeError,
                             LinalgError)
from invforge.fields import FieldSpec
from invforge.groups import (automorphism_group, character_inner_product,
                             close_group, elementary_abelian_rank,
                             is_absolutely_irreducible,
                             is_diagonalizable_over_k, load_group_file,
                             natural_character, natural_character_self_product,
                             outer_classes, parse_group_text,
                             pseudo_reflections, reflection_subgroup)
from invforge.linalg import Matrix
from invforge.tables import TableGroup, is_automorphism
from invforge import corpus

Q = FieldSpec.rationals()


def test_close_minus_identity():
    g = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert g.order == 2


def test_close_icosahedral_order(icosahedral):
    assert icosahedral.order == 120


def test_close_unipotent_cap_exceeded():
    with pytest.raises(ClosureCapError):
        close_group([Matrix.from_rows(Q, [[1, 1], [0, 1]])], cap=10 ** 4)


def test_close_rejects_singular_generator():
    with pytest.raises(LinalgError):
        close_group([Matrix.from_rows(Q, [[1, 1], [1, 1]])])


def test_element_indices_stable(mu3):
    again = corpus.load_corpus_group("an-split.group")
    assert [m.key() for m in again.elements] == [m.key() for m in mu3.elements]


def test_pseudo_reflections_examples(sign_group):
    mi = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert pseudo_reflections(mi) == []
    refl = pseudo_reflections(sign_group)
    mats = [sign_group.elements[i] for i in refl]
    assert len(refl) == 2
    assert Matrix.from_rows(Q, [[-1, 0], [0, 1]]) in mats
    assert Matrix.from_rows(Q, [[1, 0], [0, -1]]) in mats
    f2 = FieldSpec.finite_field(2)
    trans = close_group([Matrix.from_rows(f2, [[1, 1], [0, 1]])])
    assert len(pseudo_reflections(trans)) == 1


def test_pseudo_reflections_conjugation_closed(sign_group, s3_perm):
    for g in (sign_group, s3_perm):
        refl = set(pseudo_reflections(g))
        for w in refl:
            for i in range(g.order):
                conj = g.mult(g.mult(i, w), g.inverse(i))
                assert conj in refl


def test_reflection_subgroup(sign_group, icosahedral):
    assert reflection_subgroup(sign_group).order == 4
    assert reflection_subgroup(icosahedral).order == 1
    triv = close_group([Matrix.identity(Q, 2)])
    assert reflection_subgroup(triv).order == 1


def test_absolutely_irreducible(icosahedral, mu3):
    assert is_absolutely_irreducible(icosahedral) is True
    assert is_absolutely_irreducible(mu3) is False
    triv1 = close_group([Matrix.identity(Q, 1)])
    assert is_absolutely_irreducible(triv1) is True


def test_diagonalizable(sign_group, nonsplit_rotation):
    assert is_diagonalizable_over_k(sign_group) is True
    assert is_diagonalizable_over_k(nonsplit_rotation) is False
    # the same rotation acquires its eigenvalues over Q(zeta_3)
    c3 = FieldSpec.cyclotomic(3)
    rot = Matrix(c3, [[c3.from_fraction("-1/2"), c3.from_fraction("-3/2")],
                      [c3.from_fraction("1/2"), c3.from_fraction("-1/2")]])
    over_c3 = close_group([rot])
    assert is_diagonalizable_over_k(over_c3) is True


def test_elementary_abelian_rank(sign_group, quaternion):
    assert elementary_abelian_rank(sign_group, 2) == 2
    assert elementary_abelian_rank(quaternion, 2) == 1
    assert elementary_abelian_rank(sign_group, 3) == 0
    signs3 = corpus.load_corpus_group("po3diag.group")
    assert elementary_abelian_rank(signs3, 2) == 3


def test_rank_bounded_by_dimension():
    # diagonalizable abelian subgroups need at most n independent generators
    for name, ell in (("mu2sq.group", 2), ("po3diag.group", 2),
                      ("q8.group", 2), ("an-split.group", 3)):
        g = corpus.load_corpus_group(name)
        if ell == g.spec.characteristic():
            continue
        assert elementary_abelian_rank(g, ell) <= g.n


def test_automorphism_counts(quaternion):
    c6 = FieldSpec.cyclotomic(6)
    z6 = close_group([Matrix(c6, [[c6.gen()]])])
    assert len(automorphism_group(z6)) == 2
    auts = automorphism_group(quaternion)
    assert len(auts) == 24
    assert len([a for a in auts if a.inner]) == 4
    assert len(outer_classes(quaternion)) == 6


def test_automorphisms_of_s3_all_inner(s3_perm):
    auts = automorphism_group(s3_perm)
    assert len(auts) == 6
    assert all(a.inner for a in auts)


def test_automorphism_group_properties(quaternion):
    tg = quaternion.table_group()
    auts = automorphism_group(quaternion)
    perms = {a.perm for a in auts}
    for a in auts:
        assert is_automorphism(tg, a.perm)
        for b in auts:
            assert a.compose(b) in perms
    inner_count = len([a for a in auts if a.inner])
    center = len(quaternion.center_indices())
    assert inner_count == quaternion.order // center


def test_automorphism_bound():
    with pytest.raises(BoundExceededError):
        g = corpus.load_corpus_group("q8.group")
        automorphism_group(g, bound=4)


def test_lagrange_on_corpus():
    for name in ("q8.group", "mu2sq.group", "s3perm.group", "a4perm.group",
                 "an-split.group", "po3diag.group", "mixed.group"):
        g = corpus.load_corpus_group(name)
        for i in range(g.order):
            assert g.order % g.element_order(i) == 0


def test_natural_character(icosahedral, sign_group):
    triv = close_group([Matrix.identity(Q, 3)])
    assert natural_character_self_product(triv).as_rational() == 9
    assert natural_character_self_product(icosahedral).as_rational() == 1
    assert natural_character_self_product(sign_group).as_rational() == 2


def test_character_inner_product_rejects_positive_characteristic():
    from invforge.errors import ModularityError
    g = corpus.load_corpus_group("char2.group")
    chi = natural_character(g)  # traces themselves are fine in char p
    with pytest.raises(ModularityError):
        character_inner_product(g, chi, chi)


def test_character_conjugation_matches_inverse(quaternion, mu3):
    # conj(chi(g)) = chi(g^{-1}) for characters over a cyclotomic field
    for g in (quaternion, mu3):
        chi = natural_character(g)
        for i in range(g.order):
            assert chi[i].conjugate() == chi[g.inverse(i)]


def _conjugation_pairing(g, chi, psi):
    """<chi, psi> with conj(psi(x)) taken by the cyclotomic conjugation."""
    total = g.spec.zero()
    for i in range(g.order):
        total = total + chi[i] * psi[i].conjugate()
    return total / g.spec.from_int(g.order)


@pytest.mark.parametrize("name", ["e8.group", "q8.group", "an-split-5.group"])
def test_character_pairing_matches_conjugation_reference(name):
    # the pairing reads conj(psi(x)) as psi(x^{-1}); on the characters the
    # library pairs, chi and chi o phi for each outer class phi, that is
    # the complex conjugate
    g = corpus.load_corpus_group(name)
    chi = natural_character(g)
    for psi in [chi] + [tuple(chi[phi(i)] for i in range(g.order))
                        for phi in outer_classes(g)]:
        assert character_inner_product(g, chi, psi) == _conjugation_pairing(g, chi, psi)


def test_irreducible_iff_unit_inner_product(icosahedral, quaternion, mu3):
    for g in (icosahedral, quaternion, mu3):
        expected = natural_character_self_product(g).as_rational() == 1
        assert is_absolutely_irreducible(g) is expected


def test_group_file_parsing_errors():
    with pytest.raises(Exception):
        parse_group_text("dim = 2\ngenerator = 1, 0, 0, 1")  # missing field
    with pytest.raises(Exception):
        parse_group_text("field = rational\ndim = 2\ngenerator = 1, 0, 0")


def test_table_group_quotient(quaternion):
    tg = quaternion.table_group()
    quotient, coset_of = tg.quotient(quaternion.scalar_indices())
    assert quotient.n == 4
    assert all(quotient.element_order(i) in (1, 2) for i in range(4))
    assert coset_of[0] == 0


def test_table_group_cyclic():
    t = TableGroup.cyclic(6)
    assert t.element_order(1) == 6
    assert t.is_abelian()
    assert len(t.center()) == 6


def test_table_without_inverses_refused():
    # 0 is an identity, but 1 * 1 = 1: the powers of 1 never reach 0, as an
    # action file's gamma_table may say.  The walk must stop, not loop.
    t = TableGroup([[0, 1], [1, 1]])
    with pytest.raises(InvForgeError):
        t.element_order(1)
    with pytest.raises(InvForgeError):
        t.inverse(1)


# -- multiplication on the closure's Cayley graph ---------------------------

def _corpus_groups(max_order):
    """(file name, freshly closed group) for corpus groups of order <= max_order.

    Closing with cap = max_order stops the large groups after a few products.
    """
    out = []
    for fname in sorted(os.listdir(corpus.DATA_DIR)):
        if not fname.endswith(".group"):
            continue
        spec, n, gens, name, cap = load_group_file(
            os.path.join(corpus.DATA_DIR, fname), close=False)
        try:
            out.append((fname, close_group(gens, cap=max_order, name=name)))
        except ClosureCapError:
            continue
    return out


def _check_products(g, pairs):
    """index_of(e_i * e_j) == mult(i, j) == table_group().mult(i, j), exactly.

    mult is read before the table exists, so it walks breadth-first words.
    """
    words = [g.mult(i, j) for i, j in pairs]
    table = g.table_group()
    for (i, j), w in zip(pairs, words):
        assert g.index_of(g.elements[i] * g.elements[j]) == w == table.mult(i, j)


def _check_all_products(g):
    fresh = close_group(g.generators())  # no table yet
    assert [m.key() for m in fresh.elements] == [m.key() for m in g.elements]
    pairs = [(i, j) for i in range(g.order) for j in range(g.order)]
    _check_products(fresh, pairs)
    assert g.table_group().table == fresh.table_group().table


def test_cayley_mult_small_corpus_groups():
    groups = _corpus_groups(12)
    assert len(groups) == 17
    for _, g in groups:
        _check_all_products(g)


def test_cayley_mult_fixtures(quaternion, mu3, sign_group, s3_perm,
                              nonsplit_rotation):
    for g in (quaternion, mu3, sign_group, s3_perm, nonsplit_rotation):
        _check_all_products(g)


def test_cayley_mult_icosahedral_sample():
    g = load_group_file(os.path.join(corpus.DATA_DIR, "e8.group"))
    rng = random.Random(20)
    pairs = [(i, k) for i in range(g.order) for k in g.generator_indices]
    pairs += [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(500)]
    _check_products(g, pairs)


def test_cayley_mult_edge_cases():
    a = Matrix.from_rows(Q, [[0, -1], [1, 0]])
    with_identity = close_group([Matrix.identity(Q, 2), a])
    assert with_identity.order == 4
    assert with_identity.generator_indices[0] == 0
    repeated = close_group([a, a])
    assert repeated.order == 4
    assert repeated.generator_indices[0] == repeated.generator_indices[1]
    c6 = FieldSpec.cyclotomic(6)
    one_by_one = close_group([Matrix(c6, [[c6.gen()]])])
    assert one_by_one.order == 6
    f5 = FieldSpec.finite_field(5)
    over_f5 = close_group([Matrix.from_rows(f5, [[1, 1], [0, 1]]),
                           Matrix.from_rows(f5, [[2, 0], [0, 1]])])
    assert over_f5.order == 20
    for g in (with_identity, repeated, one_by_one, over_f5):
        _check_all_products(g)


def test_cayley_table_costs_no_matrix_products(monkeypatch):
    calls = []
    product = Matrix.__mul__

    def counted(self, other):
        calls.append(None)
        return product(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    g = load_group_file(os.path.join(corpus.DATA_DIR, "e8.group"))
    assert len(calls) == g.order * len(g.generator_indices) == 240
    calls.clear()
    g.mult(17, 93)
    g.table_group()
    g.subgroup(g.center_indices())
    assert calls == []


def test_subgroup_matches_closure_order():
    found = []
    for fname, g in _corpus_groups(12):
        refl = pseudo_reflections(g)
        if not refl:
            continue
        found.append(fname)
        sub = reflection_subgroup(g)
        closed = close_group([g.elements[i] for i in refl])
        assert sub.elements == closed.elements
        assert sub.generator_indices == closed.generator_indices
        _check_all_products(sub)
    assert found == ["mixed.group", "mu2sq.group", "mu4mod.group",
                     "po3diag.group", "s3perm.group", "z2mod.group"]


def test_conjugacy_classes_partition(quaternion, s3_perm):
    for g in (quaternion, s3_perm):
        classes = g.conjugacy_classes()
        assert sorted(x for cls in classes for x in cls) == list(range(g.order))
        for cls in classes:
            for gi in g.generator_indices:
                assert {g.mult(g.mult(gi, x), g.inverse(gi)) for x in cls} == set(cls)
    assert [len(c) for c in quaternion.conjugacy_classes()] == [1, 2, 2, 1, 2]
