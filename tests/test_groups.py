import itertools
import os
import random

import pytest

from invforge.errors import (BoundExceededError, ClosureCapError, InvForgeError,
                             LinalgError)
from invforge.fields import FieldSpec, _berkowitz
from invforge.groups import (automorphism_group, character_inner_product,
                             close_group, elementary_abelian_rank,
                             is_absolutely_irreducible,
                             is_diagonalizable_over_k, load_group_file,
                             natural_character, natural_character_self_product,
                             outer_classes, parse_group_text,
                             pseudo_reflections, reflection_subgroup)
from invforge.invariants import molien_series
from invforge.linalg import Matrix
from invforge.tables import TableGroup, automorphisms, is_automorphism
from invforge import corpus, tables

Q = FieldSpec.rationals()


def test_close_minus_identity():
    g = close_group([Matrix.from_rows(Q, [[-1, 0], [0, -1]])])
    assert g.order == 2


def test_close_icosahedral_order(icosahedral):
    assert icosahedral.order == 120


def test_close_unipotent_cap_exceeded():
    with pytest.raises(ClosureCapError):
        close_group([Matrix.from_rows(Q, [[1, 1], [0, 1]])], cap=10 ** 4)


def test_close_infinite_dihedral_cap_exceeded():
    # two involutions of finite order whose product [[1, -2], [0, 1]] has
    # infinite order: they generate the infinite dihedral group
    s = Matrix.from_rows(Q, [[-1, 0], [0, 1]])
    t = Matrix.from_rows(Q, [[-1, 2], [0, 1]])
    assert s * s == t * t == Matrix.identity(Q, 2)
    with pytest.raises(ClosureCapError):
        close_group([s, t], cap=10 ** 3)


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


def _quotient_table(g, center):
    """G/Z as a full table: cosets xZ numbered by least member, multiplied
    through their least members."""
    coset, reps = {}, []
    for x in range(g.order):
        if x not in coset:
            coset.update((g.mult(x, z), len(reps)) for z in center)
            reps.append(x)
    return TableGroup([[coset[g.mult(a, b)] for b in reps] for a in reps])


def _rank_reference(q, ell):
    """Largest r with (Z/ell)^r <= q: every subgroup generated by r commuting
    elements of order ell, each multiplying the order by ell, level by level."""
    elems = [x for x in range(q.order) if q.element_order(x) == ell]
    level, r = {frozenset({q.identity})}, 0
    while True:
        grown = set()
        for span in level:
            for x in elems:
                if x not in span and all(q.mult(x, y) == q.mult(y, x) for y in span):
                    new = q.subgroup_closure(list(span) + [x])
                    if len(new) == len(span) * ell:
                        grown.add(new)
        if not grown:
            return r
        level, r = grown, r + 1


@pytest.mark.parametrize("fname", sorted(
    f for f in os.listdir(corpus.DATA_DIR)
    if f.endswith(".group") and f != "2i2i2.group"))
def test_rank_modulo_the_scalars_matches_the_quotient_table(fname):
    g = load_group_file(os.path.join(corpus.DATA_DIR, fname))
    for center in (g.scalar_indices(), [g.identity]):
        quotient = _quotient_table(g, center)
        for ell in (2, 3, 4, 5, 7):
            assert (tables.elementary_abelian_rank(g, ell, center)
                    == _rank_reference(quotient, ell)), (center, ell)


def test_rank_of_tables_matches_the_reference():
    # a composite ell asks for (Z/ell)^r: in Z/4 x Z/2 the order-4 elements
    # (1, 0) and (1, 1) commute but share their square, so the rank is 1
    z4z2 = TableGroup([[(a % 4 + b % 4) % 4 + 4 * ((a // 4 + b // 4) % 2)
                        for b in range(8)] for a in range(8)])
    z4z4 = TableGroup([[(a % 4 + b % 4) % 4 + 4 * ((a // 4 + b // 4) % 4)
                        for b in range(16)] for a in range(16)])
    # Z/4 with its involution at index 1, below both generators: a chain
    # that must start at the least element would miss <x> for ell = 4
    z4_low_involution = TableGroup([[0, 1, 2, 3], [1, 0, 3, 2],
                                    [2, 3, 1, 0], [3, 2, 0, 1]])
    for tg in (TableGroup.cyclic(8), z4z2, z4z4, z4_low_involution, _dihedral8(),
               TableGroup([[i ^ j for j in range(8)] for i in range(8)])):
        for ell in (2, 3, 4, 8):
            assert (tables.elementary_abelian_rank(tg, ell, [tg.identity])
                    == _rank_reference(tg, ell)), (tg.table, ell)
    assert [tables.elementary_abelian_rank(z4z4, ell, [0]) for ell in (2, 4)] == [2, 2]
    assert tables.elementary_abelian_rank(z4z2, 4, [0]) == 1
    assert tables.elementary_abelian_rank(z4_low_involution, 4, [0]) == 1


def test_rank_for_an_ell_not_dividing_the_order_makes_no_product(monkeypatch):
    # Lagrange: no element has order ell mod Z, however large ell is
    z8 = TableGroup.cyclic(8)
    monkeypatch.setattr(TableGroup, "mult", lambda self, a, b: pytest.fail("product"))
    assert tables.elementary_abelian_rank(z8, 10 ** 9 + 7, [0]) == 0
    assert tables.elementary_abelian_rank(z8, 1, [0]) == 0


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


def test_inner_flags_match_the_conjugation_permutations():
    # the flags come from the greedy generators' images; the reference
    # builds every conjugation y -> x y x^-1 in full
    for name in sorted(os.listdir(corpus.DATA_DIR)):
        if name.endswith(".group") and name != "2i2i2.group":
            g = load_group_file(os.path.join(corpus.DATA_DIR, name))
            n = g.order
            conjugations = {tuple(g.mult(g.mult(x, y), g.inverse(x)) for y in range(n))
                            for x in range(n)}
            inner = {a.perm for a in automorphism_group(g) if a.inner}
            assert inner == conjugations, name


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


def _dihedral8():
    """D4 on indices i + 4j for r^i s^j: (i, j)(k, l) = (i + (-1)^j k, j + l)."""
    return TableGroup([[(i + (-1) ** j * k) % 4 + 4 * ((j + l) % 2)
                        for l in range(2) for k in range(4)]
                       for j in range(2) for i in range(4)])


def test_automorphisms_match_brute_force(quaternion, s3_perm):
    groups = [TableGroup.cyclic(n) for n in range(1, 9)]
    groups += [s3_perm.table_group(), quaternion.table_group(), _dihedral8(),
               TableGroup([[i ^ j for j in range(8)] for i in range(8)])]
    counts = []
    for tg in groups:
        brute = [p for p in itertools.permutations(range(tg.order))
                 if is_automorphism(tg, p)]
        assert automorphisms(tg) == brute
        counts.append(len(brute))
    assert counts == [1, 1, 2, 2, 4, 2, 6, 4, 6, 24, 8, 168]


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


def test_table_group_cyclic():
    t = TableGroup.cyclic(6)
    assert t.element_order(1) == 6


def test_table_group_refused_past_the_enumeration_bound():
    # a cyclic group of order 1001 = 7 * 11 * 13 in GL_1(F_2003) has
    # 1001^2 > 10^6 table entries; its closure and Cayley graph stay usable
    F = FieldSpec.finite_field(2003)
    a = next(x for x in range(2, 2003) if pow(x, 1001, 2003) == 1
             and all(pow(x, 1001 // q, 2003) != 1 for q in (7, 11, 13)))
    g = close_group([Matrix.from_rows(F, [[a]])])
    assert g.order == 1001
    with pytest.raises(BoundExceededError, match="multiplication table entry"):
        g.table_group()
    x, y = g.generator_indices[0], 1000
    assert g.mult(x, y) == g.index_of(g.elements[x] * g.elements[y])


def test_table_without_inverses_refused():
    # 0 is an identity, but 1 * 1 = 1: the powers of 1 never reach 0, as an
    # action file's gamma_table may say.  The walk must stop, not loop.  In
    # the second table every row is a permutation, but x -> x * 1 sends 0
    # and 2 to 1: the powers 1, 2, 1, ... cycle without the identity.
    for table in ([[0, 1], [1, 1]], [[0, 1, 2], [1, 2, 0], [2, 1, 0]]):
        t = TableGroup(table)
        with pytest.raises(InvForgeError, match="not a group"):
            t.element_order(1)
        with pytest.raises(InvForgeError, match="not a group"):
            t.inverse(1)
    assert TableGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]]).element_order(2) == 2


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
    assert g.table_group()._table == fresh.table_group()._table


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


def _corpus_groups_but_2i2i2():
    return [(fname, corpus.load_corpus_group(fname))
            for fname in sorted(os.listdir(corpus.DATA_DIR))
            if fname.endswith(".group") and fname != "2i2i2.group"]


def test_conjugacy_classes_match_matrix_conjugation():
    for fname, g in _corpus_groups_but_2i2i2():
        inverses = [m.inverse() for m in g.elements]
        classes, seen = [], set()
        for x, m in enumerate(g.elements):
            if x not in seen:
                cls = {g.index_of(h * m * hinv)
                       for h, hinv in zip(g.elements, inverses)}
                seen |= cls
                classes.append(tuple(sorted(cls)))
        assert g.conjugacy_classes() == tuple(classes), fname


def test_orders_and_inverses_match_matrix_powers():
    for fname, g in _corpus_groups_but_2i2i2():
        one = g.elements[g.identity].key()
        for x, m in enumerate(g.elements):
            order, prev, power = 1, g.elements[g.identity], m
            while power.key() != one:
                order, prev, power = order + 1, power, power * m
            assert g.element_order(x) == order, (fname, x)
            assert g.inverse(x) == g.index_of(prev), (fname, x)


def _image_set_classes(tg):
    """Classes by definition: the class of x is {g x g^-1 : g in G}."""
    classes, seen = [], set()
    for x in range(tg.order):
        if x not in seen:
            cls = {tg.mult(tg.mult(g, x), tg.inverse(g)) for g in range(tg.order)}
            seen |= cls
            classes.append(tuple(sorted(cls)))
    return tuple(classes)


def test_table_group_classes_match_image_sets(quaternion, s3_perm):
    groups = [TableGroup.cyclic(n) for n in range(1, 9)]
    groups += [_dihedral8(), TableGroup([[i ^ j for j in range(8)] for i in range(8)]),
               s3_perm.table_group(),
               TableGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])]
    for tg in groups:
        assert tg.conjugacy_classes() == _image_set_classes(tg)


def test_conjugacy_classes_build_no_table():
    g = load_group_file(os.path.join(corpus.DATA_DIR, "e8.group"))
    assert len(g.conjugacy_classes()) == 9
    assert g._table is None


def _molien_per_element(g, d_max):
    """(1/|G|) sum_g 1/det(1 - t g), one Berkowitz call per element."""
    zero, one = g.spec.zero(), g.spec.one()
    totals = [zero] * (d_max + 1)
    for m in g.elements:
        den = _berkowitz(m.entries, zero, one)
        inv = [one]
        for d in range(1, d_max + 1):
            inv.append(-sum((den[k] * inv[d - k]
                             for k in range(1, min(d, g.n) + 1)), zero))
        totals = [t + c for t, c in zip(totals, inv)]
    return [int((t / g.spec.from_int(g.order)).as_rational()) for t in totals]


def _pairing_per_element(g, chi, psi):
    total = g.spec.zero()
    for i in range(g.order):
        total = total + chi[i] * psi[g.inverse(i)]
    return total / g.spec.from_int(g.order)


def test_class_functions_once_per_class_match_per_element():
    checked = []
    for fname, g in _corpus_groups_but_2i2i2():
        ident = Matrix.identity(g.spec, g.n)
        assert pseudo_reflections(g) == [
            i for i, m in enumerate(g.elements) if (m - ident).rank() == 1], fname
        if g.spec.characteristic():
            continue
        assert list(molien_series(g, 20).dims) == _molien_per_element(g, 20), fname
        chi = natural_character(g)
        # every group here is within the automorphism bound
        psis = [chi] + [tuple(chi[phi(i)] for i in range(g.order))
                        for phi in outer_classes(g)]
        for psi in psis:
            assert (character_inner_product(g, chi, psi)
                    == _pairing_per_element(g, chi, psi)), fname
        checked.append((fname, len(psis)))
    assert len(checked) == 16
