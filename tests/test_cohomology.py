import random

import pytest

from invforge.cohomology import (FiniteAction, h1_classes, hom_count,
                                 load_action_file, parse_action_text,
                                 square_class_forms)
from invforge.errors import BoundExceededError, InvForgeError
from invforge.fields import FieldSpec
from invforge.tables import TableGroup
from invforge import corpus

import os

DATA = corpus.DATA_DIR


def _trivial_action(gamma, module):
    return FiniteAction(gamma, module, [tuple(range(module.order))] * gamma.order)


def test_h1_z2_trivial_on_z2():
    act = _trivial_action(TableGroup.cyclic(2), TableGroup.cyclic(2))
    assert h1_classes(act).count == 2


def test_h1_z2_inversion_on_mu4():
    z2 = TableGroup.cyclic(2)
    m4 = TableGroup.cyclic(4)
    inv = tuple((-i) % 4 for i in range(4))
    act = FiniteAction.from_generator_images(z2, m4, {1: inv})
    assert h1_classes(act).count == 2


def test_generator_images_refused():
    z2, z4 = TableGroup.cyclic(2), TableGroup.cyclic(4)
    v4 = TableGroup([[i ^ j for j in range(4)] for i in range(4)])
    inv = tuple((-i) % 4 for i in range(4))
    # an automorphism of order 3 cannot be the image of an element of order 2
    with pytest.raises(InvForgeError, match="inconsistent"):
        FiniteAction.from_generator_images(z2, v4, {1: (0, 2, 3, 1)})
    # 2 generates only {0, 2} of Z/4
    with pytest.raises(InvForgeError, match="reach"):
        FiniteAction.from_generator_images(z4, z4, {2: inv})
    with pytest.raises(InvForgeError, match="reach"):
        FiniteAction.from_generator_images(z2, z4, {})
    trivial = FiniteAction.from_generator_images(TableGroup.cyclic(1), z4, {})
    assert trivial.action == (tuple(range(4)),)


def test_h1_z2_trivial_on_s3(s3_perm):
    act = _trivial_action(TableGroup.cyclic(2), s3_perm.table_group())
    assert h1_classes(act).count == 2


def test_h1_cocycle_identity_on_representatives(s3_perm):
    z2 = TableGroup.cyclic(2)
    module = s3_perm.table_group()
    act = _trivial_action(z2, module)
    classes = h1_classes(act)
    for c in classes.representatives:
        for s in range(z2.order):
            for t in range(z2.order):
                st = z2.mult(s, t)
                assert c[st] == module.mult(c[s], act.action[s][c[t]])


def test_h1_trivial_action_matches_hom_count():
    for module in (TableGroup.cyclic(2), TableGroup.cyclic(3),
                   TableGroup.cyclic(4), TableGroup.cyclic(6)):
        for gamma in (TableGroup.cyclic(2), TableGroup.cyclic(3)):
            act = _trivial_action(gamma, module)
            assert h1_classes(act).count == hom_count(gamma, module)


def test_cocycle_and_hom_enumerations_are_bounded():
    # (Z/2)^3 needs three generators, and 101^3 > 10^6 assignments
    gamma = TableGroup([[i ^ j for j in range(8)] for i in range(8)])
    assert len(gamma.generating_set()) == 3
    module = TableGroup.cyclic(101)
    with pytest.raises(BoundExceededError):
        h1_classes(_trivial_action(gamma, module))
    with pytest.raises(BoundExceededError):
        hom_count(gamma, module)
    assert hom_count(gamma, TableGroup.cyclic(2)) == 8


def test_h1_count_invariant_under_module_shuffle():
    rng = random.Random(97)
    z2 = TableGroup.cyclic(2)
    m4 = TableGroup.cyclic(4)
    inv = tuple((-i) % 4 for i in range(4))
    base = FiniteAction.from_generator_images(z2, m4, {1: inv})
    base_count = h1_classes(base).count
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        back = {v: i for i, v in enumerate(perm)}
        table = [[back[m4.mult(perm[i], perm[j])] for j in range(4)]
                 for i in range(4)]
        shuffled = TableGroup(table)
        inv_shuffled = tuple(back[(-perm[i]) % 4] for i in range(4))
        act = FiniteAction.from_generator_images(
            z2, shuffled, {g: inv_shuffled for g in z2.generating_set()})
        assert h1_classes(act).count == base_count


def test_twisted_conjugation_is_equivalence():
    z2 = TableGroup.cyclic(2)
    m4 = TableGroup.cyclic(4)
    inv = tuple((-i) % 4 for i in range(4))
    act = FiniteAction.from_generator_images(z2, m4, {1: inv})

    def twist(c, b):
        binv = m4.inverse(b)
        return tuple(m4.mult(m4.mult(binv, c[s]), act.action[s][b])
                     for s in range(z2.order))

    cocycles = []
    for v in range(4):
        c = (0, v)
        if all(c[z2.mult(s, t)] == m4.mult(c[s], act.action[s][c[t]])
               for s in range(2) for t in range(2)):
            cocycles.append(c)
    for c in cocycles:
        assert twist(c, m4.identity) == c                      # reflexive
        for b in range(4):
            d = twist(c, b)
            assert twist(d, m4.inverse(b)) == c                # symmetric
            for b2 in range(4):
                assert twist(d, b2) == twist(c, m4.mult(b, b2))  # transitive


def test_action_must_be_homomorphism():
    z2 = TableGroup.cyclic(2)
    m3 = TableGroup.cyclic(3)
    shift = (1, 2, 0)  # translation, not an automorphism
    with pytest.raises(InvForgeError):
        FiniteAction(z2, m3, [tuple(range(3)), shift])


def test_square_classes_reals():
    forms = square_class_forms("reals")
    assert [f.representative for f in forms] == [1, -1]
    assert "x*y = z^n" in forms[0].description
    assert "x^2 + y^2 = z^n" in forms[1].description


def test_square_classes_f5():
    forms = square_class_forms(FieldSpec.finite_field(5))
    assert len(forms) == 2
    assert forms[1].representative == "2"


def test_square_classes_f9():
    f9 = FieldSpec.finite_field(3, [1, 0, 1])
    forms = square_class_forms(f9)
    assert len(forms) == 2


def test_square_classes_rejects_char2():
    with pytest.raises(InvForgeError):
        square_class_forms(FieldSpec.finite_field(2))


def test_action_file_roundtrip():
    action, module = load_action_file(os.path.join(DATA, "z2-inv-mu4.action"))
    assert action.gamma.order == 2
    assert action.module.order == 4
    assert h1_classes(action).count == 2


def test_action_file_aut_index():
    # the same inversion action through an automorphism index
    from invforge.groups import automorphism_group
    module_group = corpus.load_corpus_group("mu4mod.group")
    auts = automorphism_group(module_group)
    inv = tuple((-i) % 4 for i in range(4))
    idx = next(i for i, a in enumerate(auts) if a.perm == inv)
    text = "\n".join([
        "gamma = cyclic(2)",
        "module = mu4mod.group",
        "generator = 1",
        f"image = aut {idx}",
    ])
    action, _ = parse_action_text(text, base_dir=DATA)
    assert h1_classes(action).count == 2
