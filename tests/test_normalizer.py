import os
import subprocess
import sys

import pytest

from invforge.errors import InvForgeError
from invforge.fields import FieldSpec, parse_field_spec
from invforge.groups import (automorphism_group, character_inner_product,
                             close_group, load_group_file, natural_character,
                             outer_classes)
from invforge.linalg import Matrix, intertwiner_space
from invforge.normalizer import (graded_aut_of_An, intertwiner,
                                 normalizer_report, verify_intertwiner)
from invforge import corpus, tables

Q = FieldSpec.rationals()


def test_intertwiner_inner_automorphism(quaternion):
    auts = automorphism_group(quaternion)
    inner = next(a for a in auts if a.inner and a.perm != tuple(range(8)))
    t = intertwiner(quaternion, inner)
    assert t is not None
    assert verify_intertwiner(quaternion, inner, t)


def test_intertwiner_mu3_inversion(mu3):
    classes = outer_classes(mu3)
    outer = [c for c in classes if not c.inner]
    assert len(outer) == 1
    t = intertwiner(mu3, outer[0])
    spec = mu3.spec
    assert t is not None
    swap = Matrix.from_rows(spec, [[0, 1], [1, 0]])
    assert t == swap or t == -swap or verify_intertwiner(mu3, outer[0], t)
    assert verify_intertwiner(mu3, outer[0], t)


def test_icosahedral_outer_not_realized(icosahedral):
    classes = outer_classes(icosahedral)
    assert len(classes) == 2
    outer = [c for c in classes if not c.inner][0]
    assert intertwiner(icosahedral, outer) is None
    gens = icosahedral.generator_indices
    assert intertwiner_space([icosahedral.elements[i] for i in gens],
                             [icosahedral.elements[outer(i)] for i in gens]) == []
    chi = natural_character(icosahedral)
    chi_phi = tuple(chi[outer(i)] for i in range(icosahedral.order))
    ip = character_inner_product(icosahedral, chi, chi_phi)
    assert ip.as_rational() == 0


def test_normalizer_report_icosahedral(icosahedral):
    rep = normalizer_report(icosahedral)
    assert rep.commutant_dim == 1
    assert rep.torus_rank == 1
    assert rep.torus_split is True
    assert rep.center_order == 2
    assert rep.realized_outer == []
    assert any("normalizer = group times scalars" in note for note in rep.notes)


def test_normalizer_report_quaternion(quaternion):
    rep = normalizer_report(quaternion)
    assert rep.commutant_dim == 1
    assert len(rep.realized_outer) == 5
    assert rep.realized_outer_group_order == 6
    for ro in rep.realized_outer:
        assert verify_intertwiner(quaternion, ro.automorphism, ro.intertwiner)


def test_normalizer_report_mu3(mu3):
    rep = normalizer_report(mu3)
    assert rep.commutant_dim == 2
    assert rep.torus_split is True
    assert len(rep.realized_outer) == 1


def test_normalizer_report_nonsplit(nonsplit_rotation):
    rep = normalizer_report(nonsplit_rotation)
    assert rep.commutant_dim == 2
    assert rep.torus_split is False
    assert any("non-split" in note for note in rep.notes)


def _e8_report_runs(monkeypatch, method, cache):
    """A freshly loaded e8 after `normalizer_report`, and a list that grows
    each time `IndexedGroup.<method>` computes (finds its cache slot empty)."""
    runs = []
    original = getattr(tables.IndexedGroup, method)

    def counted(self):
        if getattr(self, cache) is None:
            runs.append(method)
        return original(self)

    monkeypatch.setattr(tables.IndexedGroup, method, counted)
    g = load_group_file(os.path.join(corpus.DATA_DIR, "e8.group"))
    normalizer_report(g)
    return g, runs


def test_e8_report_searches_the_greedy_generators_once(monkeypatch):
    # the automorphism search reads them, and the group keeps them in a
    # slot for the next search
    g, runs = _e8_report_runs(monkeypatch, "greedy_generators", "_greedy")
    assert len(runs) == 1
    assert len(tables.automorphisms(g)) == 120 and len(runs) == 1


def test_e8_report_finds_the_classes_once(monkeypatch):
    # the automorphism search and the intertwiners' trace refusal read the
    # one group's 9 classes; its table is a cache, not a second group
    g, runs = _e8_report_runs(monkeypatch, "conjugacy_classes", "_classes")
    assert len(runs) == 1 and len(g.conjugacy_classes()) == 9


def test_realized_outer_closed_under_composition(quaternion):
    rep = normalizer_report(quaternion)
    inner = [a.perm for a in automorphism_group(quaternion) if a.inner]
    realized_cosets = set()
    for ro in rep.realized_outer + [None]:
        perm = (tuple(range(quaternion.order)) if ro is None
                else ro.automorphism.perm)
        coset = frozenset(tuple(perm[i] for i in inn) for inn in inner)
        realized_cosets.add(coset)
    for a in rep.realized_outer:
        for b in rep.realized_outer:
            composed = a.automorphism.compose(b.automorphism)
            coset = frozenset(tuple(composed[i] for i in inn) for inn in inner)
            assert coset in realized_cosets
            t = b.intertwiner * a.intertwiner
            # product of intertwiners intertwines the composite (b after a)
            perm = tuple(b.automorphism.perm[a.automorphism.perm[i]]
                         for i in range(quaternion.order))
            for gi in quaternion.generator_indices:
                lhs = t * quaternion.elements[gi]
                rhs = quaternion.elements[perm[gi]] * t
                assert lhs == rhs


def test_intertwiner_iff_character_match(quaternion):
    chi = natural_character(quaternion)
    for rep in outer_classes(quaternion):
        t = intertwiner(quaternion, rep)
        chi_phi = tuple(chi[rep(i)] for i in range(quaternion.order))
        ip = character_inner_product(quaternion, chi, chi_phi).as_rational()
        assert (t is not None) == (ip == 1)


TRACE_MISMATCH_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from invforge.fields import FieldSpec
from invforge.groups import close_group, natural_character, outer_classes
from invforge.linalg import Matrix
from invforge.normalizer import intertwiner
Q = FieldSpec.rationals()
one, minus = Q.one(), Q.from_int(-1)
g = close_group([Matrix.diagonal(Q, [minus, one, one, one, one]),
                 Matrix.diagonal(Q, [one, minus, one, one, one])])
chi = natural_character(g)
mismatched = [c for c in outer_classes(g) if not c.inner
              and any(chi[i] != chi[c(i)] for i in range(g.order))]
print(len(mismatched), sum(intertwiner(g, c) is None for c in mismatched))
"""


def test_intertwiner_refuses_trace_mismatch_at_once():
    # without the trace test these classes search grids of up to 6^10
    # singular matrices; a child process bounds the time and memory
    proc = subprocess.run([sys.executable, "-c", TRACE_MISMATCH_SCRIPT],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4", "4"]


BOUNDED_NORMALIZER_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from invforge.cli import main
sys.exit(main(["normalizer", "--group", sys.argv[1], "--machine"]))
"""


def test_normalizer_refuses_large_group_before_closing_it():
    # 2i2i2 has 28,800 elements; the closure stops after 401 of them
    # (the automorphism bound) instead of taking minutes to refuse
    group = os.path.join(corpus.DATA_DIR, "2i2i2.group")
    proc = subprocess.run([sys.executable, "-c", BOUNDED_NORMALIZER_SCRIPT, group],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: automorphism bound 400 exceeded (|G| > 400)\n"


def test_invertible_combination_grid_has_distinct_values():
    # over F_8 the integers 0..3 reduce to {0, 1}, and no 0/1 combination
    # of diag(1,0,1) and diag(0,1,1) is invertible; diag(1,z,1+z) is
    from invforge.normalizer import _invertible_combination
    f8 = parse_field_spec("finite(2, z^3 + z + 1)")
    zero, one = f8.zero(), f8.one()
    b1 = Matrix.diagonal(f8, [one, zero, one])
    b2 = Matrix.diagonal(f8, [zero, one, one])
    t = _invertible_combination(f8, [b1, b2], 3)
    assert t is not None and t.is_invertible()
    a, b = t.entries[0][0], t.entries[1][1]
    assert t == b1 * a + b2 * b


def test_all_inner_irreducible_reports_scalar_torus(s3_perm):
    # S_3 permutation matrices are reducible, so this uses a faithful
    # irreducible copy instead: the icosahedral report covers that case;
    # here check the "all automorphisms inner" group still realizes nothing
    # beyond inner classes.
    rep = normalizer_report(s3_perm)
    assert rep.outer_class_count == 1
    assert rep.realized_outer == []


def test_graded_aut_of_an_split():
    desc = graded_aut_of_An(Q.from_int(1), 3)
    assert desc.split and desc.branch == "split"
    assert "infinite-dimensional" in desc.description
    assert desc.verified


def test_graded_aut_of_an_nonsplit_odd():
    desc = graded_aut_of_An(Q.from_int(2), 3)
    assert not desc.split
    assert desc.branch == "odd-nonsplit"
    assert "GO(" in desc.description
    assert desc.verified


def test_graded_aut_of_an_nonsplit_even():
    desc = graded_aut_of_An(Q.from_int(2), 4)
    assert desc.branch == "even-nonsplit"
    assert "O(" in desc.description
    assert desc.verified


def test_graded_aut_of_an_over_finite_field():
    f5 = FieldSpec.finite_field(5)
    assert graded_aut_of_An(f5.from_int(4), 3).split          # 4 = 2^2
    assert not graded_aut_of_An(f5.from_int(2), 3).split      # non-residue


def test_graded_aut_of_an_rejects_bad_n():
    with pytest.raises(InvForgeError):
        graded_aut_of_An(Q.from_int(2), 1)
    f3 = FieldSpec.finite_field(3)
    with pytest.raises(InvForgeError):
        graded_aut_of_An(f3.from_int(2), 3)  # char divides 2n
