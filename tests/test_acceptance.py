"""Acceptance criteria, one test per criterion.

Exact arithmetic throughout: every equality is tolerance 0.  Each test
prints one pass/fail line; run with `pytest -v tests/test_acceptance.py`
or `pytest -s` to see the lines.
"""

import random
import time

import pytest

from invforge.cohomology import FiniteAction, h1_classes, square_class_forms
from invforge.fields import FieldSpec, parse_field_spec
from invforge.geometry import (check_claim_51, check_parabolic_claim,
                               perm_module_irreducible)
from invforge.groups import (character_inner_product, close_group,
                             natural_character, outer_classes,
                             pseudo_reflections, reflection_subgroup)
from invforge.invariants import (Relation, check_presented_automorphism,
                                 find_relation, hilbert_dims, minimal_generators,
                                 molien_series, monomials, reynolds,
                                 scaled_torus_exponents)
from invforge.linalg import Matrix, char_poly, eval_poly_at_matrix
from invforge.normalizer import intertwiner, normalizer_report, verify_intertwiner
from invforge.poly import Polynomial, parse_polynomial
from invforge.tables import TableGroup
from invforge import corpus

Q = FieldSpec.rationals()

CHAR0_CORPUS_GROUPS = [
    "e8.group", "an-split.group", "an-split-2.group", "an-split-4.group",
    "an-split-5.group", "an-nonsplit.group", "m7.group", "q8.group",
    "mu2sq.group", "a4perm.group", "z3perm.group", "z5perm.group",
    "s3perm.group", "mixed.group", "mu4mod.group", "z2mod.group",
]

ALL_CORPUS_GROUPS = CHAR0_CORPUS_GROUPS + ["char2.group", "po3diag.group"]


def _report(num, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_icosahedral_invariants(icosahedral):
    start = time.time()
    ok = icosahedral.order == 120
    gs = minimal_generators(icosahedral)
    ok = ok and gs.degrees == [12, 20, 30]
    ok = ok and gs.e == 2
    ok = ok and scaled_torus_exponents(gs) == [6, 10, 15]
    rel = find_relation(gs, 60)
    ok = ok and rel is not None and rel.weighted_degree == 60
    ok = ok and rel.support() == [(5, 0, 0), (0, 3, 0), (0, 0, 2)]
    ok = ok and all(not c.is_zero() for c in rel.poly.terms.values())
    elapsed = time.time() - start
    ok = ok and elapsed <= 180
    _report(1, f"icosahedral order/degrees/e/exponents/relation "
               f"({elapsed:.1f}s of 180s budget)", ok)


def test_criterion_02_icosahedral_normalizer(icosahedral):
    rep = normalizer_report(icosahedral)
    ok = rep.commutant_dim == 1 and rep.realized_outer == []
    chi = natural_character(icosahedral)
    outer = [c for c in outer_classes(icosahedral) if not c.inner]
    ok = ok and len(outer) == 1
    chi_phi = tuple(chi[outer[0](i)] for i in range(icosahedral.order))
    ip = character_inner_product(icosahedral, chi, chi_phi).as_rational()
    ok = ok and ip == 0
    _report(2, "icosahedral normalizer: scalar commutant, no realized outer, "
               "character cross-oracle 0", ok)


def test_criterion_03_mu_n_generators_and_relation():
    ok = True
    for n, name in ((2, "an-split-2.group"), (3, "an-split.group"),
                    (4, "an-split-4.group"), (5, "an-split-5.group")):
        g = corpus.load_corpus_group(name)
        gs = minimal_generators(g)
        ok = ok and gs.degrees == [2, n, n]
        rel = find_relation(gs, 2 * n)
        names = tuple(f"y{i + 1}" for i in range(3))
        if n == 2:
            expected = parse_polynomial("y1*y3 - y2^2", 3, g.spec, var_names=names)
        else:
            expected = parse_polynomial(f"y1^{n} - y2*y3", 3, g.spec,
                                        var_names=names)
        ok = ok and rel is not None and rel.weighted_degree == 2 * n
        ok = ok and rel.poly == expected
    _report(3, "mu_n degrees {2, n, n} and relation xy - z^n for n in 2..5", ok)


def test_criterion_04_presented_automorphisms():
    ok = True
    # elementary automorphisms of the split surface, p(x) in {x, x^2}
    rel = Relation(parse_polynomial("x1*x2 - x3^3", 3, Q), 6, (1, 1, 1))
    x = Polynomial.variable(Q, 3, 0)
    y = Polynomial.variable(Q, 3, 1)
    z = Polynomial.variable(Q, 3, 2)
    for p_of_x in (x, x * x):
        shift = x * p_of_x
        quo, rem = ((z + shift) ** 3 - z ** 3).divmod_single(x)
        ok = ok and rem.is_zero()
        ok = ok and check_presented_automorphism(rel, [x, y + quo, z + shift])
    # odd non-split branch with sample similitudes, d = 2 and d = -3
    for d_int in (2, -3):
        d = Q.from_int(d_int)
        rel_ns = Relation(x * x - (y * y).scale(d) - z ** 3, 6, (1, 1, 1))
        for (c, s) in ((1, 1), (2, 1)):
            m = Matrix.from_rows(Q, [[c, d_int * s], [s, c]])
            det = m.det()
            if det.is_zero():
                continue
            new_x = (x.scale(m.entries[0][0]) + y.scale(m.entries[0][1])).scale(det)
            new_y = (x.scale(m.entries[1][0]) + y.scale(m.entries[1][1])).scale(det)
            ok = ok and check_presented_automorphism(
                rel_ns, [new_x, new_y, z.scale(det)])
    _report(4, "split elementary and non-split similitude actions preserve "
               "the relation exactly", ok)


def test_criterion_05_char2_invariants():
    g = corpus.load_corpus_group("char2.group")
    spec = g.spec
    invariants = ["x1", "x3", "x2^2 + x1*x2", "x4^2 + x3*x4", "x1*x4 + x2*x3"]
    from invforge.invariants import is_invariant
    ok = all(is_invariant(g, parse_polynomial(t, 4, spec)) for t in invariants)
    names = tuple(f"s{i + 1}" for i in range(5))
    relation = parse_polynomial("s5^2 + s1*s2*s5 + s1^2*s4 + s2^2*s3", 5, spec,
                                var_names=names)
    images = [parse_polynomial(t, 4, spec) for t in invariants]
    ok = ok and relation.compose(images).is_zero()
    _report(5, "characteristic-2 invariants and their exact relation", ok)


def test_criterion_06_molien_equals_hilbert():
    ok = True
    for name in CHAR0_CORPUS_GROUPS:
        g = corpus.load_corpus_group(name)
        mol = molien_series(g, 12).dims
        hil = hilbert_dims(g, 12).dims
        if mol != hil:
            ok = False
            print(f"    mismatch for {name}: {mol} vs {hil}")
    _report(6, "Molien series equals direct Hilbert dimensions to degree 12 "
               f"for all {len(CHAR0_CORPUS_GROUPS)} char-0 corpus groups", ok)


def test_criterion_07_claim51_random_and_equality():
    rng = random.Random(2026)
    ok = True
    checked = 0
    for q in (2, 3):
        spec = FieldSpec.finite_field(q)
        for n in (2, 3):
            for _ in range(50):
                terms = {}
                for _ in range(rng.randint(1, 10)):
                    e = tuple(rng.randint(0, 6) for _ in range(n))
                    if sum(e) > 6:
                        continue
                    terms[e] = spec.from_int(rng.randrange(1, q))
                if not terms:
                    terms[(0,) * n] = spec.one()
                f = Polynomial(spec, n, terms)
                rep = check_claim_51(f, n)
                ok = ok and rep.verdict
                checked += 1
    ok = ok and checked == 200
    f = parse_polynomial("x*(x+1)*y*(y+1)", 2, FieldSpec.finite_field(2))
    rep = check_claim_51(f, 2)
    ok = ok and rep.total == 8 and rep.bound == 8 and rep.verdict
    _report(7, "multiplicity bound on 200 random polynomials and the "
               "equality case total 8 = bound 8", ok)


def test_criterion_08_parabolic_claim():
    ok = True
    for q in (3, 5):
        rep = check_parabolic_claim(None, q=q, n=3)
        ok = ok and rep.verdict
        ok = ok and q * rep.total <= rep.poly_degree
        logged = any("closed-form" in note for note in rep.notes)
        computed = any("computed" in note for note in rep.notes)
        ok = ok and logged and computed
        print(f"    q={q}: computed deg {rep.poly_degree}, "
              f"max mult {rep.total}; notes: {rep.notes[1]}")
    _report(8, "parabolic multiplicity bound for q in {3, 5} with computed "
               "and closed-form values logged side by side", ok)


def test_criterion_09_perm_module_closed_forms():
    ok = True
    a4 = corpus.load_corpus_group("a4perm.group")
    for p in (2, 3, 5, 7):
        expected = (4 % p != 0)
        ok = ok and perm_module_irreducible(a4, p) is expected
    for n, name in ((3, "z3perm.group"), (5, "z5perm.group")):
        g = corpus.load_corpus_group(name)
        for p in (2, 3, 5, 7):
            expected = (p != n) and ((p - 1) % n != 0)
            ok = ok and perm_module_irreducible(g, p) is expected
    _report(9, "deleted permutation module matches the closed-form criteria "
               "for A_4 and Z/3, Z/5 over p <= 7", ok)


def test_criterion_10_h1_counts_and_determinism():
    z2 = TableGroup.cyclic(2)
    ok = h1_classes(FiniteAction(z2, TableGroup.cyclic(2),
                                 [(0, 1), (0, 1)])).count == 2
    m4 = TableGroup.cyclic(4)
    inv = tuple((-i) % 4 for i in range(4))
    act4 = FiniteAction.from_generator_images(z2, m4, {1: inv})
    ok = ok and h1_classes(act4).count == 2
    s3 = corpus.load_corpus_group("s3perm.group").table_group()
    ok = ok and h1_classes(FiniteAction(z2, s3, [tuple(range(6))] * 2)).count == 2
    rng = random.Random(5)
    for _ in range(3):
        perm = list(range(4))
        rng.shuffle(perm)
        back = {v: i for i, v in enumerate(perm)}
        table = [[back[m4.mult(perm[i], perm[j])] for j in range(4)]
                 for i in range(4)]
        shuffled = TableGroup(table)
        inv_shuffled = tuple(back[(-perm[i]) % 4] for i in range(4))
        act = FiniteAction.from_generator_images(
            z2, shuffled, {g: inv_shuffled for g in z2.generating_set()})
        ok = ok and h1_classes(act).count == 2
    _report(10, "H^1 counts 2/2/2 and order-shuffle determinism", ok)


def test_criterion_11_real_square_classes():
    forms = square_class_forms("reals")
    ok = len(forms) == 2
    ok = ok and forms[0].representative == 1 and forms[1].representative == -1
    ok = ok and "infinite-dimensional" in forms[0].description
    ok = ok and "2-dimensional" in forms[1].description
    _report(11, "two real square classes matching the split and anisotropic "
                "forms", ok)


def test_criterion_12_m7():
    g = corpus.load_corpus_group("m7.group")
    k7 = g.spec
    m7 = g.generators()[0]
    expected = parse_polynomial("x^3 - z*x^2 - (1 + z)*x - 1", 1, k7,
                                var_names=("x",))
    ok = char_poly(m7) == expected
    ok = ok and m7 ** 7 == Matrix.identity(k7, 3)
    ok = ok and m7 != Matrix.identity(k7, 3)
    # the defining quadratic: alpha^2 + alpha + 2 = 0
    alpha = k7.gen()
    ok = ok and (alpha * alpha + alpha + k7.from_int(2)).is_zero()
    _report(12, "order-7 companion matrix: characteristic polynomial, "
                "period 7, nontrivial", ok)


def test_criterion_13_property_suites(icosahedral, quaternion, mu3):
    ok = True
    # Reynolds idempotence and image dimension
    rng = random.Random(13)
    for g in (mu3, corpus.load_corpus_group("mu2sq.group")):
        for d in (2, 3):
            dims = hilbert_dims(g, d)
            images = []
            for _ in range(dims[d] + 2):
                terms = {}
                for e in monomials(g.n, d):
                    c = rng.randint(-2, 2)
                    if c:
                        terms[e] = g.spec.from_int(c)
                f = Polynomial(g.spec, g.n, terms)
                rf = reynolds(g, f)
                ok = ok and reynolds(g, rf) == rf
                images.append(rf)
            idx = {e: i for i, e in enumerate(monomials(g.n, d))}
            rows = []
            for p in images:
                vec = [g.spec.zero()] * len(idx)
                for e, c in p.terms.items():
                    vec[idx[e]] = c
                rows.append(vec)
            ok = ok and Matrix(g.spec, rows).rank() == dims[d]
    # Cayley-Hamilton on all corpus generators of size <= 4
    for name in ALL_CORPUS_GROUPS:
        g = corpus.load_corpus_group(name)
        if g.n > 4:
            continue
        for m in g.generators():
            res = eval_poly_at_matrix(char_poly(m), m)
            ok = ok and all(c.is_zero() for row in res.entries for c in row)
    # Lagrange on all corpus groups
    for name in ALL_CORPUS_GROUPS:
        g = corpus.load_corpus_group(name)
        ok = ok and all(g.order % g.element_order(i) == 0
                        for i in range(g.order))
    # pseudo-reflection conjugation closure
    for name in ("mu2sq.group", "mixed.group", "s3perm.group", "char2.group"):
        g = corpus.load_corpus_group(name)
        refl = set(pseudo_reflections(g))
        for w in refl:
            for i in range(g.order):
                ok = ok and g.mult(g.mult(i, w), g.inverse(i)) in refl
    # intertwiner verification on realized outer classes
    for g in (quaternion, mu3):
        rep = normalizer_report(g)
        for ro in rep.realized_outer:
            ok = ok and verify_intertwiner(g, ro.automorphism, ro.intertwiner)
    # cocycle identity on all emitted representatives
    z2 = TableGroup.cyclic(2)
    m4 = TableGroup.cyclic(4)
    inv = tuple((-i) % 4 for i in range(4))
    for act in (FiniteAction(z2, TableGroup.cyclic(2), [(0, 1), (0, 1)]),
                FiniteAction.from_generator_images(z2, m4, {1: inv})):
        classes = h1_classes(act)
        for c in classes.representatives:
            for s in range(act.gamma.order):
                for t in range(act.gamma.order):
                    st = act.gamma.mult(s, t)
                    ok = ok and c[st] == act.module.mult(
                        c[s], act.action[s][c[t]])
    _report(13, "property suites: Reynolds, Cayley-Hamilton, Lagrange, "
                "reflection closure, intertwiners, cocycles", ok)
