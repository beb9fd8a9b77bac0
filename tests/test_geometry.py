import json
import random
import subprocess
import sys
import time

import pytest

from invforge.errors import BoundExceededError, InvForgeError, NotInvariantError
from invforge.fields import FieldSpec, is_irreducible_coeffs
from invforge.geometry import (ProjPoint, _multiplicative_generator,
                               _normalized_vectors, _translate_terms,
                               all_projective_linear_forms,
                               check_claim_51, check_parabolic_claim,
                               multiplicity_at_point, perm_module_irreducible,
                               projective_fixed_points, rank_obstruction)
from invforge.groups import close_group
from invforge.linalg import Matrix
from invforge.poly import Polynomial, parse_polynomial
from invforge import corpus, groups, poly, tables

Q = FieldSpec.rationals()
F2 = FieldSpec.finite_field(2)
F3 = FieldSpec.finite_field(3)


@pytest.mark.parametrize("p,modulus", [
    (3, None), (2, (1, 1, 1)), (5, None), (7, None), (2, (1, 1, 0, 1)),
    (3, (1, 0, 1)),
])
def test_multiplicative_generator_has_order_q_minus_1(p, modulus):
    # F_3, F_4, F_5, F_7, F_8, F_9: the first element of F_q^* whose
    # powers are all q - 1 nonzero elements
    spec = FieldSpec.finite_field(p, modulus)
    q = spec.size()

    def order(e):
        return len({(e ** k).rep for k in range(1, q)})

    e = _multiplicative_generator(spec)
    assert order(e) == q - 1
    assert e == next(x for x in spec.elements() if not x.is_zero()
                     and order(x) == q - 1)


def _random_poly(spec, nvars, max_deg, rng, max_terms=10):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(e) > max_deg:
            continue
        c = rng.randrange(1, spec.size())
        terms[e] = spec.from_int(c)
    if not terms:
        terms[(0,) * nvars] = spec.one()
    return Polynomial(spec, nvars, terms)


def test_multiplicity_examples():
    f = parse_polynomial("x*y", 2, F2)
    assert multiplicity_at_point(f, (F2.zero(), F2.zero())) == 2
    g = parse_polynomial("x*(x+1)*y*(y+1)", 2, F2)
    assert multiplicity_at_point(g, (F2.zero(), F2.zero())) == 2
    h = parse_polynomial("x^3", 2, F3)
    assert multiplicity_at_point(h, (F3.one(), F3.zero())) == 0


def test_multiplicity_positive_iff_vanishes():
    rng = random.Random(41)
    for _ in range(40):
        f = _random_poly(F3, 2, 4, rng)
        pt = (F3.from_int(rng.randrange(3)), F3.from_int(rng.randrange(3)))
        mult = multiplicity_at_point(f, pt)
        assert (mult >= 1) == f.evaluate(pt).is_zero()


def test_multiplicity_additive_under_products():
    rng = random.Random(43)
    for _ in range(25):
        f = _random_poly(F3, 2, 3, rng)
        g = _random_poly(F3, 2, 3, rng)
        pt = (F3.from_int(rng.randrange(3)), F3.from_int(rng.randrange(3)))
        assert (multiplicity_at_point(f * g, pt)
                == multiplicity_at_point(f, pt) + multiplicity_at_point(g, pt))


def test_claim51_equality_case():
    f = parse_polynomial("x*(x+1)*y*(y+1)", 2, F2)
    rep = check_claim_51(f)
    assert rep.total == 8 and rep.bound == 8 and rep.verdict


def test_claim51_linear_case():
    rep = check_claim_51(parse_polynomial("x", 2, F3))
    assert rep.total == 3 and rep.bound == 3 and rep.verdict


def test_claim51_constant():
    rep = check_claim_51(parse_polynomial("1", 2, F2))
    assert rep.total == 0 and rep.verdict


def test_claim51_rejects_zero():
    with pytest.raises(InvForgeError):
        check_claim_51(Polynomial.zero(F2, 2))


def test_claim51_random_property():
    rng = random.Random(47)
    count = 0
    for q, spec in ((2, F2), (3, F3)):
        for n in (2, 3):
            for _ in range(50):
                f = _random_poly(spec, n, 6, rng)
                rep = check_claim_51(f, n)
                assert rep.verdict, (q, n, f.render())
                count += 1
    assert count == 200


def test_parabolic_claim_q3():
    rep = check_parabolic_claim(None, q=3, n=3)
    assert rep.poly_degree == 13
    assert rep.total == 4          # max multiplicity off (x1 = 0)
    assert rep.verdict             # 3 * 4 <= 13
    assert any("closed-form" in note for note in rep.notes)


def test_parabolic_claim_q5():
    rep = check_parabolic_claim(None, q=5, n=3)
    assert rep.poly_degree == 31
    assert rep.total == 6
    assert rep.verdict             # 5 * 6 <= 31


def test_parabolic_rejects_non_invariant():
    h = parse_polynomial("x2^2 + x2*x3", 3, F3)
    with pytest.raises(NotInvariantError):
        check_parabolic_claim(h)


def test_parabolic_power_of_x1_is_valid():
    h = parse_polynomial("x1^4", 3, F3)
    rep = check_parabolic_claim(h)
    assert rep.total == 0 and rep.verdict


def test_all_projective_linear_forms_degree():
    h = all_projective_linear_forms(F3, 3)
    assert h.total_degree() == 13  # (27 - 1) / 2 normalized forms


def test_projective_fixed_points(mu3, icosahedral, nonsplit_rotation):
    pts = projective_fixed_points(mu3)
    assert len(pts) == 2
    rendered = {p.render() for p in pts}
    assert rendered == {"(1 : 0)", "(0 : 1)"}
    assert projective_fixed_points(icosahedral) == []
    assert projective_fixed_points(nonsplit_rotation) == []


def test_proj_point_normalization():
    p = ProjPoint((Q.from_int(2), Q.from_int(4)))
    assert p.coords == (Q.one(), Q.from_int(2))
    assert p == ProjPoint((Q.from_int(3), Q.from_int(6)))


def test_perm_module_a4():
    a4 = corpus.load_corpus_group("a4perm.group")
    assert perm_module_irreducible(a4, 2) is False
    for p in (3, 5, 7):
        assert perm_module_irreducible(a4, p) is True


def test_perm_module_spins_without_rref(monkeypatch):
    # spin_submodule's basis is its EchelonBasis rows, not a second rref
    calls = []
    rref = Matrix.rref

    def counted(self):
        calls.append(self.rows)
        return rref(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    a4 = corpus.load_corpus_group("a4perm.group")
    assert [perm_module_irreducible(a4, p) for p in (2, 3, 5)] == [False, True, True]
    assert calls == []


def test_perm_module_cyclic_against_polynomial_criterion():
    # Z/n module irreducibility == irreducibility of (x^n-1)/(x-1) over F_p
    for n in range(2, 8):
        shift = [[1 if i == (j + 1) % n else 0 for j in range(n)]
                 for i in range(n)]
        g = close_group([Matrix.from_rows(Q, shift)])
        for p in (2, 3, 5, 7):
            expected = is_irreducible_coeffs([1] * n, p)
            assert perm_module_irreducible(g, p) is expected, (n, p)


def _perm_matrix(images):
    n = len(images)
    return Matrix.from_rows(Q, [[1 if images[j] == i else 0 for j in range(n)]
                                for i in range(n)])


def test_perm_module_sym_alt_groups():
    # A_5 = <(0 1 2 3 4), (0 1 2)>
    a5 = close_group([_perm_matrix([1, 2, 3, 4, 0]),
                      _perm_matrix([1, 2, 0, 3, 4])], cap=200)
    assert a5.order == 60
    s4 = close_group([_perm_matrix([1, 0, 2, 3]),
                      _perm_matrix([1, 2, 3, 0])], cap=50)
    assert s4.order == 24
    for p in (2, 3, 5, 7):
        assert perm_module_irreducible(a5, p) is (5 % p != 0), p
        assert perm_module_irreducible(s4, p) is (4 % p != 0), p


def test_rank_obstruction_po3():
    signs3 = corpus.load_corpus_group("po3diag.group")
    rep = rank_obstruction(signs3, 2)
    assert rep.rank == 2 and rep.needed == 2 and rep.hypothesis_holds
    assert rep.scalar_order == 2


def test_rank_obstruction_q8(quaternion):
    rep = rank_obstruction(quaternion, 2)
    assert rep.rank == 2 and rep.needed == 1 and rep.hypothesis_holds


def test_rank_obstruction_mu3(mu3):
    rep = rank_obstruction(mu3, 3)
    assert rep.rank == 1 and rep.needed == 1 and rep.hypothesis_holds


def test_rank_obstruction_rejects_characteristic():
    signs3 = corpus.load_corpus_group("po3diag.group")
    with pytest.raises(InvForgeError):
        rank_obstruction(signs3, 3)


BOUNDED_CLI_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from invforge.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv, what", [
    (["claim51", "--poly", "x*y", "--q", "101", "--n", "4"], "point"),
    # 7^6 chart points are fine; the product of the 137,257 forms is not
    (["parabolic", "--q", "7", "--n", "7"], "product monomial"),
])
def test_exponential_enumerations_refuse_before_starting(argv, what):
    # a child process bounds time and memory should the refusal not come
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", BOUNDED_CLI_SCRIPT, *argv, "--machine"],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {what} enumeration bound 1000000 exceeded\n"


def test_enumeration_bounds_in_library():
    f101 = FieldSpec.finite_field(101)
    with pytest.raises(BoundExceededError):
        check_claim_51(parse_polynomial("x*y", 4, f101, var_names=("x", "y", "u", "v")))
    with pytest.raises(BoundExceededError):
        next(_normalized_vectors(f101, 4))  # (101^4 - 1)/100 > 10^6 points
    assert len(list(_normalized_vectors(f101, 3))) == 101 ** 2 + 101 + 1
    with pytest.raises(BoundExceededError):
        all_projective_linear_forms(FieldSpec.finite_field(7), 7)
    with pytest.raises(BoundExceededError):
        # refused on its 2^100000 - 1 forms, before any binomial of that size
        all_projective_linear_forms(F2, 10 ** 5)
    with pytest.raises(BoundExceededError):
        FieldSpec.finite_field(1000003).elements()
    with pytest.raises(BoundExceededError):
        # a user-given h skips the product; 3^13 chart points remain
        check_parabolic_claim(parse_polynomial("x1", 14, F3))
    # work budgets, checked after the counts above
    f997 = FieldSpec.finite_field(997)
    with pytest.raises(BoundExceededError, match="translate term"):
        check_claim_51(parse_polynomial("x*y", 2, f997))
    with pytest.raises(BoundExceededError, match="^point"):
        check_claim_51(parse_polynomial("x*y", 4, f997, var_names=("x", "y", "u", "v")))
    with pytest.raises(BoundExceededError, match="product term"):
        all_projective_linear_forms(FieldSpec.finite_field(1009), 2)


@pytest.mark.parametrize("argv, what, seconds", [
    # 997^2 points pass the point bound; 4 terms per translate of x*y do not
    (["claim51", "--poly", "x*y", "--q", "997", "--n", "2"], "translate term", 2),
    # the 10,008 forms have a product of only 10,009 monomials, but
    # building it makes 2 * C(10009, 2) term products
    (["parabolic", "--q", "10007", "--n", "2"], "product term", 2),
    # a user-given h skips the product; its chart x2 - x2^1009 costs
    # T = 1,012 terms plus 424,664 squaring products at each of the 1,009
    # chart points (the invariance check before the bound takes most of the
    # time)
    (["parabolic", "--q", "1009", "--n", "2", "--poly", "x1^1009*x2 - x1*x2^1009"],
     "translate term", 5),
    # the default product passes every earlier bound; the chart x2^q - x2
    # costs T = 18,146 term products at each of 211 points (3.8 * 10^6),
    # and 106,679 at each of 503
    (["parabolic", "--q", "211", "--n", "2"], "translate term", 2),
    (["parabolic", "--q", "503", "--n", "2"], "translate term", 2),
])
def test_work_budgets_refuse_before_starting(argv, what, seconds):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", BOUNDED_CLI_SCRIPT, *argv, "--machine"],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < seconds
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {what} enumeration bound 1000000 exceeded\n"


def _sign_group_file(tmp_path, n):
    """<diag(1, .., -1 at i, .., 1) : i < n> in GL_n(Q), of order 2^n, as a
    group file; its scalars are +-I, so G/Z = (Z/2)^(n-1)."""
    gens = [", ".join("-1" if j == k == i else "1" if j == k else "0"
                      for j in range(n) for k in range(n)) for i in range(n)]
    path = tmp_path / f"signs{n}.group"
    path.write_text(f"field = rational\ndim = {n}\n"
                    + "".join(f"generator = {g}\n" for g in gens))
    return str(path)


@pytest.mark.parametrize("n, rank", [(7, 6), (8, None)])
def test_rank_search_of_sign_groups_is_bounded(tmp_path, n, rank):
    # each elementary abelian subgroup of G/Z is visited once, along its
    # canonical chain: n = 7 answers after 230,218 of the 10^6 products,
    # and n = 8, with 127 involutions mod Z, would need 5,573,287 and is
    # refused at the budget
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", BOUNDED_CLI_SCRIPT, "rank",
                           "--group", _sign_group_file(tmp_path, n), "--ell", "2",
                           "--machine"], capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    if rank is None:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: elementary abelian rank product "
                               "enumeration bound 1000000 exceeded\n")
    else:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outputs"]["rank"] == rank


@pytest.mark.parametrize("n, rank, work", [(5, 4, 1_093), (6, 5, 13_358),
                                            (7, 6, 230_218)])
def test_rank_search_stops_a_candidate_at_its_first_rejected_product(
        tmp_path, monkeypatch, n, rank, work):
    # a candidate's coset products stop at the first one in S or below x:
    # 791,575 products on n = 7 when all |S| (ell - 1) were built first
    charged = []
    check = tables.check_enumeration_bound
    monkeypatch.setattr(tables, "check_enumeration_bound",
                        lambda size, what: (charged.append(size), check(size, what)))
    g = groups.load_group_file(_sign_group_file(tmp_path, n))
    assert rank_obstruction(g, 2).rank == rank
    assert charged[-1] == work


def test_translate_budget_counts_the_squaring_products(monkeypatch):
    # T for x^e is its e + 1 expanded terms plus the term products of
    # building (x + 1)^e; over Q no binomial coefficient vanishes, so the
    # products that `compose` makes are exactly the rest of T
    products = []
    int_mul = poly._int_mul

    def counted(spec, p, q):
        products.append(len(p) * len(q))
        return int_mul(spec, p, q)

    monkeypatch.setattr(poly, "_int_mul", counted)
    for e in (1, 2, 3, 7, 8, 101, 211):
        f = Polynomial(Q, 1, {(e,): Q.one()})
        products.clear()
        f.translate((Q.one(),))
        assert _translate_terms(f) == e + 1 + sum(products), e
    assert _translate_terms(parse_polynomial("x^211 - x", 1, Q,
                                             var_names=("x",))) == 18146
