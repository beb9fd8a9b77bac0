"""Machine-readable registry of worked examples with executable checks.

Each example is a manifest block: description, optional group file, and a
list of typed assertions.  Every assertion maps to exactly one operation
invocation; `verify_example` runs them and reports computed vs expected
values together with their provenance tags (classical / derived / direct).
"""

from __future__ import annotations

import os
from fractions import Fraction

from ..errors import InvForgeError
from ..fields import FieldSpec, parse_field_spec
from ..cohomology import h1_classes, load_action_file, square_class_forms
from ..geometry import (check_claim_51, check_parabolic_claim,
                        perm_module_irreducible, projective_fixed_points,
                        rank_obstruction)
from ..groups import (automorphism_group, elementary_abelian_rank,
                      is_absolutely_irreducible, is_diagonalizable_over_k,
                      load_group_file, natural_character,
                      character_inner_product, natural_character_self_product,
                      outer_classes, pseudo_reflections, reflection_subgroup)
from ..invariants import (cst_quotient_action, find_relation, hilbert_dims,
                          invariant_space, is_invariant, minimal_generators,
                          molien_series, scaled_torus_exponents)
from ..linalg import Matrix, char_poly
from ..normalizer import graded_aut_of_An, intertwiner, normalizer_report
from ..poly import parse_polynomial

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class ExampleCase:
    """Registry entry: id, description, optional group file, typed assertions."""

    __slots__ = ("example_id", "description", "source", "group_file", "facts")

    def __init__(self, example_id, description, source, group_file, facts):
        self.example_id = example_id
        self.description = description
        self.source = source
        self.group_file = group_file
        self.facts = tuple(facts)  # (provenance, fact name, payload)

    def __eq__(self, other):
        return (isinstance(other, ExampleCase)
                and self.example_id == other.example_id
                and self.description == other.description
                and self.source == other.source
                and self.group_file == other.group_file
                and self.facts == other.facts)

    def __repr__(self):
        return f"ExampleCase({self.example_id}, {len(self.facts)} assertions)"


class AssertionResult:
    __slots__ = ("name", "provenance", "expected", "computed", "ok")

    def __init__(self, name, provenance, expected, computed, ok):
        self.name = name
        self.provenance = provenance
        self.expected = expected
        self.computed = computed
        self.ok = ok

    def as_dict(self):
        return {
            "assertion": self.name,
            "provenance": self.provenance,
            "expected": self.expected,
            "computed": self.computed,
            "ok": self.ok,
        }


class VerifyReport:
    __slots__ = ("example_id", "results", "passed")

    def __init__(self, example_id, results):
        self.example_id = example_id
        self.results = tuple(results)
        self.passed = all(r.ok for r in results)

    def as_dict(self):
        return {
            "example": self.example_id,
            "passed": self.passed,
            "assertions": [r.as_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# manifest parsing / serialization
# ---------------------------------------------------------------------------

def parse_manifest(text):
    cases = []
    current = None

    def flush():
        if current is not None:
            cases.append(ExampleCase(current["id"], current.get("description", ""),
                                     current.get("source", ""),
                                     current.get("group"), current["facts"]))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[example ") and line.endswith("]"):
            flush()
            current = {"id": line[len("[example "):-1].strip(), "facts": []}
            continue
        if current is None:
            raise InvForgeError(f"manifest line {lineno}: content before any example")
        if line.startswith("assert "):
            body = line[len("assert "):]
            head, _, payload = body.partition("=")
            parts = head.split()
            if len(parts) != 2:
                raise InvForgeError(f"manifest line {lineno}: expected "
                                    "'assert <provenance> <fact> = <payload>'")
            provenance, fact = parts
            if provenance not in ("classical", "derived", "direct"):
                raise InvForgeError(f"manifest line {lineno}: unknown provenance "
                                    f"{provenance!r}")
            current["facts"].append((provenance, fact, payload.strip()))
        elif "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
        else:
            raise InvForgeError(f"manifest line {lineno}: unparsable line")
    flush()
    ids = [c.example_id for c in cases]
    if len(set(ids)) != len(ids):
        raise InvForgeError("duplicate example ids in manifest")
    return cases


def serialize_manifest(cases):
    blocks = []
    for c in cases:
        lines = [f"[example {c.example_id}]",
                 f"description = {c.description}",
                 f"source = {c.source}"]
        if c.group_file:
            lines.append(f"group = {c.group_file}")
        for provenance, fact, payload in c.facts:
            lines.append(f"assert {provenance} {fact} = {payload}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


_REGISTRY = None
_GROUP_CACHE = {}
_MEMO = {}


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        with open(os.path.join(DATA_DIR, "manifest.txt"), encoding="utf-8") as fh:
            cases = parse_manifest(fh.read())
        _REGISTRY = {c.example_id: c for c in cases}
    return _REGISTRY


def list_examples():
    """(id, description, source) for every registered example."""
    return [(c.example_id, c.description, c.source)
            for c in registry().values()]


def get_group(example_id):
    case = registry()[example_id.lower()]
    if case.group_file is None:
        raise InvForgeError(f"example {example_id} has no group file")
    return load_corpus_group(case.group_file)


def load_corpus_group(filename):
    """Load a group file shipped with the corpus, with caching."""
    if filename not in _GROUP_CACHE:
        _GROUP_CACHE[filename] = load_group_file(os.path.join(DATA_DIR, filename))
    return _GROUP_CACHE[filename]


def _memo(fn, group):
    """fn(group), computed once per group (groups hash by identity)."""
    key = (fn, group)
    if key not in _MEMO:
        _MEMO[key] = fn(group)
    return _MEMO[key]


# ---------------------------------------------------------------------------
# fact checkers: payload -> (expected repr, computed repr, ok)
# ---------------------------------------------------------------------------

def _ints(payload):
    return [int(x) for x in payload.split(",")]


def _bool(payload):
    if payload.strip() not in ("true", "false"):
        raise InvForgeError(f"expected true/false, got {payload!r}")
    return payload.strip() == "true"


def _split_at(payload):
    if "@" in payload:
        body, _, deg = payload.rpartition("@")
        return body.strip(), int(deg)
    return payload.strip(), None


def _parse_y_monomials(body, m):
    expos = []
    for part in body.split("|"):
        expo = [0] * m
        for factor in part.strip().split("*"):
            factor = factor.strip()
            name, _, power = factor.partition("^")
            idx = int(name[1:]) - 1
            expo[idx] += int(power) if power else 1
        expos.append(tuple(expo))
    return sorted(expos, reverse=True)


def _check_order(group, payload):
    want = int(payload)
    return want, group.order, group.order == want


def _check_center_order(group, payload):
    want = int(payload)
    got = len(group.center_indices())
    return want, got, got == want


def _check_pseudo_reflection_count(group, payload):
    want = int(payload)
    got = len(pseudo_reflections(group))
    return want, got, got == want


def _check_reflection_subgroup_order(group, payload):
    want = int(payload)
    got = reflection_subgroup(group).order
    return want, got, got == want


def _check_absolutely_irreducible(group, payload):
    want = _bool(payload)
    got = is_absolutely_irreducible(group)
    return want, got, got == want


def _check_diagonalizable(group, payload):
    want = _bool(payload)
    got = is_diagonalizable_over_k(group)
    return want, got, got == want


def _check_elementary_rank(group, payload):
    ell, want = (int(x) for x in payload.split(";"))
    got = elementary_abelian_rank(group, ell)
    return want, got, got == want


def _check_automorphism_count(group, payload):
    want = int(payload)
    got = len(automorphism_group(group))
    return want, got, got == want


def _check_outer_class_count(group, payload):
    want = int(payload)
    got = len(outer_classes(group))
    return want, got, got == want


def _check_natural_char_self_ip(group, payload):
    want = Fraction(payload.strip())
    got = natural_character_self_product(group).as_rational()
    return str(want), str(got), got == want


def _check_generator_degrees(group, payload):
    body, dmax = _split_at(payload)
    want = _ints(body)
    gs = (_memo(minimal_generators, group) if dmax is None
          else minimal_generators(group, d_max=dmax))
    got = gs.degrees
    return want, got, got == want


def _check_degree_gcd(group, payload):
    want = int(payload)
    got = _memo(minimal_generators, group).e
    return want, got, got == want


def _check_scaled_exponents(group, payload):
    want = _ints(payload)
    got = scaled_torus_exponents(_memo(minimal_generators, group))
    return want, got, got == want


def _relation(group, wdeg):
    gs = _memo(minimal_generators, group)
    return gs, find_relation(gs, wdeg)


def _check_relation_support(group, payload):
    body, wdeg = _split_at(payload)
    gs, rel = _relation(group, wdeg)
    want = _parse_y_monomials(body, len(gs))
    if rel is None:
        return want, None, False
    got = rel.support()
    return want, got, got == want and rel.weighted_degree == wdeg


def _check_relation_exact(group, payload):
    body, wdeg = _split_at(payload)
    gs, rel = _relation(group, wdeg)
    names = tuple(f"y{i + 1}" for i in range(len(gs)))
    want = parse_polynomial(body, len(gs), group.spec, var_names=names)
    if rel is None:
        return want.render(names), None, False
    ok = rel.poly == want and rel.weighted_degree == wdeg
    return want.render(names), rel.poly.render(names), ok


def _check_relation_contains(group, payload):
    body, wdeg = _split_at(payload)
    gs, rel = _relation(group, wdeg)
    want = _parse_y_monomials(body, len(gs))
    if rel is None:
        return want, None, False
    got = rel.support()
    ok = rel.weighted_degree == wdeg and all(e in got for e in want)
    return f"support contains {want} at {wdeg}", got, ok


def _check_hilbert_dims(group, payload):
    want = _ints(payload)
    got = list(hilbert_dims(group, len(want) - 1).dims)
    return want, got, got == want


def _check_molien_matches_hilbert(group, payload):
    dmax = int(payload)
    mol = molien_series(group, dmax).dims
    hil = hilbert_dims(group, dmax).dims
    return list(hil), list(mol), mol == hil


def _check_molien_nonzero_degrees(group, payload):
    body, dmax = _split_at(payload)
    want = _ints(body)
    mol = molien_series(group, dmax)
    got = [d for d in range(dmax + 1) if mol[d] != 0]
    return want, got, got == want


def _check_invariant(group, payload):
    f = parse_polynomial(payload, group.n, group.spec)
    got = is_invariant(group, f)
    return True, got, got is True


def _check_not_invariant(group, payload):
    f = parse_polynomial(payload, group.n, group.spec)
    got = is_invariant(group, f)
    return False, got, got is False


def _check_compose_zero(group, payload):
    parts = [p.strip() for p in payload.split(";")]
    relation_text, images_text = parts[0], parts[1:]
    k = len(images_text)
    names = tuple(f"s{i + 1}" for i in range(k))
    spec = group.spec
    relation = parse_polynomial(relation_text, k, spec, var_names=names)
    images = [parse_polynomial(t, group.n, spec) for t in images_text]
    composed = relation.compose(images)
    return "0", composed.render(), composed.is_zero()


def _check_char_poly_gen(group, payload):
    idx_text, _, poly_text = payload.partition(";")
    gen = group.generators()[int(idx_text)]
    want = parse_polynomial(poly_text.strip(), 1, group.spec, var_names=("x",))
    got = char_poly(gen)
    return want.render(("x",)), got.render(("x",)), got == want


def _check_gen_power_is_identity(group, payload):
    idx_text, _, k_text = payload.partition(";")
    gen = group.generators()[int(idx_text)]
    k = int(k_text)
    got = gen ** k == Matrix.identity(group.spec, group.n)
    return True, got, got is True


def _check_gen_not_identity(group, payload):
    gen = group.generators()[int(payload)]
    got = gen != Matrix.identity(group.spec, group.n)
    return True, got, got is True


def _check_commutant_dim(group, payload):
    want = int(payload)
    got = _memo(normalizer_report, group).commutant_dim
    return want, got, got == want


def _check_torus_split(group, payload):
    want = _bool(payload)
    got = _memo(normalizer_report, group).torus_split
    return want, got, got == want


def _check_realized_outer_count(group, payload):
    want = int(payload)
    got = len(_memo(normalizer_report, group).realized_outer)
    return want, got, got == want


def _check_outer_chi_orthogonal(group, payload):
    """Every outer class without an intertwiner pairs to 0 against chi."""
    want = _bool(payload)
    chi = natural_character(group)
    ok = True
    for rep in outer_classes(group):
        if rep.inner:
            continue
        t = intertwiner(group, rep)
        chi_phi = tuple(chi[rep(i)] for i in range(group.order))
        ip = character_inner_product(group, chi, chi_phi).as_rational()
        if t is None and ip != 0:
            ok = False
        if t is not None and ip != 1:
            ok = False
    return want, ok, ok == want


def _check_fixed_point_count(group, payload):
    want = int(payload)
    got = len(projective_fixed_points(group))
    return want, got, got == want


def _check_cst_applicable(group, payload):
    want = _bool(payload)
    got = _memo(cst_quotient_action, group).applicable
    return want, got, got == want


def _check_cst_quotient_order(group, payload):
    want = int(payload)
    rep = _memo(cst_quotient_action, group)
    got = len(rep.coset_action) if rep.applicable else None
    return want, got, got == want


def _check_permmod(group, payload):
    p_text, _, want_text = payload.partition(";")
    want = _bool(want_text)
    got = perm_module_irreducible(group, int(p_text))
    return want, got, got == want


def _check_rank_hypothesis(group, payload):
    ell_text, rank_text, verdict_text = (s.strip() for s in payload.split(";"))
    report = rank_obstruction(group, int(ell_text))
    want = (int(rank_text), _bool(verdict_text))
    got = (report.rank, report.hypothesis_holds)
    return want, got, got == want


def _check_claim51(_group, payload):
    poly_text, q_text, n_text, total_text, bound_text = (
        s.strip() for s in payload.split(";"))
    q, n = int(q_text), int(n_text)
    spec = FieldSpec.finite_field(q)
    f = parse_polynomial(poly_text, n, spec)
    report = check_claim_51(f, n)
    want = (int(total_text), int(bound_text), True)
    got = (report.total, report.bound, report.verdict)
    return want, got, got == want


def _check_parabolic(_group, payload):
    q_text, n_text = (s.strip() for s in payload.split(";"))
    report = check_parabolic_claim(None, q=int(q_text), n=int(n_text))
    return True, report.verdict, report.verdict is True


def _check_h1_count(_group, payload):
    action_file, want_text = (s.strip() for s in payload.split(";"))
    action, _module = load_action_file(os.path.join(DATA_DIR, action_file))
    want = int(want_text)
    got = h1_classes(action).count
    return want, got, got == want


def _check_square_classes(_group, payload):
    field_text, want_text = (s.strip() for s in payload.split(";"))
    field = "reals" if field_text == "reals" else parse_field_spec(field_text)
    want = int(want_text)
    got = len(square_class_forms(field))
    return want, got, got == want


def _check_an_branch(_group, payload):
    d_text, n_text, branch = (s.strip() for s in payload.split(";"))
    spec = FieldSpec.rationals()
    d = spec.from_fraction(Fraction(d_text))
    desc = graded_aut_of_An(d, int(n_text))
    got = (desc.branch, desc.verified)
    return (branch, True), got, got == (branch, True)


_CHECKERS = {
    "order": _check_order,
    "center_order": _check_center_order,
    "pseudo_reflection_count": _check_pseudo_reflection_count,
    "reflection_subgroup_order": _check_reflection_subgroup_order,
    "absolutely_irreducible": _check_absolutely_irreducible,
    "diagonalizable": _check_diagonalizable,
    "elementary_rank": _check_elementary_rank,
    "automorphism_count": _check_automorphism_count,
    "outer_class_count": _check_outer_class_count,
    "natural_char_self_ip": _check_natural_char_self_ip,
    "generator_degrees": _check_generator_degrees,
    "degree_gcd": _check_degree_gcd,
    "scaled_exponents": _check_scaled_exponents,
    "relation_support": _check_relation_support,
    "relation_exact": _check_relation_exact,
    "relation_contains": _check_relation_contains,
    "hilbert_dims": _check_hilbert_dims,
    "molien_matches_hilbert": _check_molien_matches_hilbert,
    "molien_nonzero_degrees": _check_molien_nonzero_degrees,
    "invariant": _check_invariant,
    "not_invariant": _check_not_invariant,
    "compose_zero": _check_compose_zero,
    "char_poly_gen": _check_char_poly_gen,
    "gen_power_is_identity": _check_gen_power_is_identity,
    "gen_not_identity": _check_gen_not_identity,
    "commutant_dim": _check_commutant_dim,
    "torus_split": _check_torus_split,
    "realized_outer_count": _check_realized_outer_count,
    "outer_chi_orthogonal": _check_outer_chi_orthogonal,
    "fixed_point_count": _check_fixed_point_count,
    "cst_applicable": _check_cst_applicable,
    "cst_quotient_order": _check_cst_quotient_order,
    "permmod": _check_permmod,
    "rank_hypothesis": _check_rank_hypothesis,
    "claim51": _check_claim51,
    "parabolic": _check_parabolic,
    "h1_count": _check_h1_count,
    "square_classes": _check_square_classes,
    "an_branch": _check_an_branch,
}


def verify_example(example_id) -> VerifyReport:
    """Run every assertion of one example; report per-assertion detail."""
    example_id = example_id.lower()
    reg = registry()
    if example_id not in reg:
        raise InvForgeError(f"unknown example id {example_id!r}")
    case = reg[example_id]
    group = get_group(example_id) if case.group_file else None
    results = []
    for provenance, fact, payload in case.facts:
        checker = _CHECKERS.get(fact)
        if checker is None:
            raise InvForgeError(f"unknown fact type {fact!r}")
        expected, computed, ok = checker(group, payload)
        results.append(AssertionResult(f"{fact} = {payload}", provenance,
                                       _plain(expected), _plain(computed), ok))
    return VerifyReport(example_id, results)


def verify_all():
    return [verify_example(eid) for eid in sorted(registry())]


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)
