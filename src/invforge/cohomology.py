"""Nonabelian H^1 by cocycle enumeration, and square-class form counting.

Gamma is an abstract finite group (a multiplication table standing in for a
finite Galois quotient) acting on a finite group M by automorphisms; the
user supplies the action.  Twisted-form dictionaries of this kind assume a
perfect base field; that hypothesis is documented, not enforced.
"""

from __future__ import annotations

import itertools
import os

from .errors import InvForgeError, check_enumeration_bound
from .fields import FieldSpec
from .groups import automorphism_group, load_group_file
from .tables import IndexedGroup, TableGroup, extend_map, is_automorphism


class FiniteAction:
    """Finite Gamma acting on finite M through automorphisms.

    `action[g]` is the permutation of M-indices giving the automorphism by
    which Gamma-element g acts.  The constructor verifies that every image
    is an automorphism and that the assignment is a homomorphism.
    """

    __slots__ = ("gamma", "module", "action")

    def __init__(self, gamma: IndexedGroup, module: IndexedGroup, action):
        self.gamma = gamma
        self.module = module
        self.action = tuple(tuple(p) for p in action)
        if len(self.action) != gamma.order:
            raise InvForgeError("need one automorphism per Gamma element")
        for perm in self.action:
            if not is_automorphism(module, perm):
                raise InvForgeError("action image is not an automorphism of M")
        for a in range(gamma.order):
            for b in range(gamma.order):
                ab = gamma.mult(a, b)
                composed = tuple(self.action[a][self.action[b][m]]
                                 for m in range(module.order))
                if composed != self.action[ab]:
                    raise InvForgeError("action is not a homomorphism")

    @staticmethod
    def from_generator_images(gamma: IndexedGroup, module: IndexedGroup, images):
        """Extend generator -> automorphism assignments over all of Gamma."""
        gens, perms = list(images), list(images.values())
        closure = gamma.cayley(gens)
        if len(closure[0]) != gamma.order:
            raise InvForgeError("generator images do not reach all of Gamma")
        action = extend_map(closure, gamma.order, tuple(range(module.order)),
                            lambda a, pa, k: tuple(pa[m] for m in perms[k]))
        if action is None:
            raise InvForgeError("generator images are inconsistent")
        return FiniteAction(gamma, module, action)


class CocycleClassSet:
    """Cohomology classes: representatives (maps Gamma -> M) and the count."""

    __slots__ = ("representatives", "count")

    def __init__(self, representatives):
        self.representatives = tuple(tuple(r) for r in representatives)
        self.count = len(self.representatives)

    def __repr__(self):
        return f"CocycleClassSet({self.count} classes)"


def _cocycle_ok(act: FiniteAction, c):
    g = act.gamma
    m = act.module
    for s in range(g.order):
        for t in range(g.order):
            if c[g.mult(s, t)] != m.mult(c[s], act.action[s][c[t]]):
                return False
    return True


def h1_classes(act: FiniteAction) -> CocycleClassSet:
    """H^1(Gamma, M) by cocycle enumeration modulo twisted conjugation.

    Candidate maps are generated from values on a generating set of Gamma,
    extended along its Cayley graph with c_{sg} = c_s * s(c_g), then the
    full cocycle identity is verified.  Classes are orbits of
    c_s -> b^(-1) c_s s(b); representatives are the lexicographically least
    tuples.
    """
    gamma, module = act.gamma, act.module
    gens = gamma.generating_set()
    check_enumeration_bound(module.order ** max(1, len(gens)), "cocycle")
    closure = gamma.cayley(gens)
    cocycles = []
    for assignment in itertools.product(range(module.order), repeat=len(gens)):
        c = extend_map(closure, gamma.order, module.identity,
                       lambda s, cs, k: module.mult(cs, act.action[s][assignment[k]]))
        if c is not None and _cocycle_ok(act, c):
            cocycles.append(tuple(c))
    # twisted conjugation orbits
    seen = {}
    classes = []
    for c in cocycles:
        if c in seen:
            continue
        orbit = set()
        for b in range(module.order):
            binv = module.inverse(b)
            tw = tuple(module.mult(module.mult(binv, c[s]), act.action[s][b])
                       for s in range(gamma.order))
            orbit.add(tw)
        rep = min(orbit)
        for o in orbit:
            seen[o] = rep
        classes.append(rep)
    classes.sort()
    return CocycleClassSet(classes)


def hom_count(gamma: IndexedGroup, module: IndexedGroup):
    """|Hom(Gamma, M)| by brute enumeration (cross-oracle for trivial actions)."""
    gens = gamma.generating_set()
    check_enumeration_bound(module.order ** max(1, len(gens)), "homomorphism")
    closure = gamma.cayley(gens)
    count = 0
    for assignment in itertools.product(range(module.order), repeat=len(gens)):
        c = extend_map(closure, gamma.order, module.identity,
                       lambda a, ca, k: module.mult(ca, assignment[k]))
        if c is None:
            continue
        ok = all(c[gamma.mult(a, b)] == module.mult(c[a], c[b])
                 for a in range(gamma.order) for b in range(gamma.order))
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------------

class SquareClassForm:
    __slots__ = ("representative", "description")

    def __init__(self, representative, description):
        self.representative = representative
        self.description = description

    def __repr__(self):
        return f"SquareClassForm({self.representative}: {self.description})"


def square_class_forms(field):
    """Representatives of k^x / (k^x)^2 with the surface forms they index.

    `field` is the string "reals" or a finite FieldSpec of odd size.  The
    real classes {1, -1} match the two real forms of the A-type surface:
    the split form x y = z^n (infinite-dimensional automorphisms) and the
    anisotropic form x^2 + y^2 = z^n (automorphism group of dimension 2).
    """
    if field == "reals":
        return [
            SquareClassForm(1, "split form x*y = z^n "
                               "(infinite-dimensional automorphism group)"),
            SquareClassForm(-1, "anisotropic form x^2 + y^2 = z^n "
                                "(2-dimensional automorphism group)"),
        ]
    if isinstance(field, FieldSpec) and field.kind == "finite":
        q = field.size()
        if q % 2 == 0:
            raise InvForgeError("square classes need odd characteristic")
        one = field.one()
        exponent = (q - 1) // 2
        nonresidue = None
        for e in field.elements():
            if e.is_zero():
                continue
            if (e ** exponent) != one:
                nonresidue = e
                break
        return [
            SquareClassForm(one.render(), "split form x*y = z^n"),
            SquareClassForm(nonresidue.render(),
                            "non-split form x^2 - d*y^2 = z^n with d a "
                            "non-residue"),
        ]
    raise InvForgeError("field must be 'reals' or a finite FieldSpec")


# ---------------------------------------------------------------------------
# action files: key/value lines
#   gamma = cyclic(N)  |  gamma_table = 0,1;1,0
#   module = relative/path/to/group/file
#   generator = K          (Gamma element index; repeatable, paired with image)
#   image = perm 0,3,2,1   |  image = aut 5
# ---------------------------------------------------------------------------

def parse_action_text(text, base_dir=None):
    gamma = module = None
    pairs = []
    pending_gen = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvForgeError(f"action file line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "gamma":
            if value.startswith("cyclic(") and value.endswith(")"):
                gamma = TableGroup.cyclic(int(value[7:-1]))
            else:
                raise InvForgeError(f"unknown gamma spec {value!r}")
        elif key == "gamma_table":
            rows = [[int(x) for x in row.split(",")]
                    for row in value.split(";")]
            if any(sorted(row) != list(range(len(rows))) for row in rows):
                raise InvForgeError(
                    f"action file line {lineno}: gamma_table rows must each "
                    f"list 0..{len(rows) - 1}")
            gamma = TableGroup(rows)
        elif key == "module":
            path = value if base_dir is None else os.path.join(base_dir, value)
            module = load_group_file(path).table_group()
        elif key == "generator":
            pending_gen = int(value)
        elif key == "image":
            if pending_gen is None:
                raise InvForgeError(f"action file line {lineno}: image without generator")
            pairs.append((pending_gen, value))
            pending_gen = None
        elif key == "name":
            pass
        else:
            raise InvForgeError(f"action file line {lineno}: unknown key {key!r}")
    if gamma is None or module is None:
        raise InvForgeError("action file needs gamma and module")
    images = {}
    for gen, image_text in pairs:
        if not 0 <= gen < gamma.order:
            raise InvForgeError(f"generator {gen} is not an element of gamma "
                                f"(order {gamma.order})")
        kind, _, payload = image_text.partition(" ")
        if kind == "perm":
            perm = tuple(int(x) for x in payload.split(","))
            if sorted(perm) != list(range(module.order)):
                raise InvForgeError(f"image {image_text!r} is not a permutation "
                                    f"of 0..{module.order - 1}")
        elif kind == "aut":
            auts = automorphism_group(module)
            k = int(payload)
            if not 0 <= k < len(auts):
                raise InvForgeError(f"image {image_text!r}: the module has "
                                    f"{len(auts)} automorphisms")
            perm = auts[k].perm
        else:
            raise InvForgeError(f"unknown image kind {kind!r}")
        images[gen] = perm
    action = FiniteAction.from_generator_images(gamma, module, images)
    return action, module


def load_action_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_action_text(fh.read(), base_dir=os.path.dirname(path))
