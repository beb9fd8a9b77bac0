"""Nonabelian H^1 by cocycle enumeration, and square-class form counting.

Gamma is an abstract finite group (a multiplication table standing in for a
finite Galois quotient) acting on a finite group M by automorphisms; the
user supplies the action.  Twisted-form dictionaries of this kind assume a
perfect base field; that hypothesis is documented, not enforced.
"""

from __future__ import annotations

import itertools
import os

from .errors import BoundExceededError, InvForgeError
from .fields import FieldSpec
from .groups import automorphism_group, load_group_file
from .tables import TableGroup, is_automorphism

H1_ENUMERATION_BOUND = 10 ** 6


class FiniteAction:
    """Finite Gamma acting on finite M through automorphisms.

    `action[g]` is the permutation of M-indices giving the automorphism by
    which Gamma-element g acts.  The constructor verifies that every image
    is an automorphism and that the assignment is a homomorphism.
    """

    __slots__ = ("gamma", "module", "action")

    def __init__(self, gamma: TableGroup, module: TableGroup, action):
        self.gamma = gamma
        self.module = module
        self.action = tuple(tuple(p) for p in action)
        if len(self.action) != gamma.n:
            raise InvForgeError("need one automorphism per Gamma element")
        for perm in self.action:
            if not is_automorphism(module, perm):
                raise InvForgeError("action image is not an automorphism of M")
        for a in range(gamma.n):
            for b in range(gamma.n):
                ab = gamma.mult(a, b)
                composed = tuple(self.action[a][self.action[b][m]]
                                 for m in range(module.n))
                if composed != self.action[ab]:
                    raise InvForgeError("action is not a homomorphism")

    @staticmethod
    def from_generator_images(gamma: TableGroup, module: TableGroup, images):
        """Extend generator -> automorphism assignments over all of Gamma."""
        action = {gamma.identity: tuple(range(module.n))}
        frontier = [gamma.identity]
        gen_items = list(images.items())
        while frontier:
            a = frontier.pop()
            for g, pg in gen_items:
                b = gamma.mult(a, g)
                composed = tuple(action[a][pg[m]] for m in range(module.n))
                if b in action:
                    if action[b] != composed:
                        raise InvForgeError("generator images are inconsistent")
                else:
                    action[b] = composed
                    frontier.append(b)
        if len(action) != gamma.n:
            raise InvForgeError("generator images do not reach all of Gamma")
        return FiniteAction(gamma, module,
                            [action[a] for a in range(gamma.n)])


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
    for s in range(g.n):
        for t in range(g.n):
            if c[g.mult(s, t)] != m.mult(c[s], act.action[s][c[t]]):
                return False
    return True


def h1_classes(act: FiniteAction) -> CocycleClassSet:
    """H^1(Gamma, M) by cocycle enumeration modulo twisted conjugation.

    Candidate maps are generated from values on a generating set of Gamma,
    propagated with c_{st} = c_s * s(c_t), then the full cocycle identity is
    verified.  Classes are orbits of c_s -> b^(-1) c_s s(b); representatives
    are the lexicographically least tuples.
    """
    gamma, module = act.gamma, act.module
    gens = gamma.generating_set()
    if module.n ** max(1, len(gens)) > H1_ENUMERATION_BOUND:
        raise BoundExceededError("cocycle enumeration bound exceeded")
    cocycles = []
    for assignment in itertools.product(range(module.n), repeat=len(gens)):
        c = _propagate(act, gens, assignment)
        if c is not None and _cocycle_ok(act, c):
            cocycles.append(tuple(c))
    # twisted conjugation orbits
    seen = {}
    classes = []
    for c in cocycles:
        if c in seen:
            continue
        orbit = set()
        for b in range(module.n):
            binv = module.inverse(b)
            tw = tuple(module.mult(module.mult(binv, c[s]), act.action[s][b])
                       for s in range(gamma.n))
            orbit.add(tw)
        rep = min(orbit)
        for o in orbit:
            seen[o] = rep
        classes.append(rep)
    classes.sort()
    return CocycleClassSet(classes)


def _propagate(act, gens, assignment):
    gamma, module = act.gamma, act.module
    c = {gamma.identity: module.identity}
    frontier = [gamma.identity]
    images = dict(zip(gens, assignment))
    while frontier:
        s = frontier.pop()
        for g, cg in images.items():
            t = gamma.mult(s, g)
            val = module.mult(c[s], act.action[s][cg])
            if t in c:
                if c[t] != val:
                    return None
            else:
                c[t] = val
                frontier.append(t)
    if len(c) != gamma.n:
        return None
    return [c[s] for s in range(gamma.n)]


def hom_count(gamma: TableGroup, module: TableGroup):
    """|Hom(Gamma, M)| by brute enumeration (cross-oracle for trivial actions)."""
    trivial = FiniteAction(gamma, module,
                           [tuple(range(module.n))] * gamma.n)
    gens = gamma.generating_set()
    count = 0
    for assignment in itertools.product(range(module.n), repeat=len(gens)):
        c = _propagate(trivial, gens, assignment)
        if c is None:
            continue
        ok = all(c[gamma.mult(a, b)] == module.mult(c[a], c[b])
                 for a in range(gamma.n) for b in range(gamma.n))
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
    gamma = None
    module_group = None
    module_table = None
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
            module_group = load_group_file(path)
            module_table = module_group.table_group()
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
    if gamma is None or module_table is None:
        raise InvForgeError("action file needs gamma and module")
    images = {}
    for gen, image_text in pairs:
        if not 0 <= gen < gamma.n:
            raise InvForgeError(f"generator {gen} is not an element of gamma "
                                f"(order {gamma.n})")
        kind, _, payload = image_text.partition(" ")
        if kind == "perm":
            perm = tuple(int(x) for x in payload.split(","))
            if sorted(perm) != list(range(module_table.n)):
                raise InvForgeError(f"image {image_text!r} is not a permutation "
                                    f"of 0..{module_table.n - 1}")
        elif kind == "aut":
            auts = automorphism_group(module_group)
            k = int(payload)
            if not 0 <= k < len(auts):
                raise InvForgeError(f"image {image_text!r}: the module has "
                                    f"{len(auts)} automorphisms")
            perm = auts[k].perm
        else:
            raise InvForgeError(f"unknown image kind {kind!r}")
        images[gen] = perm
    action = FiniteAction.from_generator_images(gamma, module_table, images)
    return action, module_group


def load_action_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_action_text(fh.read(), base_dir=os.path.dirname(path))
