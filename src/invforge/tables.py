"""Abstract finite groups as multiplication tables.

This is the engine shared by matrix groups (via their index tables),
scalar quotients, and cohomology coefficient groups: element orders,
conjugacy classes, subgroup closure, automorphism enumeration and
elementary abelian rank all live here.
"""

from __future__ import annotations

from .errors import BoundExceededError, InvForgeError


class IndexedGroup:
    """Group queries that need only `mult(a, b)` on element indices and the
    identity index `identity`.  Subclasses provide both, plus the caches
    `_inv` and `_orders`: one None per element."""

    __slots__ = ()

    def inverse(self, a):
        if self._inv[a] is None:
            self._walk_powers(a)
        return self._inv[a]

    def element_order(self, a):
        if self._orders[a] is None:
            self._walk_powers(a)
        return self._orders[a]

    def _walk_powers(self, a):
        """Order and inverse of a from one pass over a, a^2, ..., a^ord = 1."""
        one = self.identity
        k, prev, x = 1, one, a
        while x != one:
            if k == len(self._orders):  # the order of a divides |G|
                raise InvForgeError(
                    f"not a group: the powers of element {a} miss the identity")
            prev, x = x, self.mult(x, a)
            k += 1
        self._orders[a], self._inv[a] = k, prev

    def subgroup_closure(self, gens):
        seen = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)


class TableGroup(IndexedGroup):
    """Finite group on indices 0..n-1 given by a full multiplication table."""

    __slots__ = ("n", "table", "identity", "_inv", "_orders", "_classes", "name")

    def __init__(self, table, name=None):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.name = name
        ident = None
        for e in range(self.n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.n)):
                ident = e
                break
        if ident is None:
            raise InvForgeError("multiplication table has no identity")
        self.identity = ident
        self._inv = [None] * self.n
        self._orders = [None] * self.n
        self._classes = None

    @staticmethod
    def cyclic(n, name=None):
        return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)],
                          name=name or f"Z/{n}")

    def mult(self, a, b):
        return self.table[a][b]

    def is_abelian(self):
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.n) for b in range(a))

    def center(self):
        return [a for a in range(self.n)
                if all(self.table[a][b] == self.table[b][a] for b in range(self.n))]

    def conjugacy_classes(self):
        """Classes as sorted tuples, via orbit closure under all conjugations."""
        if self._classes is None:
            assigned = [None] * self.n
            classes = []
            for x in range(self.n):
                if assigned[x] is not None:
                    continue
                orbit = {x}
                frontier = [x]
                while frontier:
                    y = frontier.pop()
                    for g in range(self.n):
                        c = self.mult(self.mult(g, y), self.inverse(g))
                        if c not in orbit:
                            orbit.add(c)
                            frontier.append(c)
                idx = len(classes)
                for y in orbit:
                    assigned[y] = idx
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    def generating_set(self):
        """Small generating set, greedy by subgroup growth (largest order first)."""
        order_index = sorted(range(self.n),
                             key=lambda a: (-self.element_order(a), a))
        gens = []
        span = frozenset({self.identity})
        while len(span) < self.n:
            best = None
            for a in order_index:
                if a in span:
                    continue
                new_span = self.subgroup_closure(gens + [a])
                if best is None or len(new_span) > best[1]:
                    best = (a, len(new_span), new_span)
                    if len(new_span) == self.n:
                        break
            gens.append(best[0])
            span = best[2]
        return gens

    def quotient(self, normal_indices):
        """(quotient TableGroup, coset index per element) by a normal subgroup."""
        normal = frozenset(normal_indices)
        if self.identity not in normal:
            raise InvForgeError("normal subgroup must contain the identity")
        coset_of = [None] * self.n
        cosets = []
        for x in range(self.n):
            if coset_of[x] is not None:
                continue
            members = sorted(self.mult(x, h) for h in normal)
            idx = len(cosets)
            for y in members:
                if coset_of[y] is not None and coset_of[y] != idx:
                    raise InvForgeError("subgroup is not normal (coset clash)")
                coset_of[y] = idx
            cosets.append(members)
        m = len(cosets)
        table = [[None] * m for _ in range(m)]
        for i, ci in enumerate(cosets):
            for j, cj in enumerate(cosets):
                table[i][j] = coset_of[self.mult(ci[0], cj[0])]
        return TableGroup(table), coset_of


# ---------------------------------------------------------------------------
# automorphisms by backtracking on generator images
# ---------------------------------------------------------------------------

def automorphisms(tg: TableGroup, bound=400):
    """All automorphisms as permutation tuples, sorted lexicographically.

    Backtracking over images of a small generating set (ordered by ascending
    element order), candidates filtered by element order and conjugacy class
    size; each assignment is extended by multiplicative propagation.
    """
    if tg.n > bound:
        raise BoundExceededError(
            f"automorphism search bound {bound} exceeded (|G| = {tg.n})")
    gens = sorted(tg.generating_set(), key=lambda a: (tg.element_order(a), a))
    class_size = {}
    for cls in tg.conjugacy_classes():
        for x in cls:
            class_size[x] = len(cls)
    candidates = []
    for g in gens:
        og, cg = tg.element_order(g), class_size[g]
        candidates.append([x for x in range(tg.n)
                           if tg.element_order(x) == og and class_size[x] == cg])
    found = []

    def extend(images):
        """Propagate gen -> image over the whole group; None if inconsistent."""
        phi = {tg.identity: tg.identity}
        frontier = [tg.identity]
        while frontier:
            a = frontier.pop()
            fa = phi[a]
            for g, h in zip(gens, images):
                b = tg.mult(a, g)
                fb = tg.mult(fa, h)
                if b in phi:
                    if phi[b] != fb:
                        return None
                else:
                    phi[b] = fb
                    frontier.append(b)
        if len(phi) != tg.n or len(set(phi.values())) != tg.n:
            return None
        return tuple(phi[x] for x in range(tg.n))

    def backtrack(i, images):
        if i == len(gens):
            perm = extend(images)
            if perm is not None:
                found.append(perm)
            return
        for x in candidates[i]:
            backtrack(i + 1, images + [x])

    backtrack(0, [])
    return sorted(set(found))


def inner_automorphisms(tg: TableGroup):
    """Conjugation permutations, as a set of tuples."""
    inner = set()
    for g in range(tg.n):
        ginv = tg.inverse(g)
        inner.add(tuple(tg.mult(tg.mult(g, x), ginv) for x in range(tg.n)))
    return inner


def is_automorphism(tg: TableGroup, perm):
    if sorted(perm) != list(range(tg.n)):
        return False
    return all(perm[tg.mult(a, b)] == tg.mult(perm[a], perm[b])
               for a in range(tg.n) for b in range(tg.n))


# ---------------------------------------------------------------------------
# elementary abelian rank
# ---------------------------------------------------------------------------

def elementary_abelian_rank(tg: TableGroup, ell):
    """Largest r with (Z/ell)^r embedded in the group.

    Searches index-increasing sequences of commuting order-ell elements,
    tracking the generated subgroup so independence is certified by the
    closure size ell^r.  Exponential worst case, fine at desk scale.
    """
    elems = [x for x in range(tg.n) if tg.element_order(x) == ell]
    if not elems:
        return 0
    commute = {x: {y for y in elems if tg.mult(x, y) == tg.mult(y, x)}
               for x in elems}
    best = 0

    def search(chosen, span, pool):
        nonlocal best
        best = max(best, len(chosen))
        if not pool:
            return
        # even if every remaining candidate were independent we need enough left
        for idx, x in enumerate(pool):
            if len(chosen) + (len(pool) - idx) <= best:
                return
            if x in span:
                continue
            new_span = tg.subgroup_closure(list(span) + [x])
            if len(new_span) != len(span) * ell:
                continue
            new_pool = [y for y in pool[idx + 1:] if y in commute[x]]
            search(chosen + [x], new_span, new_pool)

    search([], tg.subgroup_closure([]), elems)
    return best
