"""Abstract finite groups as multiplication tables.

This is the engine shared by matrix groups (via their indices), scalar
quotients, and cohomology coefficient groups: element orders, conjugacy
classes, subgroup closure, automorphism enumeration and elementary abelian
rank all live here.

It also owns the one breadth-first walk over generators: `cayley_closure`
closes a set under right multiplication and records the Cayley graph, and
`extend_map` defines a map on the walk's orbit along that graph's edges.
Matrix group closure, subgroups, automorphisms, cocycles and actions all
use them, and so do orbits and powers: an element's order and inverse (the
walk of its powers), a conjugacy class (the orbit of x under conjugation by
the generators), the order of an F_q^* element, and the monomial orbits
whose invariants `invariants._orbit_fixed_vectors` transports.
"""

from __future__ import annotations

from .errors import BoundExceededError, ClosureCapError, InvForgeError


def cayley_closure(one, gens, times, key, cap):
    """Breadth-first closure of {one} under right multiplication by gens.

    Returns (elements, right, parent) in queue order: right[i][k] is the
    index of times(elements[i], gens[k]) and parent[j] = (i, k) is the edge
    that first reached j.
    """
    elements = [one]
    index = {key(one): 0}
    right, parent = [], [None]
    for i, x in enumerate(elements):  # grows while iterated: the BFS queue
        row = []
        for k, g in enumerate(gens):
            y = times(x, g)
            y_key = key(y)
            j = index.get(y_key)
            if j is None:
                j = index[y_key] = len(elements)
                elements.append(y)
                parent.append((i, k))
                if len(elements) > cap:
                    raise ClosureCapError(
                        f"closure exceeded cap {cap}: group infinite or too large")
            row.append(j)
        right.append(row)
    return elements, right, parent


def extend_map(closure, size, start, step):
    """The map f on indices 0..size-1 along a closure's edges.

    `closure` is a `cayley_closure` of indices under gens.  f(one) is
    `start`, and f(a * gens[k]) = step(a, f(a), k) must hold on every edge
    a -> a * gens[k].  Returns f as a list of `size` values, None at the
    indices off the closure, or None when two edges disagree.
    """
    elements, right, _ = closure
    values = [start]  # values[i] = f(elements[i])
    for i, row in enumerate(right):
        a, fa = elements[i], values[i]
        for k, j in enumerate(row):
            fb = step(a, fa, k)
            if j == len(values):  # first edge into j: its parent edge
                values.append(fb)
            elif values[j] != fb:
                return None
    f = [None] * size
    for x, v in zip(elements, values):
        f[x] = v
    return f


class IndexedGroup:
    """Group queries that need only `mult(a, b)` on element indices and the
    identity index `identity`.  Subclasses provide both, `generating_set()`
    and the caches `_inv`, `_orders` (one None per element) and `_classes`."""

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
        """Order and inverse of a from the walk 1, a, a^2, ..., a^(ord-1)."""
        powers, right, _ = self.cayley([a])
        if right[-1][0]:  # the last edge must close the cycle at 1
            raise InvForgeError(
                f"not a group: the powers of element {a} miss the identity")
        self._orders[a], self._inv[a] = len(powers), powers[-1]

    def cayley(self, gens):
        """`cayley_closure` of the identity under gens, on element indices."""
        return cayley_closure(self.identity, list(gens), self.mult,
                              int, len(self._orders))  # indices are keys

    def subgroup_closure(self, gens):
        return frozenset(self.cayley(gens)[0])

    def conjugacy_classes(self):
        """Classes as sorted tuples, ordered by least member.

        The generators s generate G, so the class of x is its orbit under
        y -> s^-1 y s: one `cayley_closure` per class, on `mult` alone.
        """
        if self._classes is None:
            n, classes, seen = len(self._orders), [], set()
            pairs = [(s, self.inverse(s)) for s in self.generating_set()]

            def conjugate(y, pair):  # s^-1 y s for pair = (s, s^-1)
                return self.mult(self.mult(pair[1], y), pair[0])

            for x in range(n):
                if x not in seen:
                    orbit = cayley_closure(x, pairs, conjugate, int, n)[0]
                    seen.update(orbit)
                    classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes


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
        if any(self.mult(h, k) not in normal for h in normal for k in normal):
            raise InvForgeError("not a subgroup: not closed under products")
        if any(self.mult(self.mult(x, h), self.inverse(x)) not in normal
               for x in range(self.n) for h in normal):
            raise InvForgeError("subgroup is not normal")
        coset_of = [None] * self.n
        cosets = []
        for x in range(self.n):
            if coset_of[x] is None:  # a new coset xN; the cosets partition G
                members = sorted(self.mult(x, h) for h in normal)
                for y in members:
                    coset_of[y] = len(cosets)
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
    size; each assignment is extended along the generators' Cayley graph.
    """
    if tg.n > bound:
        raise BoundExceededError(
            f"automorphism search bound {bound} exceeded (|G| = {tg.n})")
    gens = sorted(tg.generating_set(), key=lambda a: (tg.element_order(a), a))
    class_size = {x: len(cls) for cls in tg.conjugacy_classes() for x in cls}
    candidates = []
    for g in gens:
        og, cg = tg.element_order(g), class_size[g]
        candidates.append([x for x in range(tg.n)
                           if tg.element_order(x) == og and class_size[x] == cg])
    closure = tg.cayley(gens)
    table = tg.table
    found = []

    def backtrack(i, images):
        if i == len(gens):
            perm = extend_map(closure, tg.n, tg.identity,
                              lambda a, fa, k: table[fa][images[k]])
            if perm is not None and len(set(perm)) == tg.n:
                found.append(tuple(perm))
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
