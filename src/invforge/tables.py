"""Finite groups on element indices, answered from `mult(a, b)` alone.

`IndexedGroup` is shared by matrix groups (their |G|^2 table only a cache
behind `mult`) and multiplication tables (the cohomology Galois groups):
element orders, conjugacy classes, cosets, subgroup closure, automorphism
enumeration and the elementary abelian rank modulo a central subgroup.

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

import itertools

from .errors import (BoundExceededError, ClosureCapError, InvForgeError,
                     check_enumeration_bound)
from .fields import _is_prime


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
    """Group queries from `mult(a, b)` on the indices 0..order-1 alone.
    Subclasses provide it, the identity index `identity` and the caches
    `_inv`, `_orders` (one None per element), `_classes` and `_greedy`."""

    __slots__ = ()

    @property
    def order(self):
        return len(self._orders)

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
                              int, self.order)  # indices are keys

    def subgroup_closure(self, gens):
        return frozenset(self.cayley(gens)[0])

    def generating_set(self):
        return self.greedy_generators()

    def greedy_generators(self):
        """Small generating set, greedy by subgroup growth (largest order
        first), found once per group."""
        if self._greedy is None:
            order_index = sorted(range(self.order),
                                 key=lambda a: (-self.element_order(a), a))
            gens, span = [], frozenset({self.identity})
            while len(span) < self.order:
                best = None
                for a in order_index:
                    if a not in span:
                        new_span = self.subgroup_closure(gens + [a])
                        if best is None or len(new_span) > len(best[1]):
                            best = (a, new_span)
                            if len(new_span) == self.order:
                                break
                gens.append(best[0])
                span = best[1]
            self._greedy = tuple(gens)
        return self._greedy

    def coset_representatives(self, subgroup):
        """rep[x] = the least member of x*H for H = `subgroup`, a list of
        indices: the least x that no earlier coset holds starts a new one."""
        rep = [None] * self.order
        for x in range(self.order):
            if rep[x] is None:
                for h in subgroup:
                    rep[self.mult(x, h)] = x
        return rep

    def conjugacy_classes(self):
        """Classes as sorted tuples, ordered by least member.

        The generators s generate G, so the class of x is its orbit under
        y -> s^-1 y s: one `cayley_closure` per class, on `mult` alone.
        """
        if self._classes is None:
            n, classes, seen = self.order, [], set()
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

    __slots__ = ("table", "identity", "_inv", "_orders", "_classes", "_greedy")

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        self.identity = next((e for e in range(n) if all(
            self.table[e][x] == x == self.table[x][e] for x in range(n))), None)
        if self.identity is None:
            raise InvForgeError("multiplication table has no identity")
        self._inv = [None] * n
        self._orders = [None] * n
        self._classes = self._greedy = None

    @staticmethod
    def cyclic(n):
        return TableGroup([[(i + j) % n for j in range(n)] for i in range(n)])

    def mult(self, a, b):
        return self.table[a][b]


# ---------------------------------------------------------------------------
# automorphisms by backtracking on generator images
# ---------------------------------------------------------------------------

def automorphisms(group: IndexedGroup, bound=400):
    """All automorphisms as permutation tuples, sorted lexicographically.

    Backtracking over images of the greedy generating set (ordered by
    ascending element order), candidates filtered by element order and
    conjugacy class size; each assignment is extended along the generators'
    Cayley graph, reading each candidate x's column a -> a * x.
    """
    n = group.order
    if n > bound:
        raise BoundExceededError(
            f"automorphism search bound {bound} exceeded (|G| = {n})")
    gens = sorted(group.greedy_generators(),
                  key=lambda a: (group.element_order(a), a))
    class_size = {x: len(cls) for cls in group.conjugacy_classes() for x in cls}
    candidates = []
    for g in gens:
        og, cg = group.element_order(g), class_size[g]
        candidates.append([x for x in range(n)
                           if group.element_order(x) == og and class_size[x] == cg])
    column = {x: [group.mult(a, x) for a in range(n)]
              for x in set().union(*candidates)}
    closure = group.cayley(gens)
    found = []

    def backtrack(i, images):  # images[k]: the column of gens[k]'s image
        if i == len(gens):
            perm = extend_map(closure, n, group.identity,
                              lambda a, fa, k: images[k][fa])
            if perm is not None and len(set(perm)) == n:
                found.append(tuple(perm))
            return
        for x in candidates[i]:
            backtrack(i + 1, images + [column[x]])

    backtrack(0, [])
    return sorted(set(found))


def is_automorphism(group: IndexedGroup, perm):
    n = group.order
    if sorted(perm) != list(range(n)):
        return False
    return all(perm[group.mult(a, b)] == group.mult(perm[a], perm[b])
               for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# elementary abelian rank
# ---------------------------------------------------------------------------

def elementary_abelian_rank(group: IndexedGroup, ell, center):
    """Largest r with (Z/ell)^r embedded in G/Z, for Z = `center` a central
    subgroup (a list of indices; the identity alone ranks G itself).

    Works in G on one element per coset xZ, its least member.  The span S
    contains Z, with S/Z = (Z/ell)^r.  An x of order ell mod Z commuting
    with S mod Z normalizes S, so <S, x> = S<x>, of order |S| * ell when no
    x^k (0 < k < ell) is in S.  For a prime ell each S is visited once, on
    its canonical chain x_1 < x_2 < ..., x_i = min(S_(i-1)<x_i> - S_(i-1)).
    The search's products are counted against the enumeration bound.
    """
    if ell < 2 or (group.order // len(center)) % ell:
        return 0  # no element has order ell mod Z (Lagrange)
    prime = _is_prime(ell)
    rep = group.coset_representatives(center)
    one = rep[group.identity]
    powers = {}  # x -> [x, x^2, ..., x^(ell-1)] for x not in Z, x^ell in Z
    for x in range(group.order):
        if rep[x] == x != one:
            xs = [x]
            for _ in range(ell - 1):
                xs.append(group.mult(xs[-1], x))
            if rep[xs.pop()] == one:
                powers[x] = xs
    elems = list(powers)  # ascending
    commuting = {}  # x -> the elems commuting with x mod Z
    work = best = 0

    def charge(products):
        nonlocal work
        work += products
        check_enumeration_bound(work, "elementary abelian rank product")

    def search(depth, span, pool):
        nonlocal best
        best = max(best, depth)
        for idx, x in enumerate(pool):
            if depth + len(pool) - idx <= best:
                return
            # the products stop at the first one in S (<S, x> is not S x <x>)
            # or, for a prime ell, below x (off the canonical chain)
            grown = list(itertools.takewhile(
                lambda y: y not in span and (not prime or y >= x),
                (rep[group.mult(s, xk)] for xk in powers[x] for s in span)))
            full = len(span) * (ell - 1)
            charge(min(len(grown) + 1, full))
            if len(grown) < full:
                continue
            if x not in commuting:
                charge(2 * len(elems))
                commuting[x] = {y for y in elems
                                if rep[group.mult(x, y)] == rep[group.mult(y, x)]}
            new_span = span.union(grown)
            search(depth + 1, new_span,
                   [y for y in pool[idx + 1:]
                    if y in commuting[x] and y not in new_span])

    search(0, frozenset({one}), elems)
    return best
