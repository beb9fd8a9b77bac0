"""Finite matrix groups: closure, structure queries, automorphisms, characters.

Only constant finite groups of k-points are modeled (no scheme structure).
A FiniteMatrixGroup is immutable after closure; element indices follow the
deterministic breadth-first closure order, which is part of the contract.
"""

from __future__ import annotations

import operator

from .errors import (BoundExceededError, CertificateError, ClosureCapError,
                     InvForgeError, LinalgError, ModularityError)
from .fields import parse_element, parse_field_spec
from .linalg import Matrix, commutant_basis, is_split_diagonalizable
from . import tables

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_AUT_BOUND = 400


class FiniteMatrixGroup:
    """Closed set of invertible matrices with indexed multiplication.

    Products are read off the closure's Cayley graph (`_cayley_closure`),
    never recomputed from matrices.
    """

    __slots__ = ("spec", "n", "elements", "generator_indices", "name",
                 "_index", "_right", "_parent", "_inv", "_orders", "_table",
                 "_cache")

    def __init__(self, spec, n, elements, generator_indices, right, parent,
                 name=None):
        self.spec = spec
        self.n = n
        self.elements = tuple(elements)
        self.generator_indices = tuple(generator_indices)
        self.name = name
        self._index = {m.key(): i for i, m in enumerate(self.elements)}
        self._right = right
        self._parent = parent
        self._inv = [None] * len(self.elements)
        self._orders = [None] * len(self.elements)
        self._table = None
        self._cache = {}

    # -- construction ----------------------------------------------------

    @staticmethod
    def close(gens, cap=DEFAULT_CLOSURE_CAP, name=None):
        """Breadth-first closure of invertible generators under products."""
        if not gens:
            raise InvForgeError("need at least one generator")
        spec = gens[0].spec
        n = gens[0].rows
        for g in gens:
            if g.spec != spec or g.rows != n or g.cols != n:
                raise LinalgError("generators must be square, one size, one field")
            if not g.is_invertible():
                raise LinalgError("singular generator")
        elements, right, parent = _cayley_closure(
            Matrix.identity(spec, n), gens, operator.mul, Matrix.key, cap)
        # right[0][k] is the index of 1 * gens[k]
        return FiniteMatrixGroup(spec, n, elements, right[0], right, parent,
                                 name=name)

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        nm = self.name or "group"
        return f"<{nm}: order {self.order} in GL_{self.n}({self.spec.describe()})>"

    @property
    def identity_index(self):
        return 0

    def generators(self):
        return [self.elements[i] for i in self.generator_indices]

    def index_of(self, matrix):
        key = matrix.key()
        if key not in self._index:
            raise InvForgeError("matrix is not an element of the group")
        return self._index[key]

    def mult(self, i, j):
        """Index of elements[i] * elements[j]: j's breadth-first word from i."""
        if self._table is not None:
            return self._table.table[i][j]
        word = []
        while j:
            j, k = self._parent[j]
            word.append(k)
        right = self._right
        for k in reversed(word):
            i = right[i][k]
        return i

    def inverse(self, i):
        if self._inv[i] is None:
            if i == 0:
                self._inv[i] = 0
            else:
                y = i  # walk the powers of i up to i^(ord-1)
                while self.mult(i, y) != 0:
                    y = self.mult(y, i)
                self._inv[i] = y
        return self._inv[i]

    def element_order(self, i):
        if self._orders[i] is None:
            k, x = 1, i
            while x != 0:
                x = self.mult(x, i)
                k += 1
            self._orders[i] = k
        return self._orders[i]

    def table_group(self):
        """Full multiplication table as a TableGroup (same element indexing).

        Row i follows the closure order: with parent[j] = (p, k),
        i * j = (i * p) * gens[k] = right[row[p]][k], and p < j.
        """
        if self._table is None:
            right, edges = self._right, self._parent[1:]
            rows = []
            for i in range(self.order):
                row = [i]
                for p, k in edges:
                    row.append(right[row[p]][k])
                rows.append(row)
            self._table = tables.TableGroup(rows, name=self.name)
        return self._table

    def center_indices(self):
        gens = self.generator_indices
        return [i for i in range(self.order)
                if all(self.mult(i, g) == self.mult(g, i) for g in gens)]

    def scalar_indices(self):
        return [i for i in range(self.order) if self.elements[i].is_scalar()]

    def conjugacy_classes(self):
        """Classes as sorted index tuples (see TableGroup.conjugacy_classes)."""
        return self.table_group().conjugacy_classes()

    def subgroup_closure(self, indices):
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in indices:
                y = self.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def subgroup(self, indices, name=None):
        """Subgroup generated by `indices`, elements in the order `close`
        gives for the same generator matrices, found without matrix products."""
        gens = list(indices) or [0]
        members, right, parent = _cayley_closure(
            0, gens, self.mult, lambda x: x, self.order)
        return FiniteMatrixGroup(self.spec, self.n,
                                 [self.elements[x] for x in members],
                                 right[0], right, parent, name=name)


def _cayley_closure(one, gens, times, key, cap):
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def close_group(gens, cap=DEFAULT_CLOSURE_CAP, name=None):
    return FiniteMatrixGroup.close(gens, cap=cap, name=name)


def pseudo_reflections(g: FiniteMatrixGroup):
    """Indices of elements (not 1) fixing a hyperplane pointwise: rank(m-I) = 1."""
    ident = Matrix.identity(g.spec, g.n)
    out = []
    for i, m in enumerate(g.elements):
        if i == g.identity_index:
            continue
        if (m - ident).rank() == 1:
            out.append(i)
    return out


def reflection_subgroup(g: FiniteMatrixGroup):
    refl = pseudo_reflections(g)
    if not refl:
        return FiniteMatrixGroup.close([Matrix.identity(g.spec, g.n)],
                                       cap=2, name="trivial")
    sub = g.subgroup(refl, name="reflection subgroup")
    # normality: conjugates of pseudo-reflections are pseudo-reflections
    members = g.subgroup_closure(refl)
    for w in refl:
        for gi in g.generator_indices:
            if g.mult(g.mult(gi, w), g.inverse(gi)) not in members:
                raise CertificateError("reflection subgroup not normal")
    return sub


def is_absolutely_irreducible(g: FiniteMatrixGroup):
    return len(commutant_basis(g.generators())) == 1


def is_diagonalizable_over_k(g: FiniteMatrixGroup):
    """True iff G is abelian with a full common eigenbasis over the declared field."""
    return is_split_diagonalizable(g.generators())


def elementary_abelian_rank(g: FiniteMatrixGroup, ell):
    """Max r with (Z/ell)^r <= G; 0 if no element of order ell."""
    return tables.elementary_abelian_rank(g.table_group(), ell)


def automorphism_group(g: FiniteMatrixGroup, bound=DEFAULT_AUT_BOUND):
    """All abstract automorphisms as GroupAutomorphism objects (sorted)."""
    key = ("automorphism_group", bound)
    if key not in g._cache:
        if g.order > bound:
            raise BoundExceededError(
                f"automorphism bound {bound} exceeded (|G| = {g.order})")
        tg = g.table_group()
        perms = tables.automorphisms(tg, bound=bound)
        inner = tables.inner_automorphisms(tg)
        g._cache[key] = [GroupAutomorphism(p, p in inner) for p in perms]
    return g._cache[key]


class GroupAutomorphism:
    """Automorphism as a permutation of element indices."""

    __slots__ = ("perm", "inner")

    def __init__(self, perm, inner):
        self.perm = tuple(perm)
        self.inner = inner

    def __call__(self, i):
        return self.perm[i]

    def __eq__(self, other):
        return isinstance(other, GroupAutomorphism) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        tag = "inner" if self.inner else "outer"
        return f"GroupAutomorphism({tag}, {self.perm})"

    def compose(self, other):
        """self after other (apply other first)."""
        return tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))


def outer_classes(g: FiniteMatrixGroup, bound=DEFAULT_AUT_BOUND):
    """Coset representatives of Aut(G)/Inn(G), identity coset first.

    Each class is represented by its lexicographically least permutation.
    """
    auts = automorphism_group(g, bound=bound)
    tg = g.table_group()
    inner = sorted(tables.inner_automorphisms(tg))
    seen = set()
    reps = []
    for a in auts:
        if a.perm in seen:
            continue
        coset = {tuple(a.perm[i] for i in inn) for inn in inner}
        rep = min(coset)
        for p in coset:
            seen.add(p)
        reps.append(rep)
    reps.sort()
    identity_perm = tuple(range(g.order))
    id_coset_rep = None
    for rep in reps:
        coset = {tuple(rep[i] for i in inn) for inn in inner}
        if identity_perm in coset:
            id_coset_rep = rep
            break
    ordered = [id_coset_rep] + [r for r in reps if r != id_coset_rep]
    return [GroupAutomorphism(r, r == id_coset_rep) for r in ordered]


def natural_character(g: FiniteMatrixGroup):
    """chi(x) = trace(x) for every element index."""
    return tuple(m.trace() for m in g.elements)


def character_inner_product(g: FiniteMatrixGroup, chi, psi):
    """<chi, psi> = (1/|G|) sum chi(x) conj(psi(x)), char 0 only.

    Conjugation uses the cyclotomic automorphism z -> z^(n-1) when available
    and psi(x^{-1}) otherwise (equal for characters of representations).
    """
    if g.spec.characteristic() != 0:
        raise ModularityError("character inner product needs characteristic 0")
    total = g.spec.zero()
    use_conj = g.spec.is_cyclotomic()
    for i in range(g.order):
        if use_conj:
            total = total + chi[i] * psi[i].conjugate()
        else:
            total = total + chi[i] * psi[g.inverse(i)]
    return total / g.spec.from_int(g.order)


def natural_character_self_product(g: FiniteMatrixGroup):
    chi = natural_character(g)
    return character_inner_product(g, chi, chi)


# ---------------------------------------------------------------------------
# group definition files: UTF-8 key/value lines
#   field = cyclotomic(20) | rational | finite(P[, MOD]) | number_field(POLY)
#   dim = N
#   name = label            (optional)
#   cap = N                 (optional)
#   generator = e11, e12, ..., eNN   (row-major entry expressions; repeatable)
# ---------------------------------------------------------------------------

def parse_group_text(text, close=True):
    fields = {"generator": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvForgeError(f"group file line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key == "generator":
            fields["generator"].append(value)
        else:
            fields[key] = value
    if "field" not in fields or "dim" not in fields:
        raise InvForgeError("group file needs 'field' and 'dim'")
    spec = parse_field_spec(fields["field"])
    n = int(fields["dim"])
    gens = []
    for gtext in fields["generator"]:
        entries = [e.strip() for e in gtext.split(",")]
        if len(entries) != n * n:
            raise InvForgeError(
                f"generator needs {n * n} entries, got {len(entries)}")
        values = [parse_element(e, spec) for e in entries]
        gens.append(Matrix(spec, [values[i * n:(i + 1) * n] for i in range(n)]))
    name = fields.get("name")
    cap = int(fields.get("cap", DEFAULT_CLOSURE_CAP))
    if not close:
        return spec, n, gens, name, cap
    return FiniteMatrixGroup.close(gens, cap=cap, name=name)


def load_group_file(path, close=True):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), close=close)
