"""Exact dense linear algebra over any FieldSpec.

Row reduction, incremental echelon bases, kernels, characteristic
polynomials, joint eigenspaces, intertwiner spaces (commutants are the
A = B case) and module spinning.  Apart from the growing EchelonBasis,
everything is a pure function of immutable values; Subspaces are
canonicalized by their reduced row echelon basis, so two subspaces are
equal iff their rref bases agree.
"""

from __future__ import annotations

import bisect

from .errors import FieldError, LinalgError
from .fields import FieldElement, rational_root_candidates
from .poly import Polynomial


class Matrix:
    """Immutable matrix with FieldElement entries (row-major tuples)."""

    __slots__ = ("spec", "rows", "cols", "entries", "_hash")

    def __init__(self, spec, entries):
        entries = tuple(tuple(row) for row in entries)
        self.spec = spec
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix rows")
        self.entries = entries
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(spec, rows):
        out = []
        for row in rows:
            out.append([c if isinstance(c, FieldElement) else spec.from_int(c)
                        for c in row])
        return Matrix(spec, out)

    @staticmethod
    def identity(spec, n):
        one, zero = spec.one(), spec.zero()
        return Matrix(spec, [[one if i == j else zero for j in range(n)]
                             for i in range(n)])

    @staticmethod
    def zero(spec, rows, cols):
        z = spec.zero()
        return Matrix(spec, [[z] * cols for _ in range(rows)])

    @staticmethod
    def scalar(spec, n, c):
        zero = spec.zero()
        return Matrix(spec, [[c if i == j else zero for j in range(n)]
                             for i in range(n)])

    @staticmethod
    def diagonal(spec, diag):
        zero = spec.zero()
        n = len(diag)
        return Matrix(spec, [[diag[i] if i == j else zero for j in range(n)]
                             for i in range(n)])

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.spec == other.spec
                and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.entries))
        return self._hash

    def __repr__(self):
        body = "; ".join(", ".join(c.render() for c in row) for row in self.entries)
        return f"Matrix[{body}]"

    def key(self):
        """Canonical hashable identity used for group-element hashing."""
        return self.entries

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if self.spec != other.spec:
            raise LinalgError("field spec mismatch")

    def __add__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in addition")
        return Matrix(self.spec, [[a + b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in subtraction")
        return Matrix(self.spec, [[a - b for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.spec, [[-a for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Matrix(self.spec, [[a * other for a in row] for row in self.entries])
        self._check_same(other)
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in product")
        bt = list(zip(*other.entries))
        out = []
        for row in self.entries:
            new_row = []
            for col in bt:
                acc = None
                for a, b in zip(row, col):
                    term = a * b
                    acc = term if acc is None else acc + term
                new_row.append(acc if acc is not None else self.spec.zero())
            out.append(new_row)
        return Matrix(self.spec, out)

    def __pow__(self, e):
        if self.rows != self.cols:
            raise LinalgError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = Matrix.identity(self.spec, self.rows)
        base = self
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def apply(self, vec):
        """Matrix times a column vector (tuple of FieldElements)."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        out = []
        for row in self.entries:
            acc = self.spec.zero()
            for a, x in zip(row, vec):
                acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def transpose(self):
        return Matrix(self.spec, list(zip(*self.entries)))

    def trace(self):
        if self.rows != self.cols:
            raise LinalgError("trace of a non-square matrix")
        acc = self.spec.zero()
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_scalar(self):
        if self.rows != self.cols:
            return False
        d = self.entries[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                want = d if i == j else None
                if want is None:
                    if not self.entries[i][j].is_zero():
                        return False
                elif self.entries[i][j] != want:
                    return False
        return True

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """(rref Matrix, pivot column list).

        Gauss-Jordan elimination on integer rows (the FieldSpec row
        primitives), fraction-free: the pivot row is scaled to an integer
        pivot D, every other row becomes D * row - F * pivot row and is
        divided by its integer content.  The pivot entry of pivot row k
        stays the positive integer dens[k]; FieldElements are built once,
        from row / dens[k].
        """
        spec = self.spec
        is_zero, combine, primitive = (spec._is_zero, spec._row_combine,
                                       spec._row_primitive)
        m, n = self.rows, self.cols
        rows = [spec._int_row([c.rep for c in row])[0] for row in self.entries]
        pivots, dens = [], []
        r = 0
        for c in range(n):
            if r == m:
                break
            pivot_row = next((i for i in range(r, m) if not is_zero(rows[i][c])), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            A, D = spec._integral_inverse(rows[r][c])
            pivot, g = primitive(spec._row_scale(A, rows[r]))
            D //= g
            rows[r] = pivot
            for i in range(m):
                f = rows[i][c]
                if i != r and not is_zero(f):
                    rows[i], g = primitive(combine(D, rows[i], f, pivot))
                    if i < r:
                        dens[i] = D * dens[i] // g
            pivots.append(c)
            dens.append(D)
            r += 1
        zero_row = [spec.zero()] * n
        out = [[FieldElement(spec, x) for x in spec._reps_of_int_row(row, d)]
               for row, d in zip(rows, dens)]
        return Matrix(spec, out + [zero_row] * (m - r)), pivots

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        rows = [list(r) for r in self.entries]
        n = self.rows
        det = self.spec.one()
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if not rows[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.spec.zero()
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = rows[c][c].inverse()
            for i in range(c + 1, n):
                if not rows[i][c].is_zero():
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return det

    def is_invertible(self):
        return self.rows == self.cols and not self.det().is_zero()

    def inverse(self):
        if self.rows != self.cols:
            raise LinalgError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(r) + list(Matrix.identity(self.spec, n).entries[i])
               for i, r in enumerate(self.entries)]
        red, pivots = Matrix(self.spec, aug).rref()
        if pivots[:n] != list(range(n)):
            raise LinalgError("matrix is singular")
        return Matrix(self.spec, [row[n:] for row in red.entries])


class Subspace:
    """Subspace of k^n canonically represented by its rref basis rows."""

    __slots__ = ("spec", "ambient", "basis")

    def __init__(self, spec, ambient, vectors):
        self.spec = spec
        self.ambient = ambient
        if vectors:
            red, pivots = Matrix(spec, vectors).rref()
            self.basis = tuple(red.entries[: len(pivots)])
        else:
            self.basis = ()

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.spec == other.spec
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.spec, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def contains(self, vec):
        return not any(EchelonBasis(self.basis).reduce(vec))


class EchelonBasis:
    """Incrementally built basis in fully reduced row echelon form.

    Rows are normalized (pivot entry 1), reduced against each other and kept
    in pivot order, so at every step they equal the rref basis of their span.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows=()):
        """Start from rows that are already fully reduced, in pivot order."""
        self.rows = [list(row) for row in rows]
        self.pivots = [next(i for i, c in enumerate(row) if not c.is_zero())
                       for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def reduce(self, vec):
        """vec minus its components along the pivots (all zero iff in the span)."""
        vec = list(vec)
        for lead, row in zip(self.pivots, self.rows):
            f = vec[lead]
            if not f.is_zero():
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def insert(self, vec):
        """Add vec to the span; the new normalized row, or None if already in it."""
        residue = self.reduce(vec)
        lead = next((i for i, c in enumerate(residue) if not c.is_zero()), None)
        if lead is None:
            return None
        inv = residue[lead].inverse()
        normalized = [c * inv for c in residue]
        for k, row in enumerate(self.rows):
            f = row[lead]
            if not f.is_zero():
                self.rows[k] = [a - f * b for a, b in zip(row, normalized)]
        at = bisect.bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.rows.insert(at, normalized)
        return normalized


def combine_rows(coefficients, rows):
    """The vectors sum_i c_i rows[i], one per coefficient tuple c.

    Only the nonzero entries of each row are visited.
    """
    zero = rows[0][0].spec.zero()
    support = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
               for row in rows]
    out = []
    for coeffs in coefficients:
        vec = [zero] * len(rows[0])
        for c, entries in zip(coeffs, support):
            if not c.is_zero():
                for j, b in entries:
                    vec[j] = vec[j] + c * b
        out.append(vec)
    return out


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0}, rref-canonical."""
    red, pivots = m.rref()
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    vectors = []
    zero, one = m.spec.zero(), m.spec.one()
    for f in free:
        v = [zero] * n
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red.entries[r][f]
        vectors.append(v)
    return Subspace(m.spec, n, vectors)


def char_poly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - m) as a univariate Polynomial.

    Faddeev-LeVerrier in characteristic 0 (divides only by integers);
    memoized cofactor expansion of det(xI - m) in positive characteristic.
    """
    if m.rows != m.cols:
        raise LinalgError("characteristic polynomial of a non-square matrix")
    n = m.rows
    spec = m.spec
    if spec.characteristic() == 0:
        coeffs = [spec.one()]  # x^n coefficient
        mk = m
        ident = Matrix.identity(spec, n)
        ck = None
        for k in range(1, n + 1):
            if k > 1:
                mk = m * (mk + ident * ck)
            ck = -(mk.trace()) / spec.from_int(k)
            coeffs.append(ck)
        terms = {}
        for k, c in enumerate(coeffs):
            if not c.is_zero():
                terms[(n - k,)] = c
        return Polynomial(spec, 1, terms)
    # positive characteristic: expand det(xI - m) over k[x]
    x = Polynomial.variable(spec, 1, 0)
    entries = [[Polynomial.constant(spec, 1, 1).scale(-m.entries[i][j])
                for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = entries[i][i] + x
    return _poly_det(entries, spec)


def _poly_det(entries, spec):
    n = len(entries)
    cache = {}

    def minor(row, colmask):
        if row == n:
            return Polynomial.constant(spec, 1, 1)
        key = colmask
        if key in cache.get(row, {}):
            return cache[row][key]
        acc = Polynomial.zero(spec, 1)
        sign = 1
        for j in range(n):
            if colmask & (1 << j):
                e = entries[row][j]
                if e:
                    sub = minor(row + 1, colmask & ~(1 << j))
                    acc = acc + (sub * e if sign > 0 else -(sub * e))
                sign = -sign
        cache.setdefault(row, {})[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


def eval_poly_at_matrix(poly: Polynomial, m: Matrix) -> Matrix:
    """Horner evaluation of a univariate polynomial at a square matrix."""
    n = m.rows
    deg = poly.total_degree()
    coeffs = [poly.terms.get((k,), m.spec.zero()) for k in range(deg + 1)]
    result = Matrix.zero(m.spec, n, n)
    for c in reversed(coeffs):
        result = result * m + Matrix.scalar(m.spec, n, c)
    return result


def eigenspace(m: Matrix, lam: FieldElement) -> Subspace:
    if m.rows != m.cols:
        raise LinalgError("eigenspace of a non-square matrix")
    return kernel(m - Matrix.scalar(m.spec, m.rows, lam))


def eigenvalue_candidates(m: Matrix):
    """Eigenvalues of m that lie in the declared field.

    Discovery is limited on purpose: rational-root trial when the char poly
    has rational coefficients, powers +-z^k of the field generator (roots of
    unity), and full enumeration of small finite fields.  No automatic field
    extension happens here.
    """
    spec = m.spec
    cp = char_poly(m)
    seen = set()
    out = []

    def consider(lam):
        if lam.rep in seen:
            return
        seen.add(lam.rep)
        if cp.evaluate((lam,)).is_zero():
            out.append(lam)

    if spec.kind == "finite" and spec.size() <= 4096:
        for lam in spec.elements():
            consider(lam)
        return out
    # rational-root trial (needs rational coefficients)
    rational_coeffs = True
    coeffs = {}
    for (k,), c in cp.terms.items():
        try:
            coeffs[k] = c.as_rational()
        except FieldError:
            rational_coeffs = False
            break
    if rational_coeffs and coeffs:
        from fractions import Fraction
        deg = max(coeffs)
        lead = coeffs.get(deg, Fraction(0))
        const = coeffs.get(0, Fraction(0))
        consider(spec.zero())
        if const != 0:
            num = abs(const.numerator * (lead.denominator if lead else 1))
            den = abs(lead.numerator * const.denominator) if lead else 1
            for root in rational_root_candidates(num, den):
                consider(spec.from_fraction(root))
    # roots of unity reachable as +-z^k
    if spec.kind != "rational":
        g = spec.gen()
        power = spec.one()
        cap = 4 * spec.degree + 4
        for _ in range(cap):
            consider(power)
            consider(-power)
            power = power * g
            if power == spec.one():
                break
    else:
        consider(spec.from_int(1))
        consider(spec.from_int(-1))
    return out


def intertwiner_space(As, Bs):
    """Basis of {T : T A_i = B_i T for all i}: the rref kernel basis, row-major."""
    if not As or len(As) != len(Bs):
        raise LinalgError("intertwiner space needs matching nonempty matrix lists")
    spec, n = As[0].spec, As[0].rows
    for m in list(As) + list(Bs):
        if m.rows != m.cols or m.rows != n or m.spec != spec:
            raise LinalgError("intertwiner space needs square matrices of one size/field")
    rows = []
    zero = spec.zero()
    for a, b in zip(As, Bs):
        # (TA - BT)_{ij} linear in T_{rs}: coeff = A_{sj}[r==i] - B_{ir}[s==j]
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for s in range(n):
                    row[i * n + s] = a.entries[s][j]
                for r in range(n):
                    row[r * n + j] = row[r * n + j] - b.entries[i][r]
                rows.append(row)
    return [Matrix(spec, [list(v[i * n:(i + 1) * n]) for i in range(n)])
            for v in kernel(Matrix(spec, rows)).basis]


def commutant_basis(mats, n=None, spec=None):
    """Basis of the algebra {X : X A_i = A_i X for all i}.

    For an empty list, `n` and `spec` give the ambient matrix size.
    """
    if mats:
        return intertwiner_space(mats, mats)
    if n is None or spec is None:
        raise LinalgError("empty matrix list needs explicit n and spec")
    return [_unit_matrix(spec, n, r, s) for r in range(n) for s in range(n)]


def _unit_matrix(spec, n, r, s):
    zero, one = spec.zero(), spec.one()
    return Matrix(spec, [[one if (i, j) == (r, s) else zero for j in range(n)]
                         for i in range(n)])


def spin_submodule(mats, v) -> Subspace:
    """Smallest subspace containing v and stable under every matrix in mats."""
    if all(c.is_zero() for c in v):
        raise LinalgError("spin_submodule needs a nonzero vector")
    spec = mats[0].spec if mats else v[0].spec
    span = EchelonBasis()
    span.insert(v)
    queue = [tuple(v)]
    while queue:
        w = queue.pop()
        for m in mats:
            img = m.apply(w)
            if span.insert(img) is not None:
                queue.append(img)
    return Subspace(spec, len(v), span.rows)


def joint_eigenspaces(mats):
    """rref bases of the joint eigenspaces of mats over the declared field.

    k^n is refined one matrix at a time: every piece is cut by the
    eigenspaces of the next matrix for its eigenvalues in the field (a scalar
    matrix cuts nothing).  Pieces for distinct eigenvalue tuples are
    independent, so their dimensions sum to n iff the matrices share an
    eigenbasis over the field.
    """
    if not mats:
        raise LinalgError("need at least one matrix")
    spec = mats[0].spec
    n = mats[0].rows
    pieces = [Matrix.identity(spec, n).entries]
    for m in mats:
        if m.is_scalar():
            continue
        lams = eigenvalue_candidates(m)
        refined = []
        for piece in pieces:
            bt = Matrix(spec, piece).transpose()
            for lam in lams:
                # {w in span(piece) : (m - lam) w = 0} via coefficient kernel
                ker = kernel((m - Matrix.scalar(spec, n, lam)) * bt)
                if ker.dim:
                    refined.append(Subspace(spec, n, combine_rows(ker.basis, piece)).basis)
        pieces = refined
        if not pieces:
            break
    return pieces


def is_split_diagonalizable(mats):
    """True iff mats commute and share an eigenbasis over the declared field."""
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            if a * b != b * a:
                return False
    return sum(len(piece) for piece in joint_eigenspaces(mats)) == mats[0].rows


def simultaneous_eigenvectors(mats):
    """All lines that are eigenvectors of every matrix, over the declared field.

    Returns normalized basis vectors of the 1-dimensional joint pieces; raises
    LinalgError if a joint piece of dimension >= 2 remains (infinitely many
    common eigenlines, e.g. for sets of scalar matrices).
    """
    out = []
    for basis in joint_eigenspaces(mats):
        if len(basis) >= 2:
            raise LinalgError("common eigenvector family is positive-dimensional")
        out.append(tuple(basis[0]))
    return out
