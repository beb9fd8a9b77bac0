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
import operator

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
        return Matrix.scalar(spec, n, spec.one())

    @staticmethod
    def zero(spec, rows, cols):
        z = spec.zero()
        return Matrix(spec, [[z] * cols for _ in range(rows)])

    @staticmethod
    def scalar(spec, n, c):
        return Matrix.diagonal(spec, [c] * n)

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
            other = Matrix.scalar(other.spec, self.cols, other)
        self._check_same(other)
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in product")
        return Matrix(self.spec, combine_rows(self.spec, self.entries, other.entries))

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
        """Matrix times a column vector (tuple of FieldElements): the
        combination sum_j vec[j] * (column j)."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        if not self.cols:  # no columns to combine: the zero vector of k^rows
            return (self.spec.zero(),) * self.rows
        return tuple(combine_rows(self.spec, [vec], list(zip(*self.entries)))[0])

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
        """(rref Matrix, pivot column list): the rows folded into an EchelonBasis."""
        spec = self.spec
        span = EchelonBasis(spec)
        for row in self.entries:
            if len(span) == self.cols:
                break
            span._insert(spec._int_row([c.rep for c in row])[0])
        zero_row = [spec.zero()] * self.cols
        return (Matrix(spec, span.rows + [zero_row] * (self.rows - len(span))),
                span.pivots)

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        last = _berkowitz(self)[-1]
        return -last if self.rows % 2 else last

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
        return Subspace(self.spec, self.ambient, self.basis + (vec,)).dim == self.dim


class EchelonBasis:
    """Incrementally built basis in fully reduced row echelon form.

    Gauss-Jordan elimination on integer rows (the FieldSpec row
    primitives), fraction-free.  Stored row k is ints[k] / dens[k]: its
    pivot entry is the positive integer dens[k], it is zero at every other
    pivot, and rows are kept in pivot order, so at every step they are the
    rref basis of their span.  A new row is reduced by D * row - F * pivot
    row against each stored row and divided by its integer content; the
    stored rows are then reduced by it the same way.
    """

    __slots__ = ("spec", "ints", "dens", "pivots")

    def __init__(self, spec):
        self.spec = spec
        self.ints, self.dens, self.pivots = [], [], []

    def __len__(self):
        return len(self.ints)

    @property
    def rows(self):
        """The basis rows as FieldElement lists (pivot entry 1)."""
        spec = self.spec
        return [[FieldElement(spec, x) for x in spec._reps_of_int_row(row, d)]
                for row, d in zip(self.ints, self.dens)]

    def insert(self, vec):
        """Add vec to the span; the new normalized row, or None if already in it."""
        spec = self.spec
        k = self._insert(spec._int_row([c.rep for c in vec])[0])
        if k is None:
            return None
        return [FieldElement(spec, x)
                for x in spec._reps_of_int_row(self.ints[k], self.dens[k])]

    def _insert(self, row):
        """Fold an integer row into the basis; its index, or None if in the span."""
        spec = self.spec
        is_zero, combine, primitive = (spec._int_is_zero, spec._row_combine,
                                       spec._row_primitive)
        for lead, pivot, d in zip(self.pivots, self.ints, self.dens):
            f = row[lead]
            if not is_zero(f):
                row = primitive(combine(d, row, f, pivot))[0]
        lead = next((i for i, x in enumerate(row) if not is_zero(x)), None)
        if lead is None:
            return None
        A, D = spec._integral_inverse(row[lead])
        row, g = primitive(spec._row_scale(A, row))
        D //= g
        for k, other in enumerate(self.ints):
            f = other[lead]
            if not is_zero(f):
                self.ints[k], g = primitive(combine(D, other, f, row))
                self.dens[k] = D * self.dens[k] // g
        at = bisect.bisect(self.pivots, lead)
        self.pivots.insert(at, lead)
        self.ints.insert(at, row)
        self.dens.insert(at, D)
        return at


def combine_rows(spec, coefficients, rows):
    """The vectors sum_i c_i rows[i], one per coefficient tuple c.

    On integer rows: the rows are converted once over one denominator and
    the coefficients once over another, only nonzero entries are visited,
    and FieldElements are built at the end.
    """
    scale, add = spec._row_scale, spec._int_add
    width = len(rows[0]) if rows else 0
    rows, den = _sparse_int_rows(spec, rows)
    coefficients, c_den = _sparse_int_rows(spec, coefficients)
    zero, den = spec.zero(), den * c_den
    out = []
    for positions, c_ints in coefficients:
        acc = {}
        for i, c in zip(positions, c_ints):
            cols, entries = rows[i]
            for j, x in zip(cols, scale(c, entries)):
                acc[j] = add(acc[j], x) if j in acc else x
        vec = [zero] * width
        for j, r in zip(acc, spec._reps_of_int_row(list(acc.values()), den)):
            vec[j] = FieldElement(spec, r)
        out.append(vec)
    return out


def _sparse_int_rows(spec, rows):
    """([(nonzero positions, their integer entries)] per row, den): the
    nonzero entries of rows of FieldElements over one denominator."""
    support = [[j for j, b in enumerate(row) if not b.is_zero()] for row in rows]
    ints, den = spec._int_row([row[j].rep for row, cols in zip(rows, support)
                               for j in cols])
    out, k = [], 0
    for cols in support:
        out.append((cols, ints[k:k + len(cols)]))
        k += len(cols)
    return out, den


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
    """Monic characteristic polynomial det(xI - m) as a univariate Polynomial."""
    n = m.rows
    return Polynomial(m.spec, 1, {(n - k,): c for k, c in enumerate(_berkowitz(m))})


def _berkowitz(m):
    """Coefficients [1, c_1, .., c_n] of det(xI - m), highest degree first.

    Berkowitz's division-free recursion, valid in every characteristic.
    For the leading principal submatrix A = [[M, C], [R, a]], the Schur
    complement of xI - M gives det(xI - A) = det(xI - M) *
    (x - a - sum_k R M^k C x^(-k-1)); the product is a polynomial, and its
    coefficients need only k < dim M.
    """
    if m.rows != m.cols:
        raise LinalgError("characteristic polynomial of a non-square matrix")
    a, zero, one = m.entries, m.spec.zero(), m.spec.one()
    coeffs = [one]
    for r in range(m.rows):
        M, R = [row[:r] for row in a[:r]], a[r][:r]
        v = [row[r] for row in a[:r]]  # C, then M^k C
        col = [one, -a[r][r]]
        for k in range(r):
            if k:
                v = [sum(map(operator.mul, row, v), zero) for row in M]
            col.append(-sum(map(operator.mul, R, v), zero))
        coeffs = [sum((col[i - j] * coeffs[j] for j in range(min(i, r) + 1)), zero)
                  for i in range(r + 2)]
    return coeffs


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
        lead, const = coeffs[max(coeffs)], coeffs.get(0, 0)
        consider(spec.zero())
        if const != 0:
            num = abs(const.numerator * lead.denominator)
            den = abs(lead.numerator * const.denominator)
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
    span = EchelonBasis(spec)
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
                    # rref kernel rows times rref rows are rref already
                    # (the argument is at invariants._kernel_cut)
                    refined.append(combine_rows(spec, ker.basis, piece))
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
