"""Sparse multivariate polynomials with exact field coefficients.

Monomials are exponent tuples; the canonical term order is descending
lexicographic on exponent tuples (x1 > x2 > ...), which is also the order
used for rendering, monomial bases and single-divisor division.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial

from .errors import EntryParseError, FieldError
from .fields import (FieldElement, _Tokens, _join_terms, _parse_atom,
                     _parse_expr, _power)


class Polynomial:
    """Immutable sparse polynomial: spec, variable count, {exponents: coeff}."""

    __slots__ = ("spec", "nvars", "terms", "_hash")

    def __init__(self, spec, nvars, terms):
        clean = {e: c for e, c in terms.items() if not c.is_zero()}
        self.spec = spec
        self.nvars = nvars
        self.terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(spec, nvars):
        return Polynomial(spec, nvars, {})

    @staticmethod
    def constant(spec, nvars, value):
        if isinstance(value, (int, Fraction)):
            value = spec.from_fraction(Fraction(value))
        return Polynomial(spec, nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(spec, nvars, i):
        return Polynomial.monomial(spec, nvars, [int(j == i) for j in range(nvars)])

    @staticmethod
    def linear(spec, coeffs):
        """The linear form sum_i coeffs[i] * x_i in len(coeffs) variables."""
        n = len(coeffs)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return Polynomial(spec, n, dict(zip(units, coeffs)))

    @staticmethod
    def monomial(spec, nvars, expo, coeff=None):
        coeff = spec.one() if coeff is None else coeff
        return Polynomial(spec, nvars, {tuple(expo): coeff})

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.spec != other.spec or self.nvars != other.nvars:
            raise FieldError("polynomial ring mismatch")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return Polynomial(self.spec, self.nvars, terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Polynomial(self.spec, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        (a, b), _, den = _int_terms(self.spec, [self, other])
        return _poly_of_int_terms(self.spec, self.nvars, _int_mul(self.spec, a, b),
                                  den * den)

    def scale(self, c):
        if c.is_zero():
            return Polynomial.zero(self.spec, self.nvars)
        return Polynomial(self.spec, self.nvars,
                          {e: coef * c for e, coef in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise FieldError("negative polynomial power")
        (base,), one, den = _int_terms(self.spec, [self])
        if k == 0:
            return _poly_of_int_terms(self.spec, self.nvars,
                                      {(0,) * self.nvars: one}, den)
        return _poly_of_int_terms(self.spec, self.nvars,
                                  _power(base, k, partial(_int_mul, self.spec)),
                                  den ** k)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.spec == other.spec
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spec, self.nvars,
                               tuple(sorted(self.terms.items(), reverse=True))))
        return self._hash

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        """Lowest total degree of a nonzero term (the multiplicity at 0)."""
        if not self.terms:
            raise FieldError("zero polynomial has no minimal degree")
        return min(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def leading(self):
        """(exponent, coeff) of the leading term in descending lex order."""
        if not self.terms:
            raise FieldError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- evaluation / substitution -----------------------------------------

    def evaluate(self, point):
        """Value at a tuple of FieldElements: compose into the 0-variable ring."""
        images = [Polynomial.constant(self.spec, 0, p) for p in point]
        return self.compose(images).terms.get((), self.spec.zero())

    def compose(self, images):
        """Substitute images[i] for variable i; images share one ring.

        On integer terms over one denominator den: the term c * x^e maps
        to c * prod images[i]^e[i], over den^(1 + |e|).  Multiplying it
        top - |e| times by `one`, the integer row of 1 (= den / den), for
        the top |e| of any term, puts every term over den^(1 + top).
        """
        if len(images) != self.nvars:
            raise FieldError("compose needs one image per variable")
        if not images:
            return self
        target = images[0]
        for image in images:
            target._check(image)
        if target.spec != self.spec:
            raise FieldError("field spec mismatch")
        spec = self.spec
        (coeffs, *bases), one, den = _int_terms(spec, [self, *images])
        scale, add = spec._row_scale, spec._int_add
        top = max(map(sum, coeffs), default=0)
        powers = [{1: base} for base in bases]
        out = {}
        for e, c in coeffs.items():
            for _ in range(top - sum(e)):
                c, = scale(one, [c])
            prod = None
            for cache, base, a in zip(powers, bases, e):
                if a:
                    if a not in cache:
                        cache[a] = _int_power(spec, base, a)
                    prod = cache[a] if prod is None else _int_mul(spec, prod, cache[a])
            if prod is None:
                terms = [((0,) * target.nvars, c)]
            else:
                terms = zip(prod, scale(c, list(prod.values())))
            for f, x in terms:
                out[f] = add(out[f], x) if f in out else x
        return _poly_of_int_terms(spec, target.nvars, out, den ** (1 + top))

    def translate(self, point):
        """f(x + point): compose with the images x_i + point[i]."""
        return self.compose([Polynomial.variable(self.spec, self.nvars, i)
                             + Polynomial.constant(self.spec, self.nvars, p)
                             for i, p in enumerate(point)])

    def substitute_linear(self, rows):
        """Replace variable i by the linear form rows[i] (list of coefficients)."""
        return self.compose([Polynomial.linear(self.spec, row) for row in rows])

    # -- division ------------------------------------------------------------

    def divmod_single(self, divisor):
        """Division with remainder by a single polynomial (descending lex)."""
        self._check(divisor)
        if divisor.is_zero():
            raise FieldError("polynomial division by zero")
        lead_e, lead_c = divisor.leading()
        lead_c_inv = lead_c.inverse()
        quo = Polynomial.zero(self.spec, self.nvars)
        rem = Polynomial.zero(self.spec, self.nvars)
        cur = self
        while not cur.is_zero():
            e, c = cur.leading()
            if all(a >= b for a, b in zip(e, lead_e)):
                shift = tuple(a - b for a, b in zip(e, lead_e))
                t = Polynomial.monomial(self.spec, self.nvars, shift, c * lead_c_inv)
                quo = quo + t
                cur = cur - t * divisor
            else:
                t = Polynomial.monomial(self.spec, self.nvars, e, c)
                rem = rem + t
                cur = cur - t
        return quo, rem

    def divides(self, multiple):
        """True iff self divides `multiple` exactly."""
        _, rem = multiple.divmod_single(self)
        return rem.is_zero()

    # -- rendering ------------------------------------------------------------

    def render(self, var_names=None):
        names = var_names or default_var_names(self.nvars)
        terms = []
        for e, c in self.sorted_terms():
            monomial = "*".join(names[i] if a == 1 else f"{names[i]}^{a}"
                                for i, a in enumerate(e) if a)
            cstr = c.render()
            if "+" in cstr or " - " in cstr:  # several terms: parenthesized, positive
                terms.append((monomial, f"({cstr})", False))
            else:
                terms.append((monomial, cstr.lstrip("-"), cstr.startswith("-")))
        return _join_terms(terms)

    def __repr__(self):
        return f"<poly {self.render()}>"


# ---------------------------------------------------------------------------
# integer terms: {exponents: integer-row entry} dicts over one denominator
# (the FieldSpec integer-row primitives).  Products and powers run on them;
# FieldElements are built once, by the public call that returns.
# ---------------------------------------------------------------------------

def _int_terms(spec, polys):
    """(dicts, one, den): the terms of polys as integer-row entries over one
    positive integer den, and the integer row of 1 over den."""
    reps = [c.rep for p in polys for c in p.terms.values()]
    ints, den = spec._int_row(reps + [spec.one().rep])
    dicts, k = [], 0
    for p in polys:
        dicts.append(dict(zip(p.terms, ints[k:k + len(p.terms)])))
        k += len(p.terms)
    return dicts, ints[-1], den


def _int_mul(spec, p, q):
    """Product of two integer-term dicts (over den_p * den_q)."""
    scale, add, is_zero = spec._row_scale, spec._int_add, spec._int_is_zero
    q_expos, q_ints = list(q), list(q.values())
    out = {}
    for e1, c1 in p.items():
        for e2, x in zip(q_expos, scale(c1, q_ints)):
            e = tuple(map(operator.add, e1, e2))
            out[e] = add(out[e], x) if e in out else x
    return {e: x for e, x in out.items() if not is_zero(x)}


def _int_power(spec, base, a):
    """base^a (a >= 1) for an integer-term dict over den, over den^a.

    A linear form sum_j c_j x_(v_j) of two or more terms is raised by the
    multinomial theorem: the term of prod_j x_(v_j)^(k_j), |k| = a, is
    a! / (k_1! .. k_m!) * prod_j c_j^(k_j).  Each c_j's powers are taken
    once and shared along the variables in turn, so every output term costs
    one `_row_scale` and an integer scale.  The entries are exact in Z[z']
    (reduced mod p over F_q), so they are those of repeated squaring, which
    every other base keeps.
    """
    if len(base) < 2 or any(sum(e) != 1 for e in base):
        return _power(base, a, partial(_int_mul, spec))
    scale, is_zero = spec._row_scale, spec._int_is_zero
    units, cs = list(base), list(base.values())
    powers = []  # powers[j][i] = c_j^(i + 1)
    for c in cs:
        row = [c]
        for _ in range(a - 1):
            row.append(scale(c, [row[-1]])[0])
        powers.append(row)
    # (exponent, degree left, product so far or None, multinomial so far)
    terms = [((0,) * len(units[0]), a, None, 1)]
    for j, unit in enumerate(units):
        v, last = unit.index(1), j == len(units) - 1
        grown = []
        for e, left, x, count in terms:
            for k in ((left,) if last else range(left, -1, -1)):
                if k:
                    y = powers[j][k - 1]
                    x_k = y if x is None else scale(x, [y])[0]
                    e_k = e[:v] + (k,) + e[v + 1:]
                else:
                    x_k, e_k = x, e
                grown.append((e_k, left - k, x_k, count * math.comb(left, k)))
        terms = grown
    counts, _ = spec._int_row([spec._const(count) for *_, count in terms])
    out = {}
    for (e, _, x, _), n in zip(terms, counts):
        x, = scale(n, [x])
        if not is_zero(x):
            out[e] = x
    return out


def _poly_of_int_terms(spec, nvars, terms, den):
    """The Polynomial of an integer-term dict over den."""
    reps = spec._reps_of_int_row(list(terms.values()), den)
    return Polynomial(spec, nvars,
                      {e: FieldElement(spec, r) for e, r in zip(terms, reps)})


def default_var_names(nvars):
    return tuple(f"x{i + 1}" for i in range(nvars))


# ---------------------------------------------------------------------------
# polynomial parser: terms of entry-grammar coefficients times variable powers,
# joined by + and -.  Accepts x1..xn names plus x,y,z,w aliases for nvars <= 4
# (z stays the field generator symbol only inside coefficient parentheses).
# ---------------------------------------------------------------------------

def parse_polynomial(text, nvars, spec, var_names=None):
    names = list(var_names or default_var_names(nvars))
    aliases = {}
    if var_names is None and nvars <= 4:
        # single-letter conveniences; 'z' stays the field generator when the
        # spec actually has one (extension representations of degree > 1)
        letters = ["x", "y", "z", "w"] if spec.degree == 1 else ["x", "y", "w"]
        for alias, idx in zip(letters, range(nvars)):
            aliases[alias] = idx
    for idx, nm in enumerate(names):
        aliases[nm] = idx
    toks = _PolyTokens(text, aliases)
    poly = _parse_expr(toks, lambda t: _poly_atom(t, nvars, spec))
    toks.skip_ws()
    if toks.pos != len(text):
        raise EntryParseError(f"unexpected character {text[toks.pos]!r}", toks.pos)
    return poly


class _PolyTokens(_Tokens):
    def __init__(self, text, aliases):
        super().__init__(text)
        self.aliases = aliases

    def try_variable(self):
        self.skip_ws()
        best = None
        for name, idx in self.aliases.items():
            if self.text.startswith(name, self.pos):
                if best is None or len(name) > len(best[0]):
                    best = (name, idx)
        if best is None:
            return None
        name, idx = best
        end = self.pos + len(name)
        if end < len(self.text) and self.text[end].isdigit():
            raise EntryParseError(f"unknown variable starting with {name!r}", self.pos)
        self.pos = end
        return idx


def _poly_atom(toks, nvars, spec):
    idx = toks.try_variable()
    if idx is not None:
        return Polynomial.variable(spec, nvars, idx)
    # fall back to a single coefficient atom (int, fraction, bare z);
    # products and sums stay at the polynomial level
    return Polynomial.constant(spec, nvars, 1).scale(_parse_atom(toks, spec))
