"""Exact multivariate polynomial arithmetic over the rationals.

A `Polynomial` stores integer numerators over one denominator: a dict from
packed monomial to nonzero int, and one positive int `den`, reduced so
that the numerators and `den` have gcd 1.  Each stored form is therefore
canonical, which `__eq__` and `__hash__` rely on.  A monomial
x1^e1 x2^e2 ... is packed by Kronecker substitution into the one int
e1 + e2 * 2^16 + e3 * 2^32 + ...: a 16-bit field per variable, variable i
in bits 16 i to 16 i + 15, so embedding in more variables keeps every key.
An exponent stays below 2^15, so the top bit of a field is a guard: the
monomial of a product of two stored terms is the sum of their keys, which
never carries into the next field, and an exponent of 2^15 or more shows
as a guard bit and raises ValueError instead of wrapping.

All arithmetic runs on one integer kernel over {packed monomial: int}
dicts: `add_to` (acc += scale * x^shift * terms), `add_product`
(acc += scale * a * b) and `derivative`, with `add_derivatives` and
`add_products` doing a row of those calls at once.  The `Polynomial`
operators are thin wrappers over it.  The symbolic loops of the geometry modules bring
each table to one common denominator (`table_numerators`), accumulate
their sums of products in place and make one `Polynomial` per finished
entry (`Polynomial.from_numerators`), or keep the numerators, as the
curvature does.  Every result keeps its terms in the order in which the
arithmetic first formed them, and `terms()` unpacks them in that order,
since the float evaluator sums terms in that order.  Exact evaluation
(`integer_values`, and `numerator_values` for numerators over one
denominator) is integer arithmetic over the common denominator of the
point.

Identities asserted elsewhere in the package (curvature symmetries,
metric compatibility, vanishing loci) are checked as literal zero
polynomials, never up to a floating tolerance.

Variables are positional, indexed ``0 .. nvars-1``.  For parsing and
display they are named ``x1..xm`` followed, when a cotangent-bundle split
is in play, by ``y1..ym`` for the fiber directions.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np

__all__ = [
    "CompiledTable",
    "Polynomial",
    "PolynomialParseError",
    "exact_values",
    "integer_values",
    "nonzero_map",
    "numerator_values",
    "parse_polynomial",
    "polynomial_to_string",
    "variable_names",
]

_BITS = 16  # bits per variable field of a packed monomial
_MASK = (1 << _BITS) - 1
_LIMIT = 1 << (_BITS - 1)  # exponents stay below this; the field's top bit is a guard


class PolynomialParseError(ValueError):
    """Malformed polynomial text; carries the 0-based offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("expected an exact rational, got %r" % (value,))


def _unpack(key, nvars):
    """The exponent tuple: the nvars 16-bit fields read as unsigned shorts."""
    return tuple(memoryview(key.to_bytes(2 * nvars, sys.byteorder)).cast("H"))


def _guards(nvars):
    """The top bit of each of the nvars fields."""
    return ((1 << nvars * _BITS) - 1) // _MASK << (_BITS - 1)


def _too_large(exponent):
    return ValueError("exponent %d exceeds %d, the largest a polynomial may hold"
                      % (exponent, _LIMIT - 1))


# -- the integer kernel ---------------------------------------------------
#
# Terms are {packed monomial: int numerator} dicts over a denominator the
# caller keeps.  An accumulator never stores a zero: a sum that reaches
# zero is deleted, and a key that comes back is appended at the end.


def add_to(acc, terms, scale, shift=0):
    """acc += scale * x^shift * terms in place, for a packed monomial shift,
    key by key in the order of terms."""
    get = acc.get
    for key, c in terms.items():
        key += shift
        c = get(key, 0) + scale * c
        if c:
            acc[key] = c
        elif key in acc:
            del acc[key]


def add_product(acc, a, b, scale):
    """acc += scale * a * b in place.  The product is formed first, a's terms
    outer and b's inner, and then added, so acc ends in the order it would
    have after adding the product polynomial.  A factor with one term needs
    no product dict: the other's terms times it are distinct and nonzero."""
    if len(a) == 1 or len(b) == 1:
        ((key, c),) = (a if len(a) == 1 else b).items()
        add_to(acc, b if len(a) == 1 else a, scale * c, key)
        return
    product = {}
    get = product.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            product[k] = get(k, 0) + ca * cb
    add_to(acc, product, scale)


def derivative(terms, index):
    """The terms of the partial derivative along variable `index`."""
    shift = index * _BITS
    unit = 1 << shift
    return {key - unit: c * e for key, c in terms.items() if (e := (key >> shift) & _MASK)}


# The row forms do in one call what a loop over a row of (l, terms) pairs
# would do with one add_to or add_product call per pair, adding the same
# terms to the same accumulators in the same order; the curvature loop
# makes thousands of such calls.  `accs` maps l to an accumulator, and
# accs[l] is read only when a term lands in it, so a defaultdict(dict)
# makes just the accumulators a loop fills.


def add_derivatives(accs, row, index, scale):
    """add_to(accs[l], derivative(p, index), scale) for each (l, p) of row,
    for the p with a nonzero derivative."""
    shift = index * _BITS
    unit = 1 << shift
    for l, terms in row:
        acc = None
        for key, c in terms.items():
            if e := (key >> shift) & _MASK:
                if acc is None:
                    acc = accs[l]
                    get = acc.get
                key -= unit
                c = get(key, 0) + scale * (c * e)
                if c:
                    acc[key] = c
                elif key in acc:
                    del acc[key]


def add_products(accs, row, b, scale):
    """add_product(accs[l], a, b, scale) for each (l, a) of row."""
    if len(b) != 1:
        for l, a in row:
            add_product(accs[l], a, b, scale)
        return
    ((shift, c_b),) = b.items()
    c_b *= scale
    for l, a in row:
        acc = accs[l]
        get = acc.get
        for key, c in a.items():
            key += shift
            c = get(key, 0) + c_b * c
            if c:
                acc[key] = c
            elif key in acc:
                del acc[key]


def check_exponents(dicts, nvars):
    """Raise the ValueError of `Polynomial.from_numerators` for the first of
    the kernel dicts in the sequence `dicts` with an exponent at the guard
    bit of its field.  When there is none, this is one pass over the keys."""
    if reduce(or_, chain.from_iterable(dicts), 0) & _guards(nvars):
        for numerators in dicts:
            Polynomial.from_numerators(nvars, numerators, 1)


def table_numerators(table):
    """({key: terms}, den): the entries of a {key: Polynomial} table as
    numerators over their one least common denominator.  An entry already
    over den shares its stored dict, so read it and do not change it."""
    den = math.lcm(*(p.den for p in table.values()))
    return {key: p.numerators if p.den == den else
            {k: c * (den // p.den) for k, c in p.numerators.items()}
            for key, p in table.items()}, den


class Polynomial:
    """Immutable sparse polynomial: `numerators` maps packed monomials to
    nonzero ints, all over the one positive int `den` (see the module
    docstring)."""

    __slots__ = ("nvars", "numerators", "den")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent tuple %r does not match nvars=%d" % (exps, nvars))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            if max(exps, default=0) >= _LIMIT:
                raise _too_large(max(exps))
            coeff = _as_fraction(coeff)
            if coeff:
                key = sum(e << (v * _BITS) for v, e in enumerate(exps))
                clean[key] = clean.get(key, Fraction(0)) + coeff
                if not clean[key]:
                    del clean[key]
        # over the lcm of reduced denominators the numerators have gcd 1
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.nvars = nvars
        self.numerators = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self.den = den

    @classmethod
    def _wrap(cls, nvars, numerators, den):
        """Wrap numerators already in the stored form."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.numerators = numerators
        poly.den = den
        return poly

    @classmethod
    def from_numerators(cls, nvars, numerators, den):
        """The polynomial numerators / den, for a kernel dict of nonzero
        ints, which it takes over, and a positive int den: reduced by the
        gcd, and ValueError if an exponent reached the guard bit of its
        field."""
        if numerators and reduce(or_, numerators) & _guards(nvars):
            raise _too_large(max(max(_unpack(k, nvars)) for k in numerators))
        if den != 1:
            g = math.gcd(den, *numerators.values())
            if g != 1:
                numerators = {k: c // g for k, c in numerators.items()}
                den //= g
        return cls._wrap(nvars, numerators, den)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars):
        """The constant polynomial `value`, an exact rational; a Fraction is
        already in lowest terms, so its one term is the stored form."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        value = _as_fraction(value)
        return cls._wrap(nvars, {0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def variable(cls, index, nvars):
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (index, nvars))
        return cls._wrap(nvars, {1 << (index * _BITS): 1}, 1)

    # -- inspection -------------------------------------------------------

    def terms(self):
        """A list of (exponent tuple, Fraction coefficient), in the order the
        arithmetic formed the terms."""
        nvars, den = self.nvars, self.den
        return [(_unpack(k, nvars), Fraction(c, den) if den != 1 else Fraction(c))
                for k, c in self.numerators.items()]

    @property
    def is_zero(self):
        return not self.numerators

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(_unpack(k, self.nvars)) for k in self.numerators), default=-1)

    def constant_term(self):
        return Fraction(self.numerators.get(0, 0), self.den)

    def __bool__(self):
        return bool(self.numerators)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.nvars == other.nvars and self.den == other.den
                    and self.numerators == other.numerators)
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.numerators.items())))

    # -- arithmetic: thin wrappers over the kernel ---------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.nvars)
        return None

    def _combine(self, other, sign):
        """self + sign * other for a coerced other and sign +1 or -1."""
        if not other.numerators:
            return self
        if not self.numerators:
            return other if sign > 0 else -other
        den = math.lcm(self.den, other.den)
        scale = den // self.den
        acc = {k: c * scale for k, c in self.numerators.items()}
        add_to(acc, other.numerators, sign * (den // other.den))
        return Polynomial.from_numerators(self.nvars, acc, den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap(self.nvars, {k: -c for k, c in self.numerators.items()},
                                self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        add_product(acc, self.numerators, other.numerators, 1)
        return Polynomial.from_numerators(self.nvars, acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n.  A one-term base takes its power directly, c^n / den^n at
        key * n; any other is multiplied out n times, which keeps the term
        order of the repeated product (repeated squaring would not)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n > 1 and self.numerators:
            # every field times n stays below its guard bit, so key * n cannot carry
            top = n * max(max(_unpack(k, self.nvars)) for k in self.numerators)
            if top >= _LIMIT:
                raise _too_large(top)
        if n and len(self.numerators) == 1:
            ((key, c),) = self.numerators.items()
            return Polynomial._wrap(self.nvars, {key * n: c ** n}, self.den ** n)
        out = Polynomial.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, index):
        """Exact partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index %d out of range" % index)
        return Polynomial.from_numerators(self.nvars, derivative(self.numerators, index),
                                          self.den)

    def embed(self, nvars):
        """Reinterpret in a larger variable ring (indices are preserved)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink from %d to %d variables" % (self.nvars, nvars))
        return Polynomial._wrap(nvars, self.numerators, self.den)

    def __call__(self, values):
        """The exact value at a rational point, a Fraction (see exact_values)."""
        return exact_values({(): self}, values, self.nvars).get((), Fraction(0))

    def __repr__(self):
        return "Polynomial(%d, %r)" % (self.nvars, dict(self.terms()))


# -- tables of polynomials ------------------------------------------------


def nonzero_map(entries, dim, nvars):
    """The nonzero values of a {index tuple: Polynomial | rational} map, in
    key order.  Every index must lie in range(dim) and every polynomial
    have nvars variables; a rational is read as a constant."""
    out = {}
    for key, p in sorted(entries.items()):
        for idx in key:
            if not 0 <= idx < dim:
                raise ValueError("index %d out of range in key %r" % (idx, key))
        if not isinstance(p, Polynomial):
            p = Polynomial.constant(p, nvars)
        if p.nvars != nvars:
            raise ValueError("entry %r has %d variables, expected %d" % (key, p.nvars, nvars))
        if p:
            out[key] = p
    return out


def integer_values(table, point, nvars):
    """({key: int}, den) for the entries of a {key: Polynomial} table that are
    nonzero at a rational point of nvars coordinates: entry key has the value
    values[key] / den, with one positive den for the whole table.  A point
    of another length raises ValueError.  It is `numerator_values` of the
    table over its common denominator (`table_numerators`)."""
    return numerator_values(*table_numerators(table), point, nvars)


def numerator_values(numerators, den, point, nvars):
    """`integer_values` of a {key: terms} table of kernel dicts over the one
    positive int den, reduced or not: dividing by the gcd of den and the
    values makes the result depend only on the rational values, so a
    table and its entries' reduced forms give the same ints and den.

    With the point as integers x over their common denominator q, a term
    c x^e of total degree t contributes c * x^e * q^(top - t) to the
    numerator over den * q^top, where top is the table's largest total
    degree.  Each distinct monomial is evaluated once per call."""
    point = [Fraction(v) for v in point]
    if len(point) != nvars:
        raise ValueError("point has %d components, expected %d" % (len(point), nvars))
    q = math.lcm(*(v.denominator for v in point))
    xs = [v.numerator * (q // v.denominator) for v in point]
    exponents = {k: _unpack(k, nvars)
                 for k in dict.fromkeys(k for terms in numerators.values() for k in terms)}
    top = max(map(sum, exponents.values()), default=0)
    monomials = {k: math.prod(x ** e for x, e in zip(xs, exps) if e) * q ** (top - sum(exps))
                 for k, exps in exponents.items()}
    values = {}
    for key, terms in numerators.items():
        value = 0
        for k, c in terms.items():
            value += c * monomials[k]
        if value:
            values[key] = value
    den *= q ** top
    g = math.gcd(den, *values.values())
    if g != 1:
        values = {key: value // g for key, value in values.items()}
    return values, den // g


def exact_values(table, point, nvars):
    """{key: Fraction} of the entries of a {key: Polynomial} table that are nonzero
    at a rational point of nvars coordinates; ValueError for a point of another length."""
    values, den = integer_values(table, point, nvars)
    return {key: Fraction(value, den) for key, value in values.items()}


class CompiledTable:
    """Float evaluator of a {index tuple: Polynomial} map in one ring, read
    as an array of the given shape that is zero at every absent key.  With
    `den` the map's values are instead kernel dicts of numerators over den,
    which need not be reduced: c / den is the same float either way.

    `entries` holds (key, start, terms) for each nonzero entry in key
    order.  The terms are (coeff, [(var, exp), ...]) in `Polynomial.terms()`
    order, with float coefficients and only the nonzero exponents; `start`
    is 0.0 plus a leading term without variables, so a constant entry needs
    no work per call.  `values` gives each entry's value as start + term +
    term + ..., left to right, each term coeff * x_var^exp * ... with
    powers as repeated products.  At points whose coordinates are short
    dyadic fractions every step is exact.

    The one-shot evaluations (the call, behind `gamma_at` and `gram_at`,
    and `evaluate_at`) read `values`.  The geodesic, which evaluates its
    symbols four times per step for hundreds of steps, instead turns
    `entries` into one generated straight-line RK4 step per run
    (`polynomial_geometry._step_source`) with the same float operations in
    the same order, and with its speed tests written in as plain sums;
    compiling costs a few hundred `values` calls, more than a one-shot
    evaluation could win back.
    """

    __slots__ = ("nvars", "shape", "entries", "degree")

    def __init__(self, table, shape, nvars, den=None):
        self.nvars = nvars
        self.shape = tuple(shape)
        self.entries = []
        for key, poly in table.items():
            numerators, d = (poly, den) if den else (poly.numerators, poly.den)
            # c / d rounds the exact quotient once, as Fraction.__float__ does
            terms = [(c / d, [(var, e) for var, e in enumerate(_unpack(k, nvars)) if e])
                     for k, c in numerators.items()]
            start = 0.0 + terms.pop(0)[0] if terms and not terms[0][1] else 0.0
            self.entries.append((key, start, terms))
        self.degree = max((e for _, _, terms in self.entries for _, factors in terms
                           for _, e in factors), default=0)

    def values(self, point):
        """(key, value) for each nonzero entry in key order, at a point
        given as a sequence of nvars Python floats."""
        powers = [[1.0, a] for a in point]  # powers[var][e] = point[var]^e
        for _ in range(self.degree - 1):
            for row in powers:
                row.append(row[-1] * row[1])
        for key, value, terms in self.entries:
            for coeff, factors in terms:
                for var, e in factors:
                    coeff *= powers[var][e]
                value += coeff
            yield key, value

    def check_point(self, point):
        """The point as a list of nvars Python floats; ValueError for any
        other length."""
        x = np.asarray(point, dtype=float)
        if x.shape != (self.nvars,):
            raise ValueError("point has %d components, expected %d" % (x.size, self.nvars))
        return x.tolist()

    def __call__(self, point):
        out = np.zeros(self.shape)
        for key, value in self.values(self.check_point(point)):
            out[key] = value
        return out


# -- text form ------------------------------------------------------------


def variable_names(base_vars, fiber_vars=0):
    """Names x1..x{base} then y1..y{fiber}, matching positional indices."""
    names = ["x%d" % (i + 1) for i in range(base_vars)]
    names += ["y%d" % (i + 1) for i in range(fiber_vars)]
    return tuple(names)


def polynomial_to_string(poly, base_vars=None, fiber_vars=0):
    if base_vars is None:
        base_vars = poly.nvars
    names = variable_names(base_vars, fiber_vars)
    if len(names) != poly.nvars:
        raise ValueError("name count %d does not match nvars=%d" % (len(names), poly.nvars))
    if poly.is_zero:
        return "0"
    ordered = sorted(poly.terms(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
    pieces = []
    for exps, coeff in ordered:
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


_OPS = set("+-*^/()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive descent for:  expr := term (('+'|'-') term)*
    term := factor ('*' factor)* ;  factor := sign* atom ('^' nat)? ;
    atom := rational | variable | '(' expr ')'.
    Rationals are integer or integer '/' integer literals.
    """

    def __init__(self, text, names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.index_of = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolynomialParseError("expected %r, found %r" % (kind, tok[1]), tok[2])
        return tok

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolynomialParseError("unexpected %r" % (tok[1],), tok[2])
        return poly

    def expr(self):
        poly = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self):
        poly = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            poly = poly * self.factor()
        return poly

    def factor(self):
        sign = 1
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                sign = -sign
        poly = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("num")
            poly = poly ** tok[1]
        return sign * poly if sign < 0 else poly

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            coeff = Fraction(value)
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("num")
                if den[1] == 0:
                    raise PolynomialParseError("zero denominator", den[2])
                coeff = coeff / den[1]
            return Polynomial.constant(coeff, self.nvars)
        if kind == "name":
            index = self.index_of.get(value)
            if index is None:
                raise PolynomialParseError("unknown variable %r" % value, pos)
            return Polynomial.variable(index, self.nvars)
        if kind == "(":
            poly = self.expr()
            self.expect(")")
            return poly
        raise PolynomialParseError("unexpected %r" % (value,), pos)


def parse_polynomial(text, base_vars, fiber_vars=0):
    """Parse text over variables x1..x{base} (and y1..y{fiber}).

    Grammar: + - * ^ with the usual precedence, parentheses, integer and
    integer/integer rational literals.  Errors carry the 0-based position.
    """
    return _Parser(text, variable_names(base_vars, fiber_vars)).parse()
