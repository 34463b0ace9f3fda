"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`, so sums, products and partial
derivatives are exact.  Identities asserted elsewhere in the package
(curvature symmetries, metric compatibility, vanishing loci) are checked as
literal zero polynomials, never up to a floating tolerance.

Variables are positional, indexed ``0 .. nvars-1``.  For parsing and
display they are named ``x1..xm`` followed, when a cotangent-bundle split
is in play, by ``y1..ym`` for the fiber directions.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

import numpy as np

__all__ = [
    "CompiledTable",
    "Polynomial",
    "PolynomialParseError",
    "parse_polynomial",
    "polynomial_to_string",
    "variable_names",
]


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


class Polynomial:
    """Immutable sparse polynomial: exponent multi-index -> Fraction."""

    __slots__ = ("nvars", "_terms")

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
            coeff = _as_fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, nvars, terms):
        """Wrap a term dict already in canonical form: exponent tuples of
        length nvars, nonzero Fraction coefficients.  Arithmetic results
        come from here, so they skip the validation of __init__."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = terms
        return poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, index, nvars):
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range for nvars=%d" % (index, nvars))
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- inspection -------------------------------------------------------

    def terms(self):
        """Iterate (exponent tuple, Fraction coefficient), unordered."""
        return self._terms.items()

    @property
    def is_zero(self):
        return not self._terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def constant_term(self):
        return self._terms.get((0,) * self.nvars, Fraction(0))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- arithmetic -------------------------------------------------------
    #
    # Every result keeps the canonical form that __eq__ and __hash__ rely
    # on: no zero coefficient is stored.

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("mixed variable counts: %d vs %d" % (self.nvars, other.nvars))
            return other
        if isinstance(other, (int, Fraction)):
            terms = {(0,) * self.nvars: Fraction(other)} if other else {}
            return Polynomial._trusted(self.nvars, terms)
        return None

    def _combine(self, other, op):
        """op(self, other) for a coerced other; op is operator.add or sub."""
        if not other._terms:
            return self
        if not self._terms:
            return other if op is add else -other
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = op(terms.get(exps, 0), coeff)
            if total:
                terms[exps] = total
            else:
                del terms[exps]
        return Polynomial._trusted(self.nvars, terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return Polynomial._trusted(self.nvars, {})
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(map(add, e1, e2))
                prev = terms.get(exps)
                terms[exps] = c1 * c2 if prev is None else prev + c1 * c2
        return Polynomial._trusted(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Polynomial.constant(1, self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def diff(self, index):
        """Exact partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index %d out of range" % index)
        terms = {}
        for exps, coeff in self._terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            terms[tuple(new)] = coeff * e
        return Polynomial._trusted(self.nvars, terms)

    def embed(self, nvars):
        """Reinterpret in a larger variable ring (indices are preserved)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink from %d to %d variables" % (self.nvars, nvars))
        pad = (0,) * (nvars - self.nvars)
        return Polynomial._trusted(nvars, {e + pad: c for e, c in self._terms.items()})

    def __call__(self, values):
        """Evaluate at a point.  Fraction inputs give an exact Fraction."""
        values = list(values)
        if len(values) != self.nvars:
            raise ValueError("point has %d components, expected %d" % (len(values), self.nvars))
        total = None
        for exps, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    def __repr__(self):
        return "Polynomial(%d, %r)" % (self.nvars, dict(self._terms))


# -- float evaluation of tables -------------------------------------------


class CompiledTable:
    """Float evaluator of a {index tuple: Polynomial} map in one ring, read
    as an array of the given shape that is zero at every absent key.

    `entries` holds (key, start, terms) for each nonzero entry in key
    order.  The terms are (coeff, [(var, exp), ...]) in `Polynomial.terms()`
    order, with float coefficients and only the nonzero exponents; `start`
    is 0.0 plus a leading term without variables, so a constant entry needs
    no work per call.  `values` gives each entry's value as start + term +
    term + ..., left to right, each term coeff * x_var^exp * ... with
    powers as repeated products; the call and the geodesic both read it.
    At points whose coordinates are short dyadic fractions every step is
    exact.
    """

    __slots__ = ("nvars", "shape", "entries", "degree")

    def __init__(self, table, shape, nvars):
        self.nvars = nvars
        self.shape = tuple(shape)
        self.entries = []
        for key, poly in table.items():
            terms = [(float(coeff), [(var, e) for var, e in enumerate(exps) if e])
                     for exps, coeff in poly.terms()]
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
