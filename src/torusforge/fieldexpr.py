"""Polynomial vector-field expressions over (x, y, z, mu, eps).

Expressions are parsed straight to a Poly: a sparse multivariate
polynomial with exact `Fraction` coefficients, expanded as the parser goes.
One regex pass cuts the text into (kind, text, offset) tuples; a term then
reads its number, variable and power factors into one monomial and forms
Poly products only for parenthesized factors, and a sum adds each term in
place.
`format_poly` prints a Poly back in the grammar.  `partial` reads a raw
partial derivative at the origin straight off a Poly's coefficients, exact
for rational input: a system's jets are its polynomials, never a copy.
`terms_source` is the one route from exact coefficients to floats: it
writes the straight-line code that `compile_terms` compiles and that
`flow`'s 3D right-hand side inlines.

Poly is the one sparse exact polynomial type.  Its variables are the class
attribute `NAMES`, (x, y, z, mu, eps) here; the averaging layer subclasses
it as `TrigPoly` over (u, r, w, mu, t) with Gaussian-rational coefficients
and `PiPoly` over (r, w, mu, pi).

Grammar (ASCII):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' uint)?
    base   := number | ident | '(' expr ')'
    ident  := 'x' | 'y' | 'z' | 'mu' | 'eps'
    number := integer | decimal | integer '/' integer

Unary minus binds more loosely than '^', so ``-x^2`` means ``-(x^2)``.
Parentheses and unary minus nest at most MAX_NESTING deep.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

VARIABLES = ("x", "y", "z", "mu", "eps")
MAX_POWER = 12
MAX_NESTING = 100    # depth of '(' and unary '-'
MAX_DEGREE = 24      # total degree of any expanded subexpression
MAX_TERMS = 2000     # terms of any expanded subexpression

Monomial = Tuple[int, ...]


class FieldExprError(ValueError):
    """Base class for expression errors."""


class FieldSyntaxError(FieldExprError):
    def __init__(self, message: str, offset: int, expected: Tuple[str, ...] = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = expected


class UnknownIdentifierError(FieldSyntaxError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}'", offset, VARIABLES)
        self.name = name


class ExpressionTooLarge(FieldExprError):
    """The expansion would exceed MAX_DEGREE or MAX_TERMS; nested powers such
    as ((x^12)^12)^12 are refused before they are multiplied out."""


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# one token per match: a number, an identifier, an operator, or any other
# non-space character, which is refused; whitespace between them is skipped.
# `\w` is `str.isalnum()` or '_', and an identifier must start with a letter
# or '_' (checked on the match).  Digits are decimal (`\d`, what `int` reads).
_TOKEN = re.compile(r"(\d+\.?\d*|\.\d+)|([^\W\d]\w*)|([-+*^()/])|(\S)")


def _tokenize(source: str) -> List[Tuple[str, str, int]]:
    """The tokens of `source` as (kind, text, offset) tuples, kind 'num',
    'ident' or the operator character, and an 'end' token at len(source)."""
    tokens = []
    for m in _TOKEN.finditer(source):
        num, ident, op, other = m.groups()
        if num is not None:
            tokens.append(('num', num, m.start()))
        elif op is not None:
            tokens.append((op, op, m.start()))
        elif ident is not None and (ident[0].isalpha() or ident[0] == '_'):
            tokens.append(('ident', ident, m.start()))
        else:
            text = other or ident
            raise FieldSyntaxError(f"unexpected character {text[0]!r}", m.start(),
                                   ("number", "identifier", "+", "-", "*", "^", "(", ")"))
    tokens.append(('end', '', len(source)))
    return tokens


# a factor: (num, den, exps, poly), the monomial num / den * prod VARIABLES^exps
# times the Poly of the parenthesized factors it holds (None for none)
Factor = Tuple[int, int, Tuple[int, ...], Optional["Poly"]]
_CONSTANT = (0,) * len(VARIABLES)
_VARIABLE = {v: tuple(int(v == w) for w in VARIABLES) for v in VARIABLES}


class _Parser:
    """Recursive descent that expands as it goes: each rule returns the Poly
    of what it read.

    A term reads its number, variable and power factors into one monomial,
    an integer numerator and denominator and an exponent tuple, and forms
    Poly products only for parenthesized factors; the monomial multiplies
    their product once at the end.  Scaling by a nonzero number and shifting
    by a monomial keep every cancellation and the order of the terms, so the
    Poly is the one that multiplying factor by factor from the left gives.
    A sum adds each term into one dict in place.  Products and powers are
    checked against the caps before they are formed, sums right after."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FieldSyntaxError("unexpected token", tok[2], (kind,))
        self.pos += 1
        return tok

    def nest(self, offset: int) -> None:
        """Enter one '(' or unary '-'; the depth cap keeps the recursion
        far from Python's own limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FieldSyntaxError(f"nesting deeper than {MAX_NESTING}", offset)

    def parse(self) -> Poly:
        poly = self.expr()
        kind, text, offset = self.tokens[self.pos]
        if kind != 'end':
            raise FieldSyntaxError(f"trailing input {text!r}", offset,
                                   ("+", "-", "*", "^", "end of input"))
        return poly

    def expr(self) -> Poly:
        terms = self.term().terms
        # a sum's degree is at most its largest operand's
        degree = _degree(terms)
        tokens = self.tokens
        while (kind := tokens[self.pos][0]) in ('+', '-'):
            self.pos += 1
            rhs = self.term().terms
            for mono, coeff in rhs.items():
                prev = terms.get(mono)
                if kind == '-':
                    coeff = -coeff
                total = coeff if prev is None else prev + coeff
                if total:
                    terms[mono] = total
                else:
                    del terms[mono]
            degree = max(degree, _degree(rhs))
            _check_size(degree, len(terms), len(VARIABLES))
        return Poly._of(terms)

    def term(self) -> Poly:
        """The Poly of a term, a fresh one."""
        num, den, exps, poly = self.factor()
        while self.tokens[self.pos][0] == '*':
            self.pos += 1
            factor = self.factor()
            _check_product((num, den, exps, poly), factor)
            fnum, fden, fexps, fpoly = factor
            num, den = num * fnum, den * fden
            exps = tuple(map(operator.add, exps, fexps))
            if fpoly is not None:
                poly = fpoly if poly is None else poly * fpoly
        if not num:
            return Poly()
        coeff = Fraction(num, den)
        if poly is None:
            return Poly._of({exps: coeff})
        return Poly._of({tuple(map(operator.add, m, exps)): c * coeff
                         for m, c in poly.terms.items()})

    def factor(self) -> Factor:
        """A factor, unary minus and '^' included."""
        tokens = self.tokens
        minus = 0
        while tokens[self.pos][0] == '-':
            self.nest(tokens[self.pos][2])
            self.pos += 1
            minus += 1
        num, den, exps, poly = self.base()
        if tokens[self.pos][0] == '^':
            self.pos += 1
            _, text, offset = self.expect('num')
            if not text.isdigit():
                raise FieldSyntaxError("exponent must be a nonnegative integer",
                                       offset, ("unsigned integer",))
            exponent = int(text)
            if exponent > MAX_POWER:
                raise FieldSyntaxError(f"exponent {exponent} exceeds maximum {MAX_POWER}",
                                       offset)
            if poly is not None:
                if poly and exponent:
                    # a term of poly^e is a product of e poly terms: at most
                    # C(e + t - 1, e) distinct terms for t terms of poly
                    _check_size(_degree(poly.terms) * exponent,
                                math.comb(exponent + len(poly.terms) - 1, exponent),
                                len(poly.free_variables()))
                poly = poly.power(exponent)
            elif num and exponent:
                _check_size(sum(exps) * exponent, 1, len(_variables([exps])))
            num, den = num ** exponent, den ** exponent
            exps = tuple(e * exponent for e in exps)
        self.depth -= minus
        return (-num if minus % 2 else num), den, exps, poly

    def base(self) -> Factor:
        kind, text, offset = self.tokens[self.pos]
        if kind == 'num':
            self.pos += 1
            num, den = _number_value(text)
            # rational literal: integer '/' integer
            if self.tokens[self.pos][0] == '/' and text.isdigit():
                self.pos += 1
                _, dtext, doffset = self.expect('num')
                if not dtext.isdigit():
                    raise FieldSyntaxError("denominator must be an integer", doffset,
                                           ("unsigned integer",))
                den = int(dtext)
                if den == 0:
                    raise FieldSyntaxError("zero denominator", doffset)
            return num, den, _CONSTANT, None
        if kind == 'ident':
            self.pos += 1
            if text not in VARIABLES:
                raise UnknownIdentifierError(text, offset)
            return 1, 1, _VARIABLE[text], None
        if kind == '(':
            self.pos += 1
            self.nest(offset)
            poly = self.expr()
            self.expect(')')
            self.depth -= 1
            return 1, 1, _CONSTANT, poly
        if kind == 'end':
            raise FieldSyntaxError("unexpected end of input", offset,
                                   ("number", "identifier", "("))
        raise FieldSyntaxError(f"unexpected token {text!r}", offset,
                               ("number", "identifier", "(", "-"))


def _check_product(left: Factor, right: Factor) -> None:
    """Check the product of two factors against the caps, as `_check_size`
    checks the product of their Polys; nothing is checked where either is
    zero."""
    degree, nterms, monomials = 0, 1, []
    for num, _, exps, poly in (left, right):
        if not num or (poly is not None and not poly.terms):
            return
        degree += sum(exps)
        monomials.append(exps)
        if poly is not None:
            degree += _degree(poly.terms)
            nterms *= len(poly.terms)
            monomials.extend(poly.terms)
    _check_size(degree, nterms, len(_variables(monomials)))


def _degree(terms: Mapping[Monomial, object]) -> int:
    """Total degree of a Poly's terms over all its variables; 0 for none."""
    return max(map(sum, terms), default=0)


def _variables(monomials) -> set:
    """The indices of the variables that occur in `monomials`."""
    return {i for m in monomials for i, e in enumerate(m) if e}


def _check_size(degree: int, max_terms: int, nvars: int) -> None:
    """Raise ExpressionTooLarge unless a polynomial of total `degree` in
    `nvars` variables with at most `max_terms` terms fits the caps.  Products
    and powers are checked with a bound before they are formed, so refusing
    one costs nothing."""
    if degree > MAX_DEGREE:
        raise ExpressionTooLarge(
            f"expression expands to total degree {degree} (maximum {MAX_DEGREE})")
    max_terms = min(max_terms, math.comb(degree + nvars, nvars))
    if max_terms > MAX_TERMS:
        raise ExpressionTooLarge(
            f"expression may expand to {max_terms} terms (maximum {MAX_TERMS})")


def _number_value(text: str) -> Tuple[int, int]:
    """(numerator, denominator) of an integer or decimal literal."""
    if '.' in text:
        intpart, fracpart = text.split('.')
        return (int(intpart + fracpart) if intpart + fracpart else 0), 10 ** len(fracpart)
    return int(text), 1


def parse_field(source: str) -> Poly:
    """Parse an expression to its exact polynomial; raises FieldSyntaxError
    (UnknownIdentifierError among them) or ExpressionTooLarge."""
    return _Parser(source).parse()


def as_poly(value: Union[str, Poly]) -> Poly:
    """The polynomial of an expression: text is parsed and a Poly is
    returned as it is."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, str):
        return parse_field(value)
    raise FieldExprError(f"expected an expression string, got {type(value).__name__}")


def format_poly(p: Poly) -> str:
    """The expression text of a Poly: its terms in descending monomial order,
    each as a coefficient magnitude (omitted when 1) times `name^e` factors;
    `parse_field` reads it back to the same Poly."""
    if not p.terms:
        return "0"
    text = ""
    for mono in sorted(p.terms, reverse=True):
        c = p.terms[mono]
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(VARIABLES, mono) if e]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if not text:
            text = "-" + body if c < 0 else body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


# ---------------------------------------------------------------------------
# Sparse polynomial with exact coefficients
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial with exact coefficients, keyed by exponent tuples
    over the variables `NAMES`.

    `Poly` itself is over VARIABLES = (x, y, z, mu, eps) with Fraction
    coefficients: after parsing this is the only form of a system, and
    `compile_terms` turns it into numbers.  A subclass sets its own `NAMES`;
    `+`, `-`, `*`, `scale`, `derivative` and `==` then work for any exact
    coefficient ring (zero is falsy, + and * are exact) and for negative
    exponents.  `power`, `substitute` and `degree` assume Fraction
    coefficients and non-negative exponents, and `degree` defaults to
    (x, y, z).  Polys of different classes never compare equal.
    """

    NAMES: Tuple[str, ...] = VARIABLES
    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, object]] = None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, terms: Dict[Monomial, object]) -> "Poly":
        """Wrap `terms`, which hold no zero coefficient, without copying."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(0,) * len(cls.NAMES): value})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        mono = [0] * len(cls.NAMES)
        mono[cls.NAMES.index(name)] = 1
        return cls({tuple(mono): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = out.get(mono)
            s = coeff if prev is None else prev + coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return self._of(out)

    def __neg__(self) -> "Poly":
        return self._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(operator.add, m1, m2))
                prod = c1 * c2
                prev = out.get(mono)
                s = prod if prev is None else prev + prod
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return self._of(out)

    def scale(self, factor) -> "Poly":
        if not factor:
            return type(self)()
        return self._of({m: c * factor for m, c in self.terms.items()})

    def power(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = type(self).constant(Fraction(1))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def degree(self, vars: Tuple[str, ...] = ("x", "y", "z")) -> int:
        idxs = [self.NAMES.index(v) for v in vars]
        if not self.terms:
            return 0
        return max(sum(m[i] for i in idxs) for m in self.terms)

    def derivative(self, var: str) -> "Poly":
        i = self.NAMES.index(var)
        return self._of({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                         for m, c in self.terms.items() if m[i]})

    def substitute(self, bindings: Dict[str, "Poly"]) -> "Poly":
        """Substitute polynomials (or ring values wrapped as Poly) for variables."""
        cls = type(self)
        powers: Dict[Tuple[str, int], "Poly"] = {}     # each power formed once
        result = cls()
        for m, c in self.terms.items():
            term = cls.constant(c)
            for name, e in zip(self.NAMES, m):
                if e:
                    power = powers.get((name, e))
                    if power is None:
                        repl = bindings.get(name)
                        if repl is None:
                            repl = cls.variable(name)
                        power = powers[(name, e)] = repl.power(e)
                    term = term * power
            result = result + term
        return result

    def free_variables(self) -> Tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.NAMES)
                     if any(m[i] for m in self.terms))

    def __repr__(self):
        parts = []
        for m in sorted(self.terms):
            mono = "*".join(f"{v}^{e}" if e != 1 else v
                            for v, e in zip(self.NAMES, m) if e)
            parts.append(f"{self.terms[m]}" + (f"*{mono}" if mono else ""))
        return f"{type(self).__name__}({' + '.join(parts) or 0})"


# ---------------------------------------------------------------------------
# the numeric boundary: exact terms -> straight-line evaluator
# ---------------------------------------------------------------------------

Terms = Mapping[Tuple[int, ...], Union[float, complex]]


def terms_source(maps: Sequence[Terms], names: Sequence[str]
                 ) -> Tuple[List[str], List[str], Dict[str, object]]:
    """The straight-line code of sum_k c_k prod_i names[i]^e_ki for each map:
    (lines, results, namespace).  `lines` are statements that bind locals
    named `_p...` (powers) and `_s<k>` (sums), `results` holds one
    expression per map (its sum's local, or "0.0" for a map with no terms),
    and `namespace` binds the coefficient names `_c<k>_<n>`.

    Each map sends exponent tuples (one exponent per name; negative
    exponents allowed) to float or complex coefficients.  Each power is
    computed once for all maps, by repeated multiplication (and 1.0 / v for
    negative exponents), and the terms of a map are summed in its order, so
    each sum rounds as the map alone does.  Only +, * and that division
    are used.  Zero coefficients are dropped.  Coefficients are bound by
    name, never printed into the source.
    """
    namespace: Dict[str, object] = {}
    powers: Dict[str, str] = {}        # local name -> expression, in order
    sums: List[str] = []
    results: List[str] = []

    def power(i: int, e: int) -> str:
        if e == 1:
            return names[i]
        local = f"_p{i}_{e}" if e > 0 else f"_p{i}_m{-e}"
        if local not in powers:
            step = 1 if e > 0 else -1
            powers[local] = (f"1.0 / {names[i]}" if e == -1
                             else f"{power(i, e - step)} * {power(i, step)}")
        return local

    for k, m in enumerate(maps):
        first, total = len(sums), f"_s{k}"
        for n, (exps, c) in enumerate(m.items()):
            if not c:
                continue
            namespace[f"_c{k}_{n}"] = c
            product = " * ".join([f"_c{k}_{n}"]
                                 + [power(i, int(e)) for i, e in enumerate(exps) if e])
            sums.append(f"{total} = {total} + {product}" if len(sums) > first
                        else f"{total} = {product}")
        results.append(total if len(sums) > first else "0.0")
    lines = [f"{local} = {expr}" for local, expr in powers.items()] + sums
    return lines, results, namespace


def define(name: str, params: str, lines: Sequence[str],
           namespace: Dict[str, object]) -> Callable:
    """The function `def name(params)` whose body is `lines`, with the globals
    `namespace`, out of which it is taken: no cycle keeps it alive.  The lines
    carry no indentation of their own except inside a nested block."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(_compiled(source, f"<{name}>"), namespace)
    return namespace.pop(name)


@functools.lru_cache(maxsize=256)
def _compiled(source: str, filename: str):
    """The code of `source`, compiled once: the names a generated function
    reads are bound in its namespace, never printed into the source, so
    functions that differ only in their coefficients (one field at several
    (mu, eps), say) share one compilation."""
    return compile(source, filename, "exec")


def compile_terms(terms: Terms, names: Sequence[str]) -> Callable:
    """Compile sum_k c_k prod_i names[i]^e_ki into a straight-line function
    of the named variables, on the code `terms_source` writes for the one
    map `terms`.  Python floats, complex numbers, numpy arrays and Jet2
    values all evaluate.  A map with no terms evaluates to 0.0.
    """
    lines, (value,), namespace = terms_source([terms], names)
    return define("evaluate", ", ".join(names), lines + [f"return {value}"], namespace)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def partial(p: Poly, i: int, j: int, k: int) -> Fraction:
    """The raw partial p^(i,j,k) at the origin with mu = eps = 0: the
    coefficient of x^i y^j z^k times i! j! k!, or Fraction(0) where p has
    none."""
    c = p.terms.get((i, j, k, 0, 0))
    if c is None:
        return Fraction(0)
    return c * (math.factorial(i) * math.factorial(j) * math.factorial(k))
