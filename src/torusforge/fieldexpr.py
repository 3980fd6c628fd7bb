"""Polynomial vector-field expressions over (x, y, z, mu, eps).

Expressions are parsed straight to a Poly: a sparse multivariate
polynomial with exact `Fraction` coefficients, expanded as the parser goes.
`format_poly` prints a Poly back in the grammar.  All jet (Taylor-coefficient)
extraction happens on the polynomial form and is exact for rational input;
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

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


class UnboundSymbolError(FieldExprError):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' is unbound")
        self.name = name


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num', 'ident', or the operator character
    text: str
    start: int
    end: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == '.' and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == '.' and not seen_dot)):
                if source[j] == '.':
                    seen_dot = True
                j += 1
            tokens.append(_Token('num', source[i:j], i, j))
            i = j
            continue
        if ch.isalpha() or ch == '_':
            j = i
            while j < n and (source[j].isalnum() or source[j] == '_'):
                j += 1
            tokens.append(_Token('ident', source[i:j], i, j))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, i, i + 1))
            i += 1
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", i,
                               ("number", "identifier", "+", "-", "*", "^", "(", ")"))
    return tokens


class _Parser:
    """Recursive descent that expands as it goes: each rule returns the Poly
    of what it read.  Products and powers are checked against the caps
    before they are formed, sums right after."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of input", len(self.source))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            off = tok.start if tok else len(self.source)
            raise FieldSyntaxError("unexpected token", off, (kind,))
        return self.advance()

    def nest(self, tok: _Token) -> None:
        """Enter one '(' or unary '-'; the depth cap keeps the recursion
        far from Python's own limit."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FieldSyntaxError(f"nesting deeper than {MAX_NESTING}", tok.start)

    def parse(self) -> Poly:
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FieldSyntaxError(f"trailing input {tok.text!r}", tok.start,
                                   ("+", "-", "*", "^", "end of input"))
        return poly

    def expr(self) -> Poly:
        poly = self.term()
        # a sum's degree is at most its largest operand's
        degree = poly.degree(VARIABLES)
        while (tok := self.peek()) is not None and tok.kind in ('+', '-'):
            self.advance()
            rhs = self.term()
            poly = poly + rhs if tok.kind == '+' else poly - rhs
            degree = max(degree, rhs.degree(VARIABLES))
            _check_size(degree, len(poly.terms), len(VARIABLES))
        return poly

    def term(self) -> Poly:
        poly = self.factor()
        while (tok := self.peek()) is not None and tok.kind == '*':
            self.advance()
            rhs = self.factor()
            if poly and rhs:
                nvars = len(set(poly.free_variables()) | set(rhs.free_variables()))
                _check_size(poly.degree(VARIABLES) + rhs.degree(VARIABLES),
                            len(poly.terms) * len(rhs.terms), nvars)
            poly = poly * rhs
        return poly

    def factor(self) -> Poly:
        tok = self.peek()
        if tok is not None and tok.kind == '-':
            self.advance()
            self.nest(tok)
            poly = -self.factor()
            self.depth -= 1
            return poly
        poly = self.base()
        if (tok := self.peek()) is not None and tok.kind == '^':
            self.advance()
            etok = self.expect('num')
            if not etok.text.isdigit():
                raise FieldSyntaxError("exponent must be a nonnegative integer",
                                       etok.start, ("unsigned integer",))
            exponent = int(etok.text)
            if exponent > MAX_POWER:
                raise FieldSyntaxError(f"exponent {exponent} exceeds maximum {MAX_POWER}",
                                       etok.start)
            if poly and exponent:
                # a term of poly^e is a product of e poly terms: at most
                # C(e + t - 1, e) distinct terms for t terms of poly
                _check_size(poly.degree(VARIABLES) * exponent,
                            math.comb(exponent + len(poly.terms) - 1, exponent),
                            len(poly.free_variables()))
            poly = poly.power(exponent)
        return poly

    def base(self) -> Poly:
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of input", len(self.source),
                                   ("number", "identifier", "("))
        if tok.kind == '(':
            self.advance()
            self.nest(tok)
            poly = self.expr()
            self.expect(')')
            self.depth -= 1
            return poly
        if tok.kind == 'num':
            self.advance()
            value = _number_value(tok)
            # rational literal: integer '/' integer
            nxt = self.peek()
            if (tok.text.isdigit() and nxt is not None and nxt.kind == '/'):
                self.advance()
                den = self.expect('num')
                if not den.text.isdigit():
                    raise FieldSyntaxError("denominator must be an integer", den.start,
                                           ("unsigned integer",))
                if int(den.text) == 0:
                    raise FieldSyntaxError("zero denominator", den.start)
                value = Fraction(int(tok.text), int(den.text))
            return Poly.constant(value)
        if tok.kind == 'ident':
            self.advance()
            if tok.text not in VARIABLES:
                raise UnknownIdentifierError(tok.text, tok.start)
            return Poly.variable(tok.text)
        raise FieldSyntaxError(f"unexpected token {tok.text!r}", tok.start,
                               ("number", "identifier", "(", "-"))


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


def _number_value(tok: _Token) -> Fraction:
    if '.' in tok.text:
        intpart, fracpart = tok.text.split('.')
        num = int(intpart + fracpart) if intpart + fracpart else 0
        return Fraction(num, 10 ** len(fracpart))
    return Fraction(int(tok.text))


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
    exponents.  `power`, `substitute`, `eval` and `degree` assume Fraction
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

    def eval(self, **env):
        """Evaluate over any commutative ring: values must support + and *
        (so exponents must be nonnegative).

        Fraction coefficients multiply ring values directly, so Fraction
        values give the exact value; float evaluation goes through
        `compile_terms`.
        """
        free = self.free_variables()
        missing = [v for v in free if v not in env]
        if missing:
            raise UnboundSymbolError(missing[0])
        total = None
        for m, c in self.terms.items():
            term = c
            for name, e in zip(self.NAMES, m):
                for _ in range(e):
                    term = term * env[name]
            total = term if total is None else total + term
        return 0 if total is None else total

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
    """The function `def name(params)` whose body is `lines`, with the
    globals `namespace`.  The lines carry no indentation of their own except
    inside a nested block."""
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    exec(_compiled(source, f"<{name}>"), namespace)
    return namespace[name]


@functools.lru_cache(maxsize=256)
def _compiled(source: str, filename: str):
    """The code of `source`, compiled once: the names a generated function
    reads are bound in its namespace, never printed into the source, so
    functions that differ only in their coefficients (one field at several
    (mu, eps), say) share one compilation."""
    return compile(source, filename, "exec")


def compile_terms(terms: Union[Terms, Sequence[Terms]], names: Sequence[str]) -> Callable:
    """Compile sum_k c_k prod_i names[i]^e_ki into a straight-line function
    of the named variables, on the code `terms_source` writes.

    `terms` is one map or a sequence of maps, as `terms_source` reads them.
    A sequence compiles to one function that returns the tuple of their
    sums, each power shared by every map, and each sum rounds as the map
    compiled alone does.  Python floats, complex numbers, numpy arrays and
    Jet2 values all evaluate.  A map with no terms evaluates to 0.0.
    """
    single = isinstance(terms, Mapping)
    lines, results, namespace = terms_source([terms] if single else list(terms), names)
    value = results[0] if single else f"({', '.join(results)},)"
    return define("evaluate", ", ".join(names), lines + [f"return {value}"], namespace)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

def _factorial3(j: int, k: int, l: int) -> int:
    return math.factorial(j) * math.factorial(k) * math.factorial(l)


class Jet3:
    """Order-3 jet at the origin: raw partial derivatives F^(j,k,l), j+k+l <= 3.

    Values are exact Fractions for rational input (floats after numeric
    parameter binding)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Dict[Tuple[int, int, int], Fraction]] = None):
        self._entries = {}
        if entries:
            for idx, val in entries.items():
                j, k, l = idx
                if j + k + l > 3 or min(idx) < 0:
                    raise ValueError(f"jet index {idx} out of range")
                if val != 0:
                    self._entries[idx] = val

    def get(self, j: int, k: int, l: int):
        if j + k + l > 3:
            raise ValueError(f"jet index ({j},{k},{l}) out of range")
        return self._entries.get((j, k, l), Fraction(0))

    def items(self) -> Iterator:
        return iter(sorted(self._entries.items()))

    def __eq__(self, other):
        return isinstance(other, Jet3) and self._entries == other._entries

    def __repr__(self):
        return "Jet3({" + ", ".join(f"{idx}: {val}" for idx, val in self.items()) + "})"


def jet_extract(f: Union[str, Poly]) -> Jet3:
    """Order-3 jet of a parameter-free f at the spatial origin."""
    poly = as_poly(f)
    if any(m[3] or m[4] for m in poly.terms):
        raise FieldExprError("jet_extract needs an expression free of mu and eps")
    entries: Dict[Tuple[int, int, int], Fraction] = {}
    for (j, k, l, _, _), c in poly.terms.items():
        if j + k + l <= 3:
            entries[(j, k, l)] = c * _factorial3(j, k, l)
    return Jet3(entries)
