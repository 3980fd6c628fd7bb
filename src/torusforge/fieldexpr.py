"""Polynomial vector-field expressions over (x, y, z, mu, eps).

Expressions are parsed into a small AST (round-trippable), then lowered to a
sparse multivariate polynomial with exact `Fraction` coefficients.  All jet
(Taylor-coefficient) extraction happens on the polynomial form and is exact
for rational input; `compile_terms` is the one route from exact
coefficients to floats.

Grammar (ASCII):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | base ('^' uint)?
    base   := number | ident | '(' expr ')'
    ident  := 'x' | 'y' | 'z' | 'mu' | 'eps'
    number := integer | decimal | integer '/' integer

Unary minus binds more loosely than '^', so ``-x^2`` means ``-(x^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

VARIABLES = ("x", "y", "z", "mu", "eps")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
MAX_POWER = 12
MAX_DEGREE = 24      # total degree of any expanded subexpression
MAX_TERMS = 2000     # terms of any expanded subexpression

Monomial = Tuple[int, int, int, int, int]


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
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: Tuple[int, int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Num(Node):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class Var(Node):
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    operand: "Node" = None


@dataclass(frozen=True)
class Add(Node):
    left: "Node" = None
    right: "Node" = None


@dataclass(frozen=True)
class Sub(Node):
    left: "Node" = None
    right: "Node" = None


@dataclass(frozen=True)
class Mul(Node):
    left: "Node" = None
    right: "Node" = None


@dataclass(frozen=True)
class Pow(Node):
    base: "Node" = None
    exponent: int = 1


# ---------------------------------------------------------------------------
# Lexer / parser
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
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FieldSyntaxError(f"trailing input {tok.text!r}", tok.start,
                                   ("+", "-", "*", "^", "end of input"))
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in ('+', '-'):
            self.advance()
            rhs = self.term()
            span = (node.span[0], rhs.span[1])
            node = Add(span, node, rhs) if tok.kind == '+' else Sub(span, node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind == '*':
            self.advance()
            rhs = self.factor()
            node = Mul((node.span[0], rhs.span[1]), node, rhs)
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok is not None and tok.kind == '-':
            self.advance()
            operand = self.factor()
            return Neg((tok.start, operand.span[1]), operand)
        node = self.base()
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
            node = Pow((node.span[0], etok.end), node, exponent)
        return node

    def base(self) -> Node:
        tok = self.peek()
        if tok is None:
            raise FieldSyntaxError("unexpected end of input", len(self.source),
                                   ("number", "identifier", "("))
        if tok.kind == '(':
            self.advance()
            node = self.expr()
            closing = self.expect(')')
            return _respan(node, (tok.start, closing.end))
        if tok.kind == 'num':
            self.advance()
            value = _number_value(tok)
            end = tok.end
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
                end = den.end
            return Num((tok.start, end), value)
        if tok.kind == 'ident':
            self.advance()
            if tok.text not in _VAR_INDEX:
                raise UnknownIdentifierError(tok.text, tok.start)
            return Var((tok.start, tok.end), tok.text)
        raise FieldSyntaxError(f"unexpected token {tok.text!r}", tok.start,
                               ("number", "identifier", "(", "-"))


def _respan(node: Node, span: Tuple[int, int]) -> Node:
    object.__setattr__(node, 'span', span)
    return node


def _number_value(tok: _Token) -> Fraction:
    if '.' in tok.text:
        intpart, fracpart = tok.text.split('.')
        num = int(intpart + fracpart) if intpart + fracpart else 0
        return Fraction(num, 10 ** len(fracpart))
    return Fraction(int(tok.text))


# ---------------------------------------------------------------------------
# Printing (round-trips to a structurally identical AST)
# ---------------------------------------------------------------------------

def _print_node(node: Node, parent: str = 'expr') -> str:
    """Precedence-aware printing; reparsing yields a structurally identical
    AST (the parser never produces negative Num literals, so none are printed).

    Wrap policy per the left-associative grammar and the single-'^' rule:
      Add/Sub wrap unless printed at expr level or as the left operand of +/-;
      Mul wraps under '^', under unary '-', and as a right factor;
      Neg wraps only as a power base; Pow wraps only as a power base.
    """
    if isinstance(node, Num):
        if node.value.denominator == 1:
            return str(node.value.numerator)
        return f"{node.value.numerator}/{node.value.denominator}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        text = f"-{_print_node(node.operand, 'neg')}"
        return f"({text})" if parent == 'pow' else text
    if isinstance(node, (Add, Sub)):
        op = '+' if isinstance(node, Add) else '-'
        text = f"{_print_node(node.left, 'expr')} {op} {_print_node(node.right, 'add-rhs')}"
        if parent in ('term', 'term-rhs', 'pow', 'neg', 'add-rhs'):
            return f"({text})"
        return text
    if isinstance(node, Mul):
        text = f"{_print_node(node.left, 'term')}*{_print_node(node.right, 'term-rhs')}"
        if parent in ('pow', 'neg', 'term-rhs'):
            return f"({text})"
        return text
    if isinstance(node, Pow):
        text = f"{_print_node(node.base, 'pow')}^{node.exponent}"
        return f"({text})" if parent == 'pow' else text
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Sparse polynomial with exact coefficients
# ---------------------------------------------------------------------------

class Poly:
    """Sparse polynomial in (x, y, z, mu, eps) with exact Fraction
    coefficients, keyed by exponent tuples.  After parsing this is the only
    form of a system; `compile_terms` turns it into numbers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = coeff

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(0, 0, 0, 0, 0): value} if value != 0 else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        mono = [0] * 5
        mono[_VAR_INDEX[name]] = 1
        return cls({tuple(mono): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            newc = out.get(mono, 0) + coeff
            if newc == 0:
                out.pop(mono, None)
            else:
                out[mono] = newc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    def __neg__(self) -> "Poly":
        result = Poly.__new__(Poly)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                newc = out.get(mono, 0) + c1 * c2
                if newc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = newc
        result = Poly.__new__(Poly)
        result.terms = out
        return result

    def scale(self, factor) -> "Poly":
        if factor == 0:
            return Poly()
        result = Poly.__new__(Poly)
        result.terms = {m: c * factor for m, c in self.terms.items()}
        return result

    def power(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Poly.constant(Fraction(1))
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
        idxs = [_VAR_INDEX[v] for v in vars]
        if not self.terms:
            return 0
        return max(sum(m[i] for i in idxs) for m in self.terms)

    def derivative(self, var: str) -> "Poly":
        i = _VAR_INDEX[var]
        out = {}
        for m, c in self.terms.items():
            if m[i] > 0:
                mono = m[:i] + (m[i] - 1,) + m[i + 1:]
                out[mono] = out.get(mono, 0) + c * m[i]
        return Poly(out)

    def substitute(self, bindings: Dict[str, "Poly"]) -> "Poly":
        """Substitute polynomials (or ring values wrapped as Poly) for variables."""
        result = Poly()
        for m, c in self.terms.items():
            term = Poly.constant(c)
            for name, i in _VAR_INDEX.items():
                if m[i]:
                    repl = bindings.get(name, Poly.variable(name))
                    term = term * repl.power(m[i])
            result = result + term
        return result

    def eval(self, **env):
        """Evaluate over any commutative ring: values must support + and *.

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
            for name, i in _VAR_INDEX.items():
                for _ in range(m[i]):
                    term = term * env[name]
            total = term if total is None else total + term
        return 0 if total is None else total

    def free_variables(self) -> Tuple[str, ...]:
        present = [False] * 5
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    present[i] = True
        return tuple(v for v, i in _VAR_INDEX.items() if present[i])

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "*".join(f"{v}^{m[i]}" if m[i] > 1 else v
                            for v, i in _VAR_INDEX.items() if m[i])
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# the numeric boundary: exact terms -> straight-line evaluator
# ---------------------------------------------------------------------------

def compile_terms(terms: Mapping[Tuple[int, ...], Union[float, complex]],
                  names: Sequence[str]) -> Callable:
    """Compile sum_k c_k prod_i names[i]^e_ki into a straight-line function
    of the named variables; the one place where exact terms become numbers.

    `terms` maps exponent tuples (one exponent per name; negative exponents
    allowed) to float or complex coefficients.  Each power is computed once,
    by repeated multiplication (and 1.0 / v for negative exponents), and the
    terms are summed in the mapping's order.  Only +, * and that division are
    used, so Python floats, complex numbers, numpy arrays and Jet2 values all
    evaluate.  Zero coefficients are dropped; no terms evaluates to 0.0.
    Coefficients are bound by name, never printed into the source.
    """
    namespace: Dict[str, object] = {}
    powers: Dict[str, str] = {}        # local name -> expression, in order
    sums: List[str] = []

    def power(i: int, e: int) -> str:
        if e == 1:
            return names[i]
        local = f"_p{i}_{e}" if e > 0 else f"_p{i}_m{-e}"
        if local not in powers:
            step = 1 if e > 0 else -1
            powers[local] = (f"1.0 / {names[i]}" if e == -1
                             else f"{power(i, e - step)} * {power(i, step)}")
        return local

    for n, (exps, c) in enumerate(terms.items()):
        if not c:
            continue
        namespace[f"_c{n}"] = c
        product = " * ".join([f"_c{n}"] + [power(i, int(e)) for i, e in enumerate(exps) if e])
        sums.append(f"    _s = _s + {product}" if sums else f"    _s = {product}")
    body = ([f"    {local} = {value}" for local, value in powers.items()] + sums
            + ["    return _s" if sums else "    return 0.0"])
    source = f"def evaluate({', '.join(names)}):\n" + "\n".join(body) + "\n"
    exec(compile(source, "<compile_terms>", "exec"), namespace)
    return namespace["evaluate"]


# ---------------------------------------------------------------------------
# FieldExpr: parsed expression with AST + lowered polynomial
# ---------------------------------------------------------------------------

class FieldExpr:
    """A parsed polynomial expression; keeps the AST for round-tripping and
    the lowered Poly for all computation."""

    def __init__(self, root: Node, source: str):
        self.root = root
        self.source = source
        self._poly: Optional[Poly] = None

    @property
    def poly(self) -> Poly:
        if self._poly is None:
            self._poly = _lower(self.root)
        return self._poly

    def to_string(self) -> str:
        return _print_node(self.root)

    def __eq__(self, other):
        return isinstance(other, FieldExpr) and self.root == other.root

    def __repr__(self):
        return f"FieldExpr({self.to_string()!r})"


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


def _lower(node: Node) -> Poly:
    if isinstance(node, Num):
        return Poly.constant(node.value)
    if isinstance(node, Var):
        return Poly.variable(node.name)
    if isinstance(node, Neg):
        return -_lower(node.operand)
    if isinstance(node, (Add, Sub)):
        left, right = _lower(node.left), _lower(node.right)
        out = left + right if isinstance(node, Add) else left - right
        _check_size(out.degree(VARIABLES), len(out.terms), len(VARIABLES))
        return out
    if isinstance(node, Mul):
        left, right = _lower(node.left), _lower(node.right)
        if left and right:
            nvars = len(set(left.free_variables()) | set(right.free_variables()))
            _check_size(left.degree(VARIABLES) + right.degree(VARIABLES),
                        len(left.terms) * len(right.terms), nvars)
        return left * right
    if isinstance(node, Pow):
        base, e = _lower(node.base), node.exponent
        if base and e:
            # a term of base^e is a product of e base terms: at most
            # C(e + t - 1, e) distinct terms for t base terms
            _check_size(base.degree(VARIABLES) * e,
                        math.comb(e + len(base.terms) - 1, e),
                        len(base.free_variables()))
        return base.power(e)
    raise TypeError(f"unknown node {node!r}")


def parse_field(source: str) -> FieldExpr:
    """Parse an expression; raises FieldSyntaxError / UnknownIdentifierError."""
    return FieldExpr(_Parser(source).parse(), source)


def as_poly(value: Union[str, FieldExpr, Poly]) -> Poly:
    """The polynomial of an expression: text is parsed, a FieldExpr gives its
    lowered form, and a Poly is returned as it is."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, FieldExpr):
        return value.poly
    if isinstance(value, str):
        return parse_field(value).poly
    raise FieldExprError(f"expected an expression string, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

JET_INDICES: Tuple[Tuple[int, int, int], ...] = tuple(
    (j, k, l)
    for j in range(4) for k in range(4 - j) for l in range(4 - j - k)
)


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

    def multiply(self, other: "Jet3") -> "Jet3":
        """Degree-3 truncated jet product (Leibniz on Taylor coefficients)."""
        out: Dict[Tuple[int, int, int], Fraction] = {}
        for (j1, k1, l1), v1 in self._entries.items():
            c1 = v1 / _factorial3(j1, k1, l1)
            for (j2, k2, l2), v2 in other._entries.items():
                j, k, l = j1 + j2, k1 + k2, l1 + l2
                if j + k + l > 3:
                    continue
                c2 = v2 / _factorial3(j2, k2, l2)
                out[(j, k, l)] = out.get((j, k, l), 0) + c1 * c2
        return Jet3({idx: c * _factorial3(*idx) for idx, c in out.items()})

    def __repr__(self):
        return "Jet3({" + ", ".join(f"{idx}: {val}" for idx, val in self.items()) + "})"


class ParamJet3:
    """Jet whose entries are polynomials in mu (and optionally eps)."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Dict[Tuple[int, int, int], Poly]):
        self._entries = {idx: p for idx, p in entries.items() if p}

    def entry(self, j: int, k: int, l: int) -> Poly:
        return self._entries.get((j, k, l), Poly())

    def at(self, mu, eps=0) -> Jet3:
        vals = {}
        for idx, p in self._entries.items():
            vals[idx] = p.eval(mu=mu, eps=eps)
        return Jet3(vals)

    def items(self):
        return iter(sorted(self._entries.items()))

    def __repr__(self):
        return "ParamJet3({" + ", ".join(f"{idx}: {p!r}" for idx, p in self.items()) + "})"


def jet_extract(f: Union[str, FieldExpr, Poly]):
    """Order-3 jet of f at the spatial origin.

    Returns a Jet3 when f has no parameters, else a ParamJet3 whose entries
    are exact polynomials in mu and eps.
    """
    poly = as_poly(f)
    imu, ieps = _VAR_INDEX["mu"], _VAR_INDEX["eps"]
    param_entries: Dict[Tuple[int, int, int], Dict[Monomial, Fraction]] = {}
    for m, c in poly.terms.items():
        j, k, l = m[0], m[1], m[2]
        if j + k + l > 3:
            continue
        pm = (0, 0, 0, m[imu], m[ieps])
        entry = param_entries.setdefault((j, k, l), {})
        entry[pm] = entry.get(pm, 0) + c * _factorial3(j, k, l)

    has_params = any(pm[imu] or pm[ieps]
                     for entry in param_entries.values() for pm in entry)
    if has_params:
        return ParamJet3({idx: Poly(entry) for idx, entry in param_entries.items()})
    return Jet3({idx: entry.get((0, 0, 0, 0, 0), Fraction(0))
                 for idx, entry in param_entries.items()})
