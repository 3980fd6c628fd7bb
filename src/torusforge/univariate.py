"""Exact univariate polynomials: dense lists of `Fraction` coefficients,
lowest degree first, no trailing zero ([] is zero).  Sturm counts isolate
the real roots (Basu, Pollack and Roy, *Algorithms in Real Algebraic
Geometry*, Ch. 2), and bisection on rationals rounds each correctly."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

Dense = List[Fraction]


def _trim(p) -> Dense:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def value(p: Dense, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def derivative(p: Dense) -> Dense:
    return [i * c for i, c in enumerate(p)][1:]


def _divide(a: Dense, b: Dense) -> Tuple[Dense, Dense]:
    """Quotient and remainder of a by the nonzero b."""
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), _trim(a)
    while len(r) >= len(b):
        shift, k = len(r) - len(b), r[-1] / b[-1]
        q[shift] = k
        r = _trim(c - k * b[i - shift] if i >= shift else c for i, c in enumerate(r))
    return q, r


def gcd(a: Dense, b: Dense) -> Dense:
    """The monic gcd of a and b ([] when both are zero)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divide(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree(p: Dense) -> Dense:
    """Each distinct root of the nonzero p once: p / gcd(p, p')."""
    return _divide(p, gcd(p, derivative(p)))[0]


def simple_and_multiple(p: Dense) -> Tuple[Dense, Dense]:
    """Square-free polynomials of the simple and of the multiple roots of
    the nonzero p: q / gcd(q, g) and gcd(q, g), with g = gcd(p, p') and q =
    p / g."""
    g = gcd(p, derivative(p))
    q = _divide(p, g)[0]
    return _divide(q, gcd(q, g))[0], gcd(q, g)


def _counter(q: Dense):
    """count(a, b): the roots in (a, b] of the square-free q, the drop in
    sign variations along its Sturm chain."""
    chain = [q, derivative(q)]
    while chain[-1]:
        chain.append([-c for c in _divide(chain[-2], chain[-1])[1]])

    def variations(x):
        signs = [v > 0 for v in (value(s, x) for s in chain[:-1]) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return lambda a, b: variations(a) - variations(b)


def _split(a: Fraction, b: Fraction) -> Fraction:
    """The dyadic rational of fewest bits in (a, b).  Split at these points,
    an interval lies in an aligned dyadic cell that halves at each step, so
    bisection meets every dyadic rational, each tie between two floats
    included, exactly."""
    w = b - a
    h = Fraction(2) ** (w.numerator.bit_length() - w.denominator.bit_length() + 1)
    while (m := (math.floor(a / h) + 1) * h) >= b:
        h /= 2
    return m


def _refine(q: Dense, a: Fraction, b: Fraction, done=None) -> Tuple[Fraction, Fraction]:
    """Bisect (a, b], which holds one root of the square-free q, by the sign
    of q alone until done(a, b), by default until its ends round to one
    float: at most about 2100 steps, the float exponent range.  (r, r)
    once the root r is met."""
    done = done or (lambda a, b: float(a) == float(b))
    v = value(q, b)
    if not v:
        return b, b
    right = v > 0                    # the sign of q between the root and b
    while a != b and not done(a, b):
        m = _split(a, b)
        v = value(q, m)
        if not v:
            a = b = m
        elif (v > 0) == right:
            b = m
        else:
            a = m
    return a, b


def roots(p: Dense, lo: Fraction, hi: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """The distinct real roots of the nonzero p in [lo, hi], ascending, each
    as a cell whose ends and midpoint round to the root correctly rounded:
    (r, r) for a root met exactly, else (a, b] holding one root."""
    q = squarefree(p)
    count, pending = _counter(q), [(lo, hi)]
    cells = [] if value(q, lo) else [(lo, lo)]
    while pending:
        a, b = pending.pop()
        n = count(a, b)
        if n == 1:
            cells.append(_refine(q, a, b))
        elif n > 1:
            m = _split(a, b)
            pending += [(m, b), (a, m)]
    return cells


def sign_at(f: Dense, p: Dense, cell: Tuple[Fraction, Fraction]) -> int:
    """The sign of f at the root of the square-free p in its cell of
    `roots`: 0 when f and p share it, else that of f on the cell bisected
    until it holds no root of f."""
    a, b = cell
    if a != b:
        if _counter(gcd(f, p))(a, b):
            return 0
        count = _counter(squarefree(f))
        a, b = _refine(p, a, b, lambda a, b: not count(a, b))
    v = value(f, b)
    return (v > 0) - (v < 0)
