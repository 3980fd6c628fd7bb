"""Seeded input documents for the benchmark workloads.

Everything here is a pure function of the seed, so the same seed always
yields byte-identical documents.  The program under test only ever sees the
JSON files that `write_inputs` produces.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

Monomial = Tuple[int, int, int]
Terms = Dict[Monomial, Fraction]

# The worked example of the paper: P = 0, Q = y*z, R = -x^2 + x*y + z^2.
EXAMPLE: Tuple[Terms, Terms, Terms] = (
    {},
    {(0, 1, 1): Fraction(1)},
    {(2, 0, 0): Fraction(-1), (1, 1, 0): Fraction(1), (0, 0, 2): Fraction(1)},
)

# Seed k > 0 adds one small cubic term to each of P, Q, R on these monomials.
# None of them enters Omega, mu0 or the closed form of mu1, so every seed
# keeps Omega = 2 and mu1 = 3/4 while ell1 moves slightly away from -48.
EXAMPLE_CUBICS: Tuple[Monomial, Monomial, Monomial] = ((1, 0, 2), (0, 1, 2), (0, 0, 3))

# (mu, eps) of the certify workloads; mu(eps) = mu0 + 3/4 eps + O(eps^2)
TORUS = (0.05, 0.05)       # torus side: mu - mu(eps) = 0.0125 > 0
NOTORUS = (-0.2, 0.02)     # far on the no-torus side: mu - mu(eps) = -0.215

# fields workload: four Hopf-Zero fields and four degree-2 lift seeds per
# pass.  Field i is always HOPF_BASES[i] (or LIFT_BASES[i]) with every
# coefficient scaled by a seeded factor in [7/8, 9/8]: term count, degree and
# signs (hence Omega > 0) are fixed per slot, so every seed costs about the
# same, while the values the program computes change with the seed.
HOPF_BASES = (
    ("1/2*x*z - 1/2*x*y", "-2*y*z", "-3/4*z^2 + 1/2*y^2 + x*y + 1/2*x^2"),
    ("-2*x*z - 1/4*x^3", "-3/4*y*z - 2*y^2", "-z^2 - 2*x*z - 1/2*x*y + 1/2*x^2"),
    ("1/2*x*z", "y*z - 1/2*y^2 - 1/4*y^2*z - 1/4*y^3",
     "3/4*z^2 + 3/2*y*z - 3/4*y^2 + 3/2*x*y - 3/2*x^2"),
    ("-x*z - 1/2*z^2 + y^2 - 1/4*y^3", "-1/2*y*z",
     "1/4*z^2 + 1/2*z^3 + y*z + 1/2*y^2 - 1/4*y^2*z - 2*x*y + 1/2*x^2"),
)
# P and Q of every lift seed carry x^2, so the field line far out on the
# x-axis has a fixed nonzero slope and the separating-plane search succeeds
LIFT_BASES = (
    ("-1 - y - 3*x - 2*x*z + x^2", "1 + 3*z - z^2 + 2*y + 4*x^2",
     "-1/2 + z + 3*z^2 + y + 1/2*y^2"),
    ("-4 - 3*z + y*z + x - 2*x^2", "2 + 2*y - x - 3*x*y - 2*x^2",
     "-1 - z - y*z + 3/4*y^2 + 4*x"),
    ("3/4 + 1/2*z - 2*y - x*z - 4*x^2", "-1 - 1/2*z - 4*z^2 + 1/2*y + 2*x^2",
     "-3/2 - 4*z - 1/2*y^2 - 3/2*x + 3/2*x*y"),
    ("-1/2 + 2*z + 2*y^2 + 1/4*x + 3/2*x^2", "3/2 - 4*z + 2*y^2 + 2*x + 2*x^2",
     "-4 - 3/2*y - 3/4*y^2 - 1/2*x - 2*x*z"),
)
FIELDS_EPS = 0.05
FIELDS_PERIODS = 20
MELNIKOV_GRID = 4


def parse_terms(text: str) -> Terms:
    """Sum of monomials `c*x^a*y^b*z^c` (the form `expr` writes) to Terms."""
    terms: Terms = {}
    for part in text.replace(" - ", " + -").split(" + "):
        sign = Fraction(-1) if part.startswith("-") else Fraction(1)
        coeff, mono = sign, [0, 0, 0]
        for factor in part.lstrip("-").split("*"):
            name, _, power = factor.partition("^")
            if name in ("x", "y", "z"):
                mono["xyz".index(name)] += int(power or 1)
            else:
                coeff *= Fraction(name)
        terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + coeff
    return terms


def expr(terms: Terms) -> str:
    """Polynomial in the document grammar, e.g. `y*z - 1/200*y*z^2`."""
    parts = []
    for mono in sorted(terms):
        c = terms[mono]
        if c == 0:
            continue
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip("xyz", mono) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def omega_of(P: Terms, Q: Terms, R: Terms) -> Fraction:
    """Omega = -(P_xz + Q_yz)(R_xx + R_yy) in raw partial derivatives."""
    d = P.get((1, 0, 1), Fraction(0)) + Q.get((0, 1, 1), Fraction(0))
    s = 2 * (R.get((2, 0, 0), Fraction(0)) + R.get((0, 2, 0), Fraction(0)))
    return -d * s


def example_field(seed: int) -> Tuple[Terms, Terms, Terms]:
    """Seed 0: the worked example.  Seed k > 0: the worked example plus one
    cubic term c*x*z^2, c*y*z^2, c*z^3 per component, 0 < |c| <= 1/100."""
    P, Q, R = (dict(t) for t in EXAMPLE)
    if seed > 0:
        rng = random.Random(f"example-{seed}")
        for comp, mono in zip((P, Q, R), EXAMPLE_CUBICS):
            c = Fraction(rng.randint(1, 10), 1000)
            comp[mono] = c if rng.random() < 0.5 else -c
    return P, Q, R


def perturbed(base: Tuple[str, str, str], rng: random.Random):
    """Every coefficient of the base field scaled by a factor in [7/8, 9/8]."""
    return tuple({m: c * Fraction(rng.randint(56, 72), 64)
                  for m, c in parse_terms(text).items()} for text in base)


def hopf_field(seed: int, index: int) -> Tuple[Terms, Terms, Terms]:
    return perturbed(HOPF_BASES[index], random.Random(f"hopf-{seed}-{index}"))


def lift_seed_field(seed: int, index: int) -> Tuple[Terms, Terms, Terms]:
    return perturbed(LIFT_BASES[index], random.Random(f"lift-{seed}-{index}"))


@dataclass
class Document:
    name: str
    path: str
    omega: Fraction = None          # exact Omega for Hopf-Zero fields


@dataclass
class Inputs:
    example: Document = None
    hopf: List[Document] = field(default_factory=list)
    lift: List[Document] = field(default_factory=list)


def _system(terms) -> dict:
    return {c: expr(t) for c, t in zip("PQR", terms)}


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def write_inputs(kind: str, seed: int, directory: str) -> Inputs:
    """Generate and write one input set: "fields" or "example"."""
    os.makedirs(directory, exist_ok=True)
    out = Inputs()
    if kind == "fields":
        for i in range(len(HOPF_BASES)):
            terms = hopf_field(seed, i)
            doc = {"system": _system(terms), "perturbation": {"simple": True},
                   "interval": [-1.0, 1.0],
                   "parameters": {"eps": FIELDS_EPS}, "periods": FIELDS_PERIODS}
            name = f"hopf{i}.json"
            out.hopf.append(Document(name, _write(directory, name, doc),
                                     omega=omega_of(*terms)))
        for i in range(len(LIFT_BASES)):
            terms = lift_seed_field(seed, i)
            doc = {"system": _system(terms),
                   "ball": {"center": [0, 0, 0], "radius": 1.0}}
            name = f"lift{i}.json"
            out.lift.append(Document(name, _write(directory, name, doc)))
    else:
        terms = example_field(seed)
        doc = {"system": _system(terms), "perturbation": {"simple": True},
               "interval": [-1.0, 1.0]}
        out.example = Document("example.json",
                               _write(directory, "example.json", doc),
                               omega=omega_of(*terms))
    return out
