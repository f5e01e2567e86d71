"""Seeded pointed modular data Z_n as FCAT v1 text, and the closed-form S.

The datum has one label g<x> per x in Z_n, fusion g<x> g<y> = g<x+y>,
dims 1 and twists theta_x = zeta_n^(a x^2).  For odd n and gcd(2a, n) = 1
the bilinear form 2a xy / n is nondegenerate, so the datum is modular and
S_xy = zeta_n^(-2a xy) / sqrt(n).  The seed picks a and shuffles the label
order so that the unit is never at index 0.

This module does not import fusioncat: the checks it supports must not
rest on the package's own parser or formatter.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

SIZES = (11, 13, 15, 17)


@dataclass(frozen=True)
class PointedDatum:
    n: int
    a: int
    values: tuple[int, ...]   # values[i] is the Z_n element at label index i

    def twist(self, i: int) -> Fraction:
        return Fraction(self.a * self.values[i] ** 2 % self.n, self.n)

    def s_entry(self, i: int, j: int) -> complex:
        """Closed form S_ij = zeta_n^(-2a x_i x_j) / sqrt(n)."""
        phase = Fraction(-2 * self.a * self.values[i] * self.values[j], self.n)
        return cmath.exp(2j * math.pi * phase) / math.sqrt(self.n)


def make_datum(n: int, seed: int) -> PointedDatum:
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be odd and at least 3")
    rng = random.Random(f"zn-fcat:{seed}:{n}")
    units = [a for a in range(1, n) if math.gcd(2 * a, n) == 1]
    a = rng.choice(units)
    values = list(range(n))
    while values[0] == 0:
        rng.shuffle(values)
    return PointedDatum(n, a, tuple(values))


def fcat_text(d: PointedDatum, perturb: int | None = None) -> str:
    """FCAT v1 text of the datum; `perturb` shifts that label's twist by 1/n."""
    n = d.n
    index = {x: i for i, x in enumerate(d.values)}
    lines = [f"category Z{n} pointed a={d.a}"]
    lines += [f"label {i} g{x}" for i, x in enumerate(d.values)]
    lines.append(f"unit {index[0]}")
    lines += [f"dual {i} {index[-x % n]}" for i, x in enumerate(d.values)]
    for i in range(n):
        t = d.twist(i)
        if i == perturb:
            t = (t + Fraction(1, n)) % 1
        lines.append(f"twist {i} {t.numerator}/{t.denominator}")
    lines += [f"dim {i} 1" for i in range(n)]
    for i, x in enumerate(d.values):
        for j, y in enumerate(d.values):
            lines.append(f"N {i} {j} {index[(x + y) % n]} 1")
    return "\n".join(lines) + "\n"


def perturbed_label(d: PointedDatum) -> int:
    """A label whose twist, shifted alone, breaks theta_x = theta_-x."""
    return d.values.index(1)


# -- evaluator for the exact expression grammar of docs/fcat.md -------------

def eval_cyc(text: str) -> complex:
    """Complex value of `expr := term (('+'|'-') term)*` over e(p/q) factors."""
    toks = re.findall(r"\d+|\S", text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expect=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect!r} in {text!r}, found {tok!r}")
        pos += 1
        return tok

    def rational():
        num = int(take())
        if peek() == "/":
            take("/")
            return Fraction(num, int(take()))
        return Fraction(num)

    def factor():
        tok = peek()
        if tok == "-":
            take()
            return -factor()
        if tok == "e":
            take()
            take("(")
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            r = sign * rational()
            take(")")
            return cmath.exp(2j * math.pi * r)
        if tok == "(":
            take()
            v = expr()
            take(")")
            return v
        return complex(rational())

    def term():
        v = factor()
        while peek() == "*":
            take()
            v *= factor()
        return v

    def expr():
        if peek() == "-":
            take()
            v = -term()
        else:
            v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    value = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return value
