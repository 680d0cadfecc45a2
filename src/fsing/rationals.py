"""Exact rational grid points and the snapping rules for jumping numbers.

All candidate limits have the shape c / (q^a * (q^b - 1)): a is the preperiod
and b the period of the eventually periodic base-q digit stream.  Two entry
points:

* `snap_interval` picks the smallest-denominator candidate inside a half-open
  grid interval (used when only one grid level is available, e.g. F-jumping
  exponent scans).
* `detect_chain_limit` fits the linear recurrence m_{e+b} = q^b m_e + c to a
  chain of S_e numerators and returns the exact limit (used by the jumping
  number estimator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .polyring import CharConfig


def frac_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class GridRational:
    """The grid point m / q^{e+1}, kept exact."""

    m: int
    e: int
    cfg: CharConfig

    def __post_init__(self):
        if not (0 < self.m <= self.cfg.q ** (self.e + 1)):
            raise ValueError(
                f"grid numerator {self.m} outside (0, q^{self.e + 1}]"
            )

    @property
    def value(self) -> Fraction:
        return Fraction(self.m, self.cfg.q ** (self.e + 1))

    def reduced(self) -> tuple[int, int]:
        """The numerator and denominator of `value`, with no `Fraction` built."""
        den = self.cfg.q ** (self.e + 1)
        g = gcd(self.m, den)
        return self.m // g, den // g

    def __str__(self) -> str:
        num, den = self.reduced()
        return f"{num}/{den}"


def snap_interval(lo: Fraction, hi: Fraction, q: int, window: int) -> Optional[Fraction]:
    """Smallest-denominator rational c/(q^a (q^b - 1)) in (lo, hi], with
    a <= window and 1 <= b <= window.

    Ties between reduced candidates of equal denominator break toward the
    larger value.  Returns None when no candidate fits in the window.

    For each den = q^a (q^b - 1) the numerators in (lo, hi] are exactly
    floor(lo den) < c <= floor(hi den), so no candidate needs a test.  The
    search runs in integers, on the key (den // g, -(c // g)) of the reduced
    fraction with g = gcd(c, den), and builds one `Fraction` at the end.
    """
    best = None
    for a in range(window + 1):
        for b in range(1, window + 1):
            den = q**a * (q**b - 1)
            c_hi = (hi.numerator * den) // hi.denominator
            c_lo = (lo.numerator * den) // lo.denominator
            for c in range(c_lo + 1, c_hi + 1):
                g = gcd(c, den)
                key = (den // g, -(c // g))
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return Fraction(-best[1], best[0])


@dataclass(frozen=True)
class ChainFit:
    """A detected eventually-periodic digit stream and its exact limit."""

    limit: Fraction
    preperiod: int  # absolute level a: the recurrence holds for e >= a
    period: int


def detect_chain_limit(
    numerators: Sequence[int], start_e: int, cfg: CharConfig, window: int
) -> Optional[ChainFit]:
    """Fit m_{e+b} = q^b m_e + c to numerators[i] = m at level start_e + i.

    The equations are checked in the phase of a only, at e = a, a + b, ...:
    a limit whose base-q digits have period b repeats its digit block every
    b levels, and the block read from another phase is a rotation of it, so
    its c differs (the chain 1, 1, 3, 10, 30, 91, 273 at q = 3 has
    10 = 9*1 + 1, 91 = 9*10 + 1 but 30 = 9*3 + 3, with limit 1/8).  Scans
    periods b and preperiods a up to window, smallest-first, and requires
    at least two consistent equations in the phase before accepting.  The
    limit of m_e / q^{e+1} is then (m_a (q^b - 1) + c) / (q^{a+1} (q^b - 1)).
    """
    q = cfg.q
    n = len(numerators)
    for b in range(1, window + 1):
        for a in range(window + 1):
            last = n - b - 1
            if last - a < b:
                continue  # fewer than two equations in the phase of a
            c = numerators[a + b] - q**b * numerators[a]
            if all(
                numerators[i + b] - q**b * numerators[i] == c
                for i in range(a + b, last + 1, b)
            ):
                level = start_e + a
                limit = Fraction(
                    numerators[a] * (q**b - 1) + c, q ** (level + 1) * (q**b - 1)
                )
                if 0 < limit <= 1:
                    return ChainFit(limit, level, b)
    return None
