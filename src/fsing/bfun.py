"""b-functions of square matrices over R[t], via jump-set chains.

The roots of the b-function are 1 - lambda over the detected jumping numbers
lambda in (0,1), with a jumping number of exactly 1 contributing the root 1.

The jump sets stay on the integer grid: the shift witness tests a jump
m/q^{e+1} against a limit L/D by integer cross-multiplication, and the only
`Fraction`s built here are the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .listmod import (
    ChainEstimate, JumpReport, MatrixList, SeReport, TMatrix, estimate_jumping_numbers,
)
from .polyring import CharConfig, Poly, PowerCache


def graph_generator(f: Poly, cfg: CharConfig) -> TMatrix:
    """The 1x1 matrix [(f - t)^{q-1}] attached to the graph of f, its power
    built by `PowerCache`, whose term cap refuses a q too large for it."""
    if f.ring.extra is not None:
        raise ValueError("f must not involve the distinguished variable")
    t_ring = f.ring.with_extra("t")
    t = Poly.monomial(t_ring, (0,) * f.ring.nvars + (1,))
    base = f.lift_to(t_ring) - t
    return TMatrix(((PowerCache(base).power(cfg.q - 1),),), cfg)


@dataclass(frozen=True)
class BFunctionResult:
    """Roots of b_A(s) in (0,1], with the shift witness and diagnostics.

    When unresolved chains remain the root list is only an upper bound for
    b_A in the divisibility order.
    """

    roots: Tuple[Fraction, ...]
    shift_N: Optional[int]
    unresolved: Tuple[ChainEstimate, ...]
    s_sets: Dict[int, SeReport]
    diagnostics: Tuple[str, ...] = ()

    @property
    def is_upper_bound_only(self) -> bool:
        return bool(self.unresolved)


def _shift_witness(report: JumpReport, cfg: CharConfig, e_max: int) -> Optional[int]:
    """Smallest N with every S_e element within q^N/q^{e+1} below some limit.

    A jump m/q^{e+1} lies within q^N/q^{e+1} below a limit L/D when
    0 <= L q^{e+1} - m D < q^N D, which is tested in integers.  The nearest
    limit at or above a jump needs the least N of all limits, so one pass
    finds that N for each jump and returns the largest; None when a jump
    has no limit at or above it or needs an N past e_max.
    """
    limits = [
        (L.numerator, L.denominator)
        for L in sorted({c.limit for c in report.chains if c.limit is not None})
    ]
    if not limits:
        return 0 if all(not r.jumps for r in report.s_sets.values()) else None
    q, shift = cfg.q, 0
    for e, rep in report.s_sets.items():
        den = q ** (e + 1)
        for m in (g.m for g in rep.jumps):
            for L, D in limits:
                if L * den >= m * D:
                    break
            else:
                return None
            over, slack, n = L * den - m * D, D, 0
            while over >= slack:
                n += 1
                if n > e_max:
                    return None
                slack *= q
            shift = max(shift, n)
    return shift


def b_function(A: TMatrix | MatrixList, cfg: CharConfig, e_max: int = 5) -> BFunctionResult:
    """Assemble the b-function of A(t), or of a matrix list, from its jumping-number chains."""
    if e_max < 3:
        raise ValueError("e_max must be at least 3")
    diagnostics: List[str] = []
    report = estimate_jumping_numbers(A, cfg, e_max)
    if A.is_zero():
        diagnostics.append("zero matrix: b = 1 with no roots")
        return BFunctionResult((), 0, (), report.s_sets, tuple(diagnostics))
    roots: List[Fraction] = []
    for lam in report.estimates:
        if lam == 1:
            roots.append(Fraction(1))
        else:
            roots.append(1 - lam)
    roots.sort()
    shift_n = _shift_witness(report, cfg, e_max)
    if shift_n is None:
        diagnostics.append(
            "no shift witness within e_max: some jump-set elements match no chain limit"
        )
    unresolved = report.unresolved
    if unresolved:
        diagnostics.append(
            f"{len(unresolved)} chain(s) unresolved at e_max={e_max}; "
            "roots are an upper bound in the divisibility order"
        )
    return BFunctionResult(
        tuple(roots), shift_n, unresolved, report.s_sets, tuple(diagnostics)
    )
