"""b-functions of square matrices over R[t], via jump-set chains.

The roots of the b-function are 1 - lambda over the detected jumping numbers
lambda in (0,1), with a jumping number of exactly 1 contributing the root 1.
Euler-operator eigenvalue bookkeeping (theta digits and their Theta shifts)
rides along for diagnostics; the eigenvalue candidate set at level e is read
off the jump set at level e-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .errors import InternalConsistencyError
from .listmod import (
    ChainEstimate,
    JumpReport,
    SeReport,
    TMatrix,
    _estimate_jumping_numbers,
    decompose_A,
    s_set,
)
from .polyring import CharConfig, Poly


@dataclass(frozen=True)
class EulerWeight:
    """A weight m in [0, q^e) whose base-p digits are theta-eigenvalues."""

    m: int
    e: int
    cfg: CharConfig

    def __post_init__(self):
        if self.e < 1:
            raise ValueError("e must be positive")
        if not (0 <= self.m < self.cfg.q**self.e):
            raise ValueError(f"weight {self.m} out of range [0, q^{self.e})")


def weight_to_theta_digits(w: EulerWeight) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Base-p digits of m (the theta-eigenvalues) and their Theta shifts.

    Digits are padded to gamma*e places, least significant first.  The Theta
    eigenvalue of digit d is d + 1 mod p; the same list arises from the
    complementary digits j_l = p - 1 - d_l as -j_l mod p, and both encodings
    are computed and compared.
    """
    p = w.cfg.p
    places = w.cfg.gamma * w.e
    digits = []
    m = w.m
    for _ in range(places):
        digits.append(m % p)
        m //= p
    theta = tuple(digits)
    big_theta = tuple((d + 1) % p for d in theta)
    alt = tuple((-(p - 1 - d)) % p for d in theta)
    if alt != big_theta:
        raise InternalConsistencyError("eigenvalue conventions disagree")
    return theta, big_theta


def graph_generator(f: Poly, cfg: CharConfig) -> TMatrix:
    """The 1x1 matrix [(f - t)^{q-1}] attached to the graph of f."""
    if f.ring.extra is not None:
        raise ValueError("f must not involve the distinguished variable")
    t_ring = f.ring.with_extra("t")
    t = Poly.monomial(t_ring, (0,) * f.ring.nvars + (1,))
    base = f.lift_to(t_ring) - t
    return TMatrix(((base ** (cfg.q - 1),),), cfg)


def euler_eigenvalue_candidates(
    A: TMatrix, e: int, cfg: CharConfig
) -> Set[EulerWeight]:
    """{m : m/q^e in S_{e-1}} together with 0, as weights at level e.

    This is a sound upper bound on the attainable weights, not a claim that
    every candidate occurs.
    """
    if e < 1:
        raise ValueError("e must be positive")
    report = s_set(decompose_A(A, cfg), e - 1, cfg)
    out = {EulerWeight(0, e, cfg)}
    for g in report.jumps:
        out.add(EulerWeight(g.m, e, cfg))
    return out


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
    """Smallest N with every S_e element within q^N/q^{e+1} below some limit."""
    limits = [c.limit for c in report.chains if c.limit is not None]
    if not limits:
        return 0 if all(not r.jumps for r in report.s_sets.values()) else None
    values = {e: rep.values() for e, rep in report.s_sets.items()}
    for n_shift in range(0, e_max + 1):
        ok = True
        for e, level in values.items():
            slack = Fraction(cfg.q**n_shift, cfg.q ** (e + 1))
            for value in level:
                if not any(0 <= lam - value < slack for lam in limits):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return n_shift
    return None


def b_function(A: TMatrix, cfg: CharConfig, e_max: int = 5) -> BFunctionResult:
    """Assemble the b-function of A from its jumping-number chains."""
    if e_max < 3:
        raise ValueError("e_max must be at least 3")
    diagnostics: List[str] = []
    report = _estimate_jumping_numbers(A, cfg, e_max)
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
