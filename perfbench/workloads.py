"""Seeded problem generators for the three benchmark workloads.

Each workload is a list of problem classes.  A class is a finite, bounded
list of problems; the union of all classes (plus the warm-up problems) is the
workload's universe, and every problem in it has a reference output digest in
`reference.json`.  A seed only decides which members of each class are run
and in what order, so any seed can be checked byte for byte.

A run is a sequence of rounds.  Each round holds a fixed number of problems
from every class, in seeded order.  Within a class the members are drawn
without replacement from a seeded permutation, reshuffled whenever it runs
out, so every stretch of rounds sees the classes in fixed proportions and
every member equally often.  That keeps the work per round, and therefore
the figures of a run, steady across seeds.

Problem size is bounded by what the input shows: q^e_max, the number of
terms and the degree of f, the exponent a = alpha q^c (q^d - 1) of a test
ideal, and e_max of a b-function.  `check_bounds` enforces these limits on
every generated problem.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Shape = Tuple[Tuple[int, int], ...]  # exponent pairs of the terms of f in (x0, x1)


@dataclass(frozen=True)
class Problem:
    """One CLI invocation.

    `argv` is passed to `fsing.cli.run`; the token INPUT stands for the path
    of the problem file, which is written at set-up either from `matrix`
    (a problem JSON object) or from the stdout of the `graphgen` argv.
    """

    id: str
    cls: str
    argv: Tuple[str, ...]
    graphgen: Optional[Tuple[str, ...]] = None
    matrix: Optional[str] = None


INPUT = "INPUT"


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: int
    classes: Tuple[Tuple[str, int, Tuple[Problem, ...]], ...]  # (class, per round, members)
    warmup: Tuple[Problem, ...] = field(default=())

    def universe(self) -> List[Problem]:
        out = list(self.warmup)
        for _, _, members in self.classes:
            out.extend(members)
        return out


# -- polynomials ------------------------------------------------------------------


def poly_text(shape: Shape, coeffs: Sequence[int], swap: bool) -> str:
    """c_0 x^u_0 + c_1 x^u_1 + ... with the variables swapped when `swap`."""
    parts = []
    for (a, b), c in zip(shape, coeffs):
        if swap:
            a, b = b, a
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in ((0, a), (1, b)) if e]
        parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return "+".join(parts)


def variants(shape: Shape, p: int, signs_only: bool = False) -> List[str]:
    """f in both variable orders, with leading coefficient 1 and every other
    coefficient any element of F_p^*, or only +1 and -1 when `signs_only`;
    duplicates from symmetric shapes removed."""
    seen = []
    coeff_lists = [[1]]
    allowed = sorted({1, p - 1}) if signs_only else range(1, p)
    for _ in shape[1:]:
        coeff_lists = [cs + [c] for cs in coeff_lists for c in allowed]
    for swap in (False, True):
        for cs in coeff_lists:
            text = poly_text(shape, cs, swap)
            if text not in seen:
                seen.append(text)
    return seen


def degree(shape: Shape) -> int:
    return max(a + b for a, b in shape)


CUSP: Shape = ((2, 0), (0, 3))
BINOMIALS: Tuple[Shape, ...] = (
    CUSP,                # A2
    ((2, 0), (0, 2)),    # A1
    ((2, 0), (0, 4)),    # A3
    ((2, 0), (0, 5)),    # A4
    ((3, 0), (1, 2)),    # D4
    ((2, 1), (0, 4)),    # D5
    ((3, 0), (0, 4)),    # E6
    ((4, 0), (0, 5)),
)
TRINOMIALS: Tuple[Shape, ...] = (
    ((2, 0), (1, 2), (0, 5)),
    ((1, 2), (0, 3), (4, 0)),
    ((3, 0), (2, 1), (0, 4)),
)


# -- bounds ---------------------------------------------------------------------


def pe_exponent(alpha: Fraction, p: int) -> int:
    """a with alpha = a / (q^c (q^d - 1)), d minimal (q = p): the power of f
    the stable test ideal is computed from."""
    den, c = alpha.denominator, 0
    while den % p == 0:
        den //= p
        c += 1
    if den == 1:
        return (alpha * p**c).numerator
    d, acc = 1, p % den
    while acc != 1:
        acc, d = (acc * p) % den, d + 1
    return (alpha * p**c * (p**d - 1)).numerator


def check_bounds(kind: str, size: Dict[str, int]) -> None:
    """Reject a problem whose visible size parameters exceed the admitted range.

    Measured outside the range: fjump of the cusp at p=11, e_max=2 takes
    about 20 s; bfun of the cusp graph at p=3, e_max=5 or p=5, e_max=3 about
    20 s; tau of a trinomial at a ~ 10^4 does not finish in minutes.
    """
    ok = True
    if kind == "fjump":
        grid = size["p"] ** size["e_max"]
        if size["terms"] == 2:
            ok = grid <= 49 and size["deg"] <= (5 if grid <= 16 else 4)
        else:
            # a trinomial at p=5, e_max=2 already takes over 1 s
            ok = size["terms"] == 3 and size["p"] <= 3 and grid <= 27 and size["deg"] <= 5
    elif kind == "tau":
        ok = size["a"] <= 12000 and size["deg"] <= 5
        if size["a"] > 600:
            ok = ok and size["terms"] == 2 and size["deg"] <= 3
    elif kind == "bfun":
        ok = size["p"] in (2, 3) and 3 <= size["e_max"] <= 4 and size["rank"] <= 2
        ok = ok and size["deg"] <= (4 if size["p"] ** size["e_max"] > 27 else 5)
    if not ok:
        raise ValueError(f"{kind} problem outside the admitted size range: {size}")


def _make(kind: str, cls: str, argv: List[str], size: Dict[str, int], **extra) -> Problem:
    check_bounds(kind, size)
    pid = " ".join(a for a in argv if a != "--json")
    if extra.get("graphgen"):
        pid = pid.replace(INPUT, "graph(" + " ".join(extra["graphgen"][1:]) + ")")
    elif extra.get("matrix"):
        pid = pid.replace(INPUT, extra["matrix"])
    return Problem(pid, cls, tuple(argv), **extra)


# -- fjump ------------------------------------------------------------------------


def _fjump(cls: str, shapes: Sequence[Shape], levels: Sequence[Tuple[int, int]],
           signs_only: bool = False) -> Tuple[Problem, ...]:
    out = []
    for p, e in levels:
        for shape in shapes:
            for f in variants(shape, p, signs_only):
                size = {"p": p, "e_max": e, "terms": len(shape), "deg": degree(shape)}
                argv = ["fjump", "--f", f, "-p", str(p), "--e-max", str(e), "--json"]
                out.append(_make("fjump", cls, argv, size))
    return tuple(out)


# The fjump classes use only the coefficients +1 and -1: the others change a
# solve's time by up to 2.5x, and the classes are drawn too few times per run
# to average that out.  The mix puts latency_p50_s near the middle of
# fjump.q16 and the p95 tail inside fjump.q49.
FJUMP = Workload(
    name="fjump",
    tail_percentile=95,
    classes=(
        ("fjump.q49", 1, _fjump("fjump.q49", (CUSP, BINOMIALS[4], BINOMIALS[5]), [(7, 2)], True)),
        ("fjump.q25", 1, _fjump("fjump.q25", [b for b in BINOMIALS if degree(b) <= 4], [(5, 2), (3, 3)], True)
            + _fjump("fjump.q25", TRINOMIALS, [(3, 3)], True)),
        ("fjump.q16", 10, _fjump("fjump.q16", BINOMIALS + TRINOMIALS, [(2, 3), (2, 4), (3, 2)], True)
            + _fjump("fjump.q16", BINOMIALS, [(7, 1)], True)),
    ),
    warmup=_fjump("warmup", (CUSP,), [(2, 2), (3, 1)]),
)


# -- tau ----------------------------------------------------------------------------


def _tau(cls: str, shapes: Sequence[Shape], p: int, alphas: Sequence[str],
         signs_only: bool = False) -> Tuple[Problem, ...]:
    out = []
    for alpha in alphas:
        a = pe_exponent(Fraction(alpha), p)
        for shape in shapes:
            for f in variants(shape, p, signs_only):
                size = {"p": p, "a": a, "terms": len(shape), "deg": degree(shape)}
                argv = ["tau", "--f", f, "-p", str(p), "--alpha", alpha, "--json"]
                out.append(_make("tau", cls, argv, size))
    return tuple(out)


TAU_SHAPES = (CUSP, BINOMIALS[3], BINOMIALS[4], BINOMIALS[5], TRINOMIALS[0])

# tau.large_a: a = 2232 (1/7), 3472 (2/9) and 11160 (5/7) at p = 5, where the
# power f^a dominates.  The trinomial tau at 5/7 (over 300 s) is left out for
# length; `check_bounds` admits only binomials of degree <= 3 above a = 600.
TAU = Workload(
    name="tau",
    tail_percentile=95,
    classes=(
        ("tau.large_a", 1, _tau("tau.large_a", (CUSP,), 5, ["5/7", "2/9", "1/7"], True)),
        ("tau.mid_a", 1, _tau("tau.mid_a", TAU_SHAPES[:3], 5, ["1/2", "1/3", "2/3", "3/4"], True)
            + _tau("tau.mid_a", TAU_SHAPES[:3], 7, ["1/2", "2/3", "5/6"], True)),
        ("tau.small", 8, _tau("tau.small", TAU_SHAPES, 2, ["1/3", "2/3", "1/5", "3/5", "1/7", "3/7"])
            + _tau("tau.small", TAU_SHAPES, 3, ["1/2", "1/4", "3/4", "2/5", "4/5"])),
    ),
    warmup=_tau("warmup", (CUSP,), 2, ["1/3"]) + _tau("warmup", (CUSP,), 3, ["1/2"]),
)


# -- bfun ---------------------------------------------------------------------------


def _bfun_graph(cls: str, shapes: Sequence[Shape], p: int, e_maxes: Sequence[int]) -> Tuple[Problem, ...]:
    out = []
    for e in e_maxes:
        for shape in shapes:
            for f in variants(shape, p):
                size = {"p": p, "e_max": e, "rank": 1, "deg": degree(shape)}
                argv = ["bfun", "--input", INPUT, "--e-max", str(e), "--json"]
                gg = ("graphgen", "--f", f, "-p", str(p))
                out.append(_make("bfun", cls, argv, size, graphgen=gg))
    return tuple(out)


RANK2 = (
    [["t", "1"], ["0", "t"]],
    [["t", "x0"], ["0", "t"]],
    [["t^2", "1"], ["0", "t"]],
    [["x0+t", "1"], ["0", "t"]],
    [["t", "0"], ["0", "x0*t"]],
    [["t", "x0"], ["x1", "t"]],
)


def _mono_degree(mono: str) -> int:
    """Total degree of a monomial such as 'x0*t^2' (the variable t included)."""
    if mono == "0":
        return 0
    return sum(int(f.split("^")[1]) if "^" in f else 1 for f in mono.split("*") if not f.isdigit())


def _bfun_matrix(cls: str, mats, primes: Sequence[int], e_maxes: Sequence[int]) -> Tuple[Problem, ...]:
    out = []
    for p in primes:
        for mat in mats:
            obj = {"p": p, "gamma": 1, "num_vars": 2, "rank": 2, "matrix": mat}
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            deg = max(_mono_degree(m) for row in mat for cell in row for m in cell.split("+"))
            for e in e_maxes:
                size = {"p": p, "e_max": e, "rank": 2, "deg": deg}
                argv = ["bfun", "--input", INPUT, "--e-max", str(e), "--json"]
                out.append(_make("bfun", cls, argv, size, matrix=text))
    return tuple(out)


BFUN_SHAPES = (CUSP, BINOMIALS[4], BINOMIALS[5], BINOMIALS[6])

# bfun.graph_p3e4, the cusp graph at e_max = 4, spends about 70% of its time
# in Poly.__add__ under listmod.h_expand; at e_max = 3 that share is 20-30%.
# The mix puts latency_p50_s inside bfun.small and the p87 tail at about
# the 0.64 quantile of bfun.graph_p3e3.  That class's times come in three
# bands by shape: A2 and D4 (half the members, 0.11-0.13 s), D5 (a quarter,
# 0.14-0.15 s) and E6 (a quarter, 0.17-0.20 s), as measured on a 2 vCPU
# x86-64 VM at the reference speed.  The 0.64 quantile stays inside the
# middle band however many rounds a run gets through; the class median (p85)
# would sit on the edge of the lowest band and jump between bands from seed
# to seed.  A4 (x0^2 + x1^5) is left out of the shapes, as its graphs take
# twice as long as the others'.
BFUN = Workload(
    name="bfun",
    tail_percentile=87,
    classes=(
        ("bfun.graph_p3e4", 1, _bfun_graph("bfun.graph_p3e4", (CUSP,), 3, [4])),
        ("bfun.graph_p3e3", 3, _bfun_graph("bfun.graph_p3e3", BFUN_SHAPES, 3, [3])),
        ("bfun.small", 12, _bfun_graph("bfun.small", BFUN_SHAPES, 2, [3, 4])
            + _bfun_matrix("bfun.small", RANK2, [2, 3], [3, 4])),
    ),
    warmup=_bfun_graph("warmup", (CUSP,), 2, [3]) + _bfun_matrix("warmup", RANK2[:1], [3], [3]),
)

WORKLOADS = {w.name: w for w in (FJUMP, TAU, BFUN)}


def rounds(workload: Workload, seed: int, count: int) -> List[List[Problem]]:
    """The first `count` rounds of the seeded problem sequence."""
    rng = random.Random(f"{workload.name}/{seed}")
    queues: Dict[str, List[Problem]] = {cls: [] for cls, _, _ in workload.classes}
    out = []
    for _ in range(count):
        batch = []
        for cls, per_round, members in workload.classes:
            queue = queues[cls]
            for _ in range(per_round):
                if not queue:
                    queue.extend(rng.sample(members, len(members)))
                batch.append(queue.pop())
        rng.shuffle(batch)
        out.append(batch)
    return out
