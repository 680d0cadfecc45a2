"""Matrix lists, the H^e_n(tau) expansion of A(t)^{e-1}, and list test modules.

A matrix list {A_{k,n}} packages a square matrix A(t) = sum A_{k,n} t^{kq+n}
over R[t].  Iterated twisted products A^{e-1} = A^[q^{e-1}] ... A^[q] A split
along t-exponents v = q^e k + n into matrices H^e_n(tau) over R[tau]
(`h_expand`); the list test modules and their jump sets S_e are sums of the
Frobenius roots (H^{e+1}_n)^[1/q^{e+1}] of their column spans, and the jump
sets at successive e feed a periodic-digit fit that recovers exact rational
jumping numbers.  Those roots are never taken of the product itself: a
digit-wise walk (`_RootWalk`) reaches each one in e+1 one-level steps along
the base-q digits of n, through finitely many states.  The states and steps
are a `frobenius._RootGraph`, the graph the test ideals of `testideal` run
on too, with the digit slices of A(t) as its multipliers in place of f^d,
so each (state, digit) step is taken once per call.  A level's running sum
is a step function on its grid, kept as its breaks and built from the level
below (`_RootWalk.levels`), and its jump set is read off the breaks
(`_jump_report`).  The running sums live
on the same graph (`_RootGraph.add`): a sum is keyed by the canonical keys
of its two terms, and each span is one object, a state where a sum reaches a
state's span.  The levels e = 0..e_max of `estimate_jumping_numbers` share
it, so a sum that several levels reach costs one reduced basis in all, and
a level costs q (breaks + 1) lookups: b_function of the cusp graph at p=3
computes 10 bases at e_max 4 and 10 alike, and at p=5 takes about a
millisecond at e_max 12.  Every list entry point takes a `MatrixList` or
the `TMatrix` A(t) itself; a list is assembled once.  A list level e or
e_max is capped at `frobenius.MAX_LEVEL`, and the product A^{e-1} that
`h_expand` forms at `MAX_EXPANSION_TERMS`.

Jump-set elements stay on the integer grid from the walk to the report: an
element of S_e is its numerator m on the grid q^{e+1}, held by a
`GridRational` (m, e, cfg), and the chain match (`_build_chains`) compares
numerators, not values.  A `Fraction` is built only where the API hands one
out: `GridRational.value`, a chain's witnesses and limit, and the report's
estimates.

A simple list r_0 .. r_{q-1} is the 1x1 matrix list A(t) = sum r_n t^n, and
its test ideals are read off that list's walk.  A step keeps the t-exponents
m = r (mod q) of A K and roots t^m to t^(m div q); with deg_t A < q no state
leaves the t^0 slot, even when r_{q-1} != 0 gives the walk rank 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InternalConsistencyError, ProblemFormatError, ResourceLimitExceeded
# frobenius_root stays importable from here: perfbench/tracer.py rebinds it in
# every fsing module that holds it, and its tests expect listmod among them.
from .frobenius import _check_level, _RootGraph, _Table, frobenius_root  # noqa: F401
from .modgb import Submodule
from .polyring import (
    MAX_VARS, CharConfig, Monomial, Poly, Ring, check_char, frobenius_power, poly_parse,
)
from .rationals import GridRational, detect_chain_limit, frac_ceil

Matrix = tuple[tuple[Poly, ...], ...]
# a scan m -> scan(m) as its breaks (m, scan(m)): m = 0 and each m where it changes
Breaks = list[tuple[int, Submodule]]

# Cap on the terms of the product A^{e-1} that `h_expand` forms, checked
# before any product as the bound T^e, T the term total of A(t): a matrix
# product has at most the product of its factors' term totals, and a
# Frobenius twist keeps them.  The cusp graph's e = 6 at p = 3 (46,656 terms)
# takes about 0.3 s, e = 7 (279,936) about 1 s, and the tests need e <= 3.
MAX_EXPANSION_TERMS = 100_000
# Cap on the q of a list walk, checked before its digit slices are built: a
# walk takes q steps at every level, so s_set(x0^2 + t, 1) takes about 0.04 s
# at q = 2^12 and 0.2 s at 2^14, and q = 2^30, which `CharConfig` accepts,
# would run for hours.  The tests and benchmarks walk at q <= 5.
MAX_WALK_Q = 2**14
# Cap on a problem file's rank R, checked before any entry is read: a file
# of a few bytes with an empty list asks for R^2 matrix cells and a walk in
# R^{R(N+1)}: `sset --e 1` takes about 0.3 s and 48 MB at R = 400, and
# R = 10^5 would exhaust memory.  The tests and benchmarks use R <= 2.
MAX_RANK = 64


def _mat_check(mat: Sequence[Sequence[Poly]], l: int, ring: Ring) -> Matrix:
    if len(mat) != l or any(len(row) != l for row in mat):
        raise ValueError(f"matrix is not {l}x{l}")
    for row in mat:
        for entry in row:
            if entry.ring != ring:
                raise ValueError("matrix entries live in the wrong ring")
    return tuple(tuple(row) for row in mat)


def _mat_is_zero(mat: Matrix) -> bool:
    return all(entry.is_zero() for row in mat for entry in row)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    l = len(a)
    out = []
    for i in range(l):
        row = []
        for j in range(l):
            acc = Poly.zero(a[0][0].ring)
            for k in range(l):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _mat_frob(a: Matrix, e: int, cfg: CharConfig) -> Matrix:
    return tuple(tuple(frobenius_power(x, e, cfg) for x in row) for row in a)


@dataclass(frozen=True)
class MatrixList:
    """Finitely many l x l matrices A_{k,n} over R, with k >= 0, 0 <= n < q."""

    l: int
    cfg: CharConfig
    base_ring: Ring
    entries: Dict[Tuple[int, int], Matrix]

    def __post_init__(self):
        if self.base_ring.extra is not None:
            raise ValueError("matrix list entries must live in the pure ring R")
        check_char(self.base_ring, self.cfg, "matrix")
        cleaned = {}
        for (k, n), mat in self.entries.items():
            if k < 0 or not (0 <= n < self.cfg.q):
                raise ValueError(f"index ({k}, {n}) out of range for q={self.cfg.q}")
            mat = _mat_check(mat, self.l, self.base_ring)
            if not _mat_is_zero(mat):
                cleaned[(k, n)] = mat
        object.__setattr__(self, "entries", cleaned)

    def is_zero(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class TMatrix:
    """A square matrix over R[t]."""

    mat: Matrix
    cfg: CharConfig

    def __post_init__(self):
        l = len(self.mat)
        ring = self.mat[0][0].ring
        if ring.extra != "t":
            raise ValueError("TMatrix entries must live in R[t]")
        check_char(ring, self.cfg, "matrix")
        object.__setattr__(self, "mat", _mat_check(self.mat, l, ring))

    @property
    def l(self) -> int:
        return len(self.mat)

    @property
    def ring(self) -> Ring:
        return self.mat[0][0].ring

    @property
    def tdeg(self) -> int:
        slot = self.ring.width - 1
        degs = [e.degree_in(slot) for row in self.mat for e in row if not e.is_zero()]
        return max(degs, default=0)

    def is_zero(self) -> bool:
        return _mat_is_zero(self.mat)


@dataclass(frozen=True)
class HFamily:
    """The matrices H^e_n(tau) with A^{e-1} = sum_n H^e_n(t^{q^e}) t^n.

    Only the nonzero n are stored.  tau_bound is floor(d/(q-1)) where d is
    the t-degree of A(t); every entry respects deg_tau <= tau_bound.
    """

    e: int
    l: int
    d: int
    tau_bound: int
    cfg: CharConfig
    table: Dict[int, Matrix] = field(default_factory=dict)

    def matrix(self, n: int) -> Optional[Matrix]:
        return self.table.get(n)


def assemble_A(mlist: MatrixList) -> TMatrix:
    """A(t) = sum over (k, n) of A_{k,n} t^{kq+n}.

    Distinct (k, n) give distinct powers of t, so each cell's term map is
    filled directly: no term is met twice."""
    q, l = mlist.cfg.q, mlist.l
    cells: List[List[Dict[Monomial, int]]] = [[{} for _ in range(l)] for _ in range(l)]
    for (k, n), mat in sorted(mlist.entries.items()):
        for row, cell_row in zip(mat, cells):
            for x, cell in zip(row, cell_row):
                cell.update((m + (k * q + n,), c) for m, c in x.terms.items())
    t_ring = mlist.base_ring.with_extra("t")
    return TMatrix(tuple(tuple(Poly(t_ring, cell) for cell in row) for row in cells), mlist.cfg)


def _matrix_of(A: TMatrix | MatrixList, cfg: CharConfig) -> TMatrix:
    """A(t) at cfg: the matrix itself, or a list assembled once."""
    if cfg != A.cfg:
        raise ValueError("characteristic mismatch between matrix and config")
    return assemble_A(A) if isinstance(A, MatrixList) else A


def _twisted_power(A: TMatrix, e: int, cfg: CharConfig) -> Matrix:
    """A^{e-1} = A^[q^{e-1}] ... A^[q] A, with e matrix factors."""
    prod = A.mat
    for k in range(1, e):
        prod = _mat_mul(_mat_frob(A.mat, k, cfg), prod)
    return prod


def h_expand(A: TMatrix | MatrixList, e: int, cfg: CharConfig) -> HFamily:
    """Split A^{e-1} along t-exponents v = q^e k + n into the H^e_n(tau).

    The family is checked against A^{e-1} by `_validate_family`.  A level e
    past `frobenius.MAX_LEVEL`, or a bound T^e on the terms of A^{e-1} past
    `MAX_EXPANSION_TERMS`, raises `ResourceLimitExceeded` before any product.
    """
    A = _matrix_of(A, cfg)
    if e < 1:
        raise ValueError("e must be positive")
    _check_level(e, "the expansion level e")
    total = sum(len(entry.terms) for row in A.mat for entry in row)
    if total**e > MAX_EXPANSION_TERMS:
        raise ResourceLimitExceeded(
            f"A^{e - 1} may reach {total}^{e} terms, past the cap of {MAX_EXPANSION_TERMS}"
        )
    prod = _twisted_power(A, e, cfg)
    q_e = cfg.q**e
    l = A.l
    d = A.tdeg
    bound = d // (cfg.q - 1)
    tau_ring = A.ring.base().with_extra("tau")

    z = Poly.zero(tau_ring)
    table = _Table(lambda n: [[z] * l for _ in range(l)])
    for i in range(l):
        for j in range(l):
            for v, coeff in prod[i][j].split_extra().items():
                k, n = divmod(v, q_e)
                mat = table[n]
                mat[i][j] = mat[i][j] + coeff.lift_to(tau_ring, k)

    frozen = {n: tuple(tuple(row) for row in mat) for n, mat in table.items()}
    fam = HFamily(e, l, d, bound, cfg, frozen)
    _validate_family(fam, A, prod)
    return fam


def _validate_family(fam: HFamily, A: TMatrix, prod: Matrix) -> None:
    """Check the tau-degree bound and that sum_n H^e_n(t^{q^e}) t^n is prod.

    The reassembly re-keys every term x^a tau^k of H^e_n to x^a t^{k q^e + n}
    in one term map per matrix cell, so it is linear in the size of prod.
    """
    q_e = fam.cfg.q**fam.e
    p = fam.cfg.p
    rebuilt: List[List[Dict[Monomial, int]]] = [
        [{} for _ in range(fam.l)] for _ in range(fam.l)
    ]
    for n, mat in fam.table.items():
        for i, row in enumerate(mat):
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                tau_slot = entry.ring.width - 1
                if entry.degree_in(tau_slot) > fam.tau_bound:
                    raise InternalConsistencyError(
                        f"H^{fam.e}_{n} exceeds the tau-degree bound {fam.tau_bound}"
                    )
                cell = rebuilt[i][j]
                for mono, c in entry.terms.items():
                    key = mono[:-1] + (mono[-1] * q_e + n,)
                    cell[key] = cell.get(key, 0) + c
    reproduced = len(prod) == fam.l and all(
        len(prod_row) == fam.l
        and all(
            target.ring == A.ring
            and {m: c % p for m, c in cell.items() if c % p} == target.terms
            for cell, target in zip(row, prod_row)
        )
        for row, prod_row in zip(rebuilt, prod)
    )
    if not reproduced:
        raise InternalConsistencyError(
            f"reassembly of H^{fam.e} does not reproduce A^{fam.e - 1}"
        )


# -- running sums and jump sets -----------------------------------------------


@dataclass(frozen=True)
class SeReport:
    """The jump set S_e of a list, on the grid m / q^{e+1}."""

    e: int
    jumps: Tuple[GridRational, ...]

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(j.value for j in self.jumps)


def _grid_index(lam: GridRational, e: int, cfg: CharConfig) -> int:
    _check_level(e, "the list level e")
    m = frac_ceil(lam.value * cfg.q ** (e + 1))
    if not (0 < m <= cfg.q ** (e + 1)):
        raise ValueError("lambda must lie in (0, 1]")
    return m


def _jump_report(breaks: Breaks, e: int, cfg: CharConfig) -> SeReport:
    """Grid points m/q^{e+1} in (0,1) where the scan strictly grows next: m + 1 is a break."""
    return SeReport(e, tuple(GridRational(m - 1, e, cfg) for m, _ in breaks if m > 1))


# -- the digit-wise walk ------------------------------------------------------


def _digit_slices(A: TMatrix, rank: int) -> List[_Table]:
    """The digit-r slices of A(t) on R^rank, r < q: the multipliers of a
    walk's steps in R^{l(N+1)}, N = rank // l - 1.

    Coordinate s*l + i is slot i of t^s.  The step of digit r multiplies
    each generator v(t) by A(t), keeps the terms x^a t^m with m = r (mod q)
    and roots them one level in x and t: x^a t^m goes to the x-residue
    a mod q with coefficient x^(a div q) t^(m div q).  The slice is the
    t-part; `_RootGraph.child` roots x.  Slice r maps coordinate idx to the
    terms (k l + i, a, c) that send x^w t^s in slot j to c x^(w+a) in slot i
    of t^k: c x^a t^m in row i of column j with m + s = k q + r.  A slice is
    a `_Table` that builds a row at its first use, since a walk's states
    touch few of the rank slots, and the q slices share one `_Table` of
    columns, which splits the column of a coordinate by digit in one pass
    for all of them.
    A child's t-degree is at most floor((d + N)/q) <= N; a coordinate that
    A(t) would carry past N is an internal error, raised here for the whole
    walk.  The shift grows with the slot, so column j's top slot
    (rank - 1 - j) // l, which is N when l divides the rank, alone decides."""
    q, l, bound = A.cfg.q, A.l, rank // A.l - 1
    if any(
        (mono[-1] + (rank - 1 - j) // l) // q > bound
        for row in A.mat for j, entry in enumerate(row) for mono in entry.terms
    ):
        raise InternalConsistencyError(
            f"a Frobenius-root state exceeds the tau-degree bound {bound}"
        )

    def column(idx: int) -> Dict[int, list]:
        s, j = divmod(idx, l)
        buckets: Dict[int, list] = {}
        for i in range(l):
            for m, c in A.mat[i][j].terms.items():
                k, r = divmod(m[-1] + s, q)
                buckets.setdefault(r, []).append((k * l + i, m[:-1], c))
        return buckets

    columns = _Table(column)
    return [_Table(lambda idx, r=r: columns[idx].get(r, ())) for r in range(q)]


class _RootWalk:
    """The Frobenius-root states of A(t), on one `_RootGraph` per walk.

    With N = floor(d/(q-1)), the piece (H^{e+1}_n)^[1/q^{e+1}] of the level-e
    scan is the state K_{e+1}, where K_0 is spanned by the unit vectors of
    the t^0 slots and K_{i+1} = step(K_i, n_i) for the base-q digits n_i of
    n, lowest first (see `_digit_slices`).  That is exact: the level-e
    product is P_e = P_{e-1}^[q] A with Frobenius acting on t as well, a
    root of B^[q] K is B times the root of K, and roots compose.  The graph
    takes each (state, digit) step once for the life of the walk and keeps
    the running sums of its levels, which start from `zero`; `levels` steps
    the sums of the level below, not the pieces.  A walk takes a
    `MatrixList` or A(t) itself, and builds the digit slices of A(t) for
    its one rank once (`_digit_slices`): they are its graph's multipliers.
    A q past `MAX_WALK_Q` raises `ResourceLimitExceeded` before they are.
    """

    def __init__(self, A: TMatrix | MatrixList, cfg: CharConfig):
        A = _matrix_of(A, cfg)
        if cfg.q > MAX_WALK_Q:
            raise ResourceLimitExceeded(
                f"q = {cfg.q} exceeds the list walk's cap of {MAX_WALK_Q}"
            )
        rank = A.l * (A.tdeg // (cfg.q - 1) + 1)
        ring = A.ring.base()
        units = [{(i, (0,) * ring.width): 1} for i in range(A.l)]
        self.start = Submodule._spanned(rank, ring, units)
        self.zero = Submodule.zero(rank, ring)
        self.graph = _RootGraph(_digit_slices(A, rank), cfg)

    def piece(self, n: int, e: int) -> Submodule:
        """The piece at n on level e: e + 1 steps along the digits of n."""
        return self.graph.walk(self.start, n, e + 1)[0]

    def levels(self, e_max: int) -> Iterator[Breaks]:
        """The scans of levels e = 0 .. e_max in turn, each as its breaks.

        scan_e(m) is the sum of the pieces at n < m, m = 0 .. q^{e+1}.  Roots
        are additive and a piece's top digit is its last step, so with
        m = d q^e + m', m' < q^e, and U = scan_{e-1}(q^e),
        scan_e(m) = step(U, 0) + ... + step(U, d-1) + step(scan_{e-1}(m'), d).
        Level e changes only at d q^e + m' for the breaks m' of level e-1,
        and costs q (breaks + 1) graph lookups; level -1 is 0 below 1 and
        the start state at 1.
        """
        graph, q = self.graph, self.graph.q
        breaks: Breaks = [(0, self.zero), (1, self.start)]
        for e in range(e_max + 1):
            size, top, acc = q**e, breaks[-1][1], self.zero
            steps: Breaks = []
            for d in range(q):
                steps += [
                    (d * size + m, graph.add(acc, graph.child(S, d))) for m, S in breaks if m < size
                ]
                acc = graph.add(acc, graph.child(top, d))
            steps.append((q * size, acc))
            # steps[0] is (0, zero); a step is a break when its span is not the last one's
            breaks = steps[:1] + [
                (m, S) for (_, last), (m, S) in zip(steps, steps[1:]) if S is not last and S != last
            ]
            yield breaks


def _level(A: TMatrix | MatrixList, e: int, cfg: CharConfig) -> Breaks:
    """The breaks of the level-e scan of A."""
    if e < 0:
        raise ValueError("e must be non-negative")
    _check_level(e, "the list level e")
    *_, breaks = _RootWalk(A, cfg).levels(e)
    return breaks


def ltm_scan(A: TMatrix | MatrixList, e: int, cfg: CharConfig) -> List[Submodule]:
    """Cumulative list test modules at the grid points m/q^{e+1}, m = 1..q^{e+1}.

    Index m-1 of the returned list is tau({A_{k,n}}, m/q^{e+1}, e), read
    off the level's breaks, so equal entries are one object.  The modules
    are exact (spans and `==` are those of the pruned roots), but their
    generator lists are not irredundant.
    """
    breaks = _level(A, e, cfg)
    ends = [m for m, _ in breaks[1:]] + [cfg.q ** (e + 1) + 1]
    return [S for (m, S), end in zip(breaks, ends) for _ in range(max(m, 1), end)]


def list_test_module(
    A: TMatrix | MatrixList, lam: GridRational, e: int, cfg: CharConfig
) -> Submodule:
    """tau({A_{k,n}}, lambda, e) inside R^{l(N+1)}, N = floor(d/(q-1)): the
    level's last break at or below lambda's grid index.

    As with `ltm_scan`, the generator list of the result is not irredundant.
    """
    m = _grid_index(lam, e, cfg)
    return next(S for b, S in reversed(_level(A, e, cfg)) if b <= m)


def s_set(A: TMatrix | MatrixList, e: int, cfg: CharConfig) -> SeReport:
    """Grid points in (0,1) where the list test module strictly grows next."""
    return _jump_report(_level(A, e, cfg), e, cfg)


# -- simple lists: the 1x1 matrix list ----------------------------------------


def _simple_list(r: Sequence[Poly], cfg: CharConfig) -> MatrixList:
    """The 1x1 matrix list A(t) = sum r_n t^n; `MatrixList` checks the rings."""
    if len(r) != cfg.q:
        raise ValueError(f"list has length {len(r)}, expected q = {cfg.q}")
    return MatrixList(1, cfg, r[0].ring, {(0, n): ((r_n,),) for n, r_n in enumerate(r)})


def _rank_one(K: Submodule) -> Submodule:
    """A module of a simple list's walk, which lies in the t^0 slot, as an ideal of R."""
    if any(pos for v in K._flats for pos, _ in v):
        raise InternalConsistencyError("a simple-list module leaves the t^0 slot")
    return Submodule._from_flats(1, K.ring, K._flats)


def simple_list_I(
    r: Sequence[Poly], lam: GridRational, e: int, cfg: CharConfig
) -> Submodule:
    """(r_{i_0} r_{i_1}^q ... r_{i_e}^{q^e})^[1/q^{e+1}] at the grid point lam."""
    mlist = _simple_list(r, cfg)
    m = _grid_index(lam, e, cfg)
    return _rank_one(_RootWalk(mlist, cfg).piece(m - 1, e))


def simple_tau_scan(r: Sequence[Poly], e: int, cfg: CharConfig) -> List[Submodule]:
    """Cumulative simple list test ideals at m = 1 .. q^{e+1} (index m-1).

    As in `ltm_scan`, equal entries are one object."""
    scan = ltm_scan(_simple_list(r, cfg), e, cfg)
    ideals = {id(K): _rank_one(K) for K in scan}
    return [ideals[id(K)] for K in scan]


def simple_list_tau(
    r: Sequence[Poly], lam: GridRational, e: int, cfg: CharConfig
) -> Submodule:
    """Sum of simple_list_I over all grid points up to lam, read off the level's breaks."""
    return _rank_one(list_test_module(_simple_list(r, cfg), lam, e, cfg))


def s_set_simple(r: Sequence[Poly], e: int, cfg: CharConfig) -> SeReport:
    """Grid points in (0,1) where the cumulative ideal strictly grows next."""
    return s_set(_simple_list(r, cfg), e, cfg)


@dataclass(frozen=True)
class ChainEstimate:
    """One matched chain of jump-set elements across levels e."""

    start_e: int
    numerators: Tuple[int, ...]
    witnesses: Tuple[Fraction, ...]
    reached_emax: bool
    limit: Optional[Fraction] = None
    preperiod: Optional[int] = None
    period: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.limit is not None and self.reached_emax


@dataclass(frozen=True)
class JumpReport:
    s_sets: Dict[int, SeReport]
    chains: Tuple[ChainEstimate, ...]
    estimates: Tuple[Fraction, ...]

    @property
    def unresolved(self) -> Tuple[ChainEstimate, ...]:
        return tuple(c for c in self.chains if not c.resolved)


def _build_chains(
    s_sets: Dict[int, SeReport], e_max: int, cfg: CharConfig
) -> List[List[Tuple[int, int]]]:
    """Match each S_{e} element to the nearest S_{e-1} element, ties upward.

    Returns root-to-leaf paths of (e, numerator) pairs, sorted stably by
    their first node.  The match runs on the numerators: m/q^{e+1} and
    h/q^e are q^{e+1} apart by |h q - m|, so the key (|h q - m|, -h) orders
    the candidates h as their values would.  Each element extends the path
    of its match; a path of the level below that no element extends is a
    leaf, and so is every path at e_max.
    """
    q = cfg.q
    paths: List[List[Tuple[int, int]]] = []
    below: Dict[int, List[Tuple[int, int]]] = {}
    for e in range(e_max + 1):
        level: Dict[int, List[Tuple[int, int]]] = {}
        extended = set()
        for m in (g.m for g in s_sets[e].jumps):
            best = min(below, key=lambda h: (abs(h * q - m), -h), default=None)
            extended.add(best)
            level[m] = below.get(best, []) + [(e, m)]
        paths += [path for h, path in below.items() if h not in extended]
        below = level
    paths += below.values()
    paths.sort(key=lambda path: path[0])
    return paths


def estimate_jumping_numbers(
    A: TMatrix | MatrixList, cfg: CharConfig, e_max: int
) -> JumpReport:
    """Chains of jump-set elements snapped to exact limits c/(q^a (q^b - 1)).

    Each chain's numerators satisfy m_{e+b} = q^b m_e + c once periodic; the
    fit window (preperiod and period) is max(1, e_max // 2).  Chains with no
    fit, or that die out before e_max, are reported unresolved.  The levels
    e = 0..e_max come from one `_RootWalk`, whose graph and sums are freed
    when the call returns.
    """
    if e_max < 2:
        raise ValueError("e_max must be at least 2")
    _check_level(e_max, "e_max")
    s_sets = {
        e: _jump_report(breaks, e, cfg)
        for e, breaks in enumerate(_RootWalk(A, cfg).levels(e_max))
    }
    window = max(1, e_max // 2)
    chains = []
    for path in _build_chains(s_sets, e_max, cfg):
        start_e = path[0][0]
        nums = tuple(m for _, m in path)
        witnesses = tuple(
            Fraction(m, cfg.q ** (e + 1)) for e, m in path
        )
        reached = path[-1][0] == e_max
        fit = detect_chain_limit(nums, start_e, cfg, window)
        if fit is None:
            chains.append(ChainEstimate(start_e, nums, witnesses, reached))
        else:
            chains.append(
                ChainEstimate(
                    start_e, nums, witnesses, reached,
                    fit.limit, fit.preperiod, fit.period,
                )
            )
    estimates = tuple(
        sorted({c.limit for c in chains if c.resolved})
    )
    return JumpReport(s_sets, tuple(chains), estimates)


# -- problem files ------------------------------------------------------------


def _require(obj: dict, key: str, kind) -> object:
    if key not in obj:
        raise ProblemFormatError(f"missing field '{key}'")
    val = obj[key]
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ProblemFormatError(f"field '{key}' must be of type {kind.__name__}")
    return val


def _parse_matrix(rows, l: int, ring: Ring, where: str) -> Matrix:
    if not isinstance(rows, list) or len(rows) != l:
        raise ProblemFormatError(f"{where}: expected {l} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != l:
            raise ProblemFormatError(f"{where}: row {i} must have {l} entries")
        parsed = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ProblemFormatError(
                    f"{where}: entry ({i},{j}) must be a polynomial string"
                )
            parsed.append(poly_parse(cell, ring))
        out.append(tuple(parsed))
    return tuple(out)


def load_problem(obj: dict):
    """Parse a problem dict into (TMatrix | MatrixList, CharConfig)."""
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem must be a JSON object")
    p = _require(obj, "p", int)
    gamma = _require(obj, "gamma", int)
    num_vars = _require(obj, "num_vars", int)
    rank = _require(obj, "rank", int)
    if rank < 1:
        raise ProblemFormatError("field 'rank' must be positive")
    if rank > MAX_RANK:
        raise ProblemFormatError(f"field 'rank' exceeds the cap of {MAX_RANK}")
    if num_vars < 0:
        raise ProblemFormatError("field 'num_vars' must be non-negative")
    if num_vars > MAX_VARS:
        raise ProblemFormatError(f"field 'num_vars' exceeds the cap of {MAX_VARS}")
    try:
        cfg = CharConfig(p, gamma)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    has_matrix = "matrix" in obj
    has_list = "list" in obj
    if has_matrix == has_list:
        raise ProblemFormatError("exactly one of 'matrix' or 'list' is required")
    base = Ring(p, num_vars)
    if has_matrix:
        t_ring = base.with_extra("t")
        mat = _parse_matrix(obj["matrix"], rank, t_ring, "matrix")
        return TMatrix(mat, cfg), cfg
    entries = {}
    if not isinstance(obj["list"], list):
        raise ProblemFormatError("field 'list' must be an array")
    for idx, item in enumerate(obj["list"]):
        if not isinstance(item, dict):
            raise ProblemFormatError(f"list[{idx}] must be an object")
        k = _require(item, "k", int)
        n = _require(item, "n", int)
        if k < 0 or not (0 <= n < cfg.q):
            raise ProblemFormatError(
                f"list[{idx}]: index (k={k}, n={n}) out of range for q={cfg.q}"
            )
        if "matrix" not in item:
            raise ProblemFormatError(f"list[{idx}]: missing field 'matrix'")
        mat = _parse_matrix(item["matrix"], rank, base, f"list[{idx}].matrix")
        if (k, n) in entries:
            raise ProblemFormatError(f"list[{idx}]: duplicate index ({k}, {n})")
        entries[(k, n)] = mat
    return MatrixList(rank, cfg, base, entries), cfg


def load_problem_file(path: str):
    """Load a problem file: JSON bytes in UTF-8, -16 or -32, a BOM allowed,
    whatever the locale."""
    try:
        with open(path, "rb") as fh:
            obj = json.loads(fh.read())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemFormatError(f"problem file is not valid JSON: {exc}") from None
    except ValueError as exc:  # a number past int's digit limit
        raise ProblemFormatError(f"problem file holds a number too long to read: {exc}") from None
    except RecursionError:
        raise ProblemFormatError("problem file nests its arrays or objects too deeply") from None
    return load_problem(obj)
