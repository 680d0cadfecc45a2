"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines
on the terminal (plain pytest captures them unless a test fails).
"""

import random
import time
from fractions import Fraction

from fsing.bfun import b_function, graph_generator
from fsing.frobenius import bracket_power, frobenius_root
from fsing.listmod import (
    TMatrix,
    estimate_jumping_numbers,
    h_expand,
    ltm_scan,
    s_set,
    s_set_simple,
    simple_tau_scan,
)
from fsing.modgb import Submodule, VectorR, contains_all
from fsing.polyring import CharConfig, Poly, Ring, poly_parse
from fsing.testideal import f_jumping_exponents

from matrix_lists import decompose
from test_listmod import h_recursion_check


def tmat(cfg, nvars, rows):
    ring = Ring(cfg.p, nvars, "t")
    return TMatrix(tuple(tuple(poly_parse(c, ring) for c in row) for row in rows), cfg)


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(
            f"{status} criterion {self.number}: {self.label} "
            f"({elapsed:.2f}s, budget {self.budget:.0f}s)",
            flush=True,
        )
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded time budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_tame_end_to_end():
    with Criterion(1, "tame q=3, A=[t]: S_e sets, jumping number 1/2, b = s - 1/2", 5):
        cfg = CharConfig(3)
        A = tmat(cfg, 0, [["t"]])
        ml = decompose(A)
        want = {0: [Fraction(1, 3)], 1: [Fraction(4, 9)], 2: [Fraction(13, 27)]}
        for e in range(3):
            assert [g.value for g in s_set(ml, e, cfg).jumps] == want[e]
        report = estimate_jumping_numbers(ml, cfg, 4)
        assert report.estimates == (Fraction(1, 2),)
        res = b_function(A, cfg, 4)
        assert res.roots == (Fraction(1, 2),)
        assert res.unresolved == ()


def test_criterion_2_tame_j_independence():
    with Criterion(2, "tame q=3, j=2, A=[t^3]: same root set {1/2}", 5):
        cfg = CharConfig(3)
        res = b_function(tmat(cfg, 0, [["t^3"]]), cfg, 4)
        assert res.roots == (Fraction(1, 2),)
        assert res.unresolved == ()


def test_criterion_3_wild_example():
    with Criterion(3, "wild q=2: S_e collapse onto {m/2}, roots divide s(s-1/2)", 10):
        cfg = CharConfig(2)
        A = tmat(cfg, 0, [["t", "1"], ["0", "t"]])
        report = estimate_jumping_numbers(decompose(A), cfg, 6)
        assert all(c.resolved for c in report.chains)
        # every jump-set element for e <= 3 sits on a chain whose exact limit
        # has the collapsed form m/2
        half_grid = {Fraction(1, 2), Fraction(1)}
        assert set(report.estimates) <= half_grid
        for e in range(4):
            for g in report.s_sets[e].jumps:
                owners = [
                    c for c in report.chains
                    if g.value in c.witnesses
                ]
                assert owners and all(c.limit in half_grid for c in owners)
        # divisibility against prod_{0<=a<2}(s - a/2), with the root at the
        # a=0 factor represented by 1 under the (0,1] convention
        res = b_function(A, cfg, 6)
        allowed = {Fraction(1, 2), Fraction(1)}
        assert set(res.roots) <= allowed
        assert len(res.roots) == len(set(res.roots))
        assert res.unresolved == ()


def test_criterion_4_graph_generator_vs_simple_list():
    with Criterion(4, "graph of x0^2 over F_3 equals simple list; jump 1/2", 10):
        cfg = CharConfig(3)
        ring = Ring(3, 1)
        f = poly_parse("x0^2", ring)
        A = graph_generator(f, cfg)
        ml = decompose(A)
        r = [f**2, f, Poly.const(ring, 1)]
        rank = A.tdeg // (cfg.q - 1) + 1
        for e in range(3):
            mods = ltm_scan(ml, e, cfg)
            simple = simple_tau_scan(r, e, cfg)
            assert len(mods) == len(simple)
            for got, want in zip(mods, simple):
                embedded = Submodule(
                    rank,
                    tuple(
                        VectorR(v.entries + (Poly.zero(ring),) * (rank - 1))
                        for v in want.generators
                    ),
                    ring,
                )
                assert got == embedded
        report = estimate_jumping_numbers(ml, cfg, 4)
        assert Fraction(1, 2) in report.estimates
        # 1/2 = 1 - alpha for the F-jumping exponent alpha = 1/2 of x0^2
        assert Fraction(1, 2) in f_jumping_exponents(f, cfg, 4)


def test_criterion_5_f_jumping_exponents():
    with Criterion(5, "F-jumping exponents: x0^3/F_2 and x0^2/F_3, e_max=5", 10):
        cfg2 = CharConfig(2)
        got2 = f_jumping_exponents(poly_parse("x0^3", Ring(2, 1)), cfg2, 5)
        assert got2 == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]
        cfg3 = CharConfig(3)
        got3 = f_jumping_exponents(poly_parse("x0^2", Ring(3, 1)), cfg3, 5)
        assert got3 == [Fraction(1, 2), Fraction(1)]


def _random_poly(rng, ring, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


def test_criterion_6_frobenius_root_properties():
    with Criterion(6, "200 random submodules: containment, roundtrip, bounds", 60):
        rng = random.Random(2026)
        for trial in range(200):
            p = rng.choice([2, 3])
            cfg = CharConfig(p)
            nvars = rng.randint(1, 2)
            ring = Ring(p, nvars)
            rank = rng.randint(1, 3)
            e = rng.choice([1, 2])
            gens = [
                VectorR(tuple(_random_poly(rng, ring, 6) for _ in range(rank)))
                for _ in range(rng.randint(1, 2))
            ]
            N = Submodule(rank, gens, ring)
            rooted = frobenius_root(N, e, cfg)
            # defining containment: N inside the bracket power of its root
            if rooted.generators:
                assert contains_all(bracket_power(rooted, e, cfg), N.generators)
                # degree bound from the coefficient-extraction construction
                bound = max(v.total_degree() for v in gens) // cfg.q**e
                assert rooted.max_generator_degree() <= bound
            else:
                assert N.is_zero()
            # root of bracket is the identity
            assert frobenius_root(bracket_power(N, e, cfg), e, cfg) == N
            # monotonicity: enlarging N cannot shrink the root
            extra = VectorR(
                tuple(_random_poly(rng, ring, 4) for _ in range(rank))
            )
            bigger = Submodule(rank, gens + [extra], ring)
            assert rooted <= frobenius_root(bigger, e, cfg)


def _random_tmatrix(rng, p, l, deg_t):
    cfg = CharConfig(p)
    ring = Ring(p, 1, "t")
    slot = ring.width - 1
    mat = []
    for _ in range(l):
        row = []
        for _ in range(l):
            f = _random_tpoly(rng, ring, deg_t)
            row.append(f)
        mat.append(tuple(row))
    return TMatrix(tuple(mat), cfg), cfg


def _random_tpoly(rng, ring, deg_t):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        xdeg = rng.randint(0, 3)
        tdeg = rng.randint(0, deg_t)
        terms[(xdeg, tdeg)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


def test_criterion_7_h_expansion_properties():
    with Criterion(7, "50 random TMatrix: reassembly, tau bound, recursion (*)", 60):
        rng = random.Random(404)
        for trial in range(50):
            p = rng.choice([2, 3])
            l = rng.randint(1, 2)
            A, cfg = _random_tmatrix(rng, p, l, 4)
            e = rng.randint(1, 3)
            fam = h_expand(A, e, cfg)  # validates bound and reassembly
            d = A.tdeg
            for mat in fam.table.values():
                for row in mat:
                    for entry in row:
                        if not entry.is_zero():
                            tau_slot = entry.ring.width - 1
                            assert entry.degree_in(tau_slot) * (cfg.q - 1) <= d
            if e >= 2:
                h_recursion_check(A, e, cfg)


WILD = (CharConfig(2), [["t", "1"], ["0", "t"]], 0)
TAME = (CharConfig(3), [["t"]], 0)
TAME_J2 = (CharConfig(3), [["t^3"]], 0)


def _suite_lists():
    out = []
    for cfg, rows, nvars in (TAME, TAME_J2, WILD):
        out.append((cfg, decompose(tmat(cfg, nvars, rows))))
    cfg3 = CharConfig(3)
    out.append((cfg3, decompose(graph_generator(poly_parse("x0^2", Ring(3, 1)), cfg3))))
    return out


def test_criterion_8_shift_property():
    with Criterion(8, "shift property on every computed S_e, e <= 3", 60):
        checked = 0
        for cfg, ml in _suite_lists():
            reports = {e: s_set(ml, e, cfg) for e in range(4)}
            for e in range(1, 4):
                for g in reports[e].jumps:
                    if g.m % cfg.q**e == 0:
                        continue
                    assert g.m % cfg.q**e in {h.m for h in reports[e - 1].jumps}
                    checked += 1
        # the simple list behind the graph generator, via the ideal-level scan
        cfg3 = CharConfig(3)
        ring = Ring(3, 1)
        f = poly_parse("x0^2", ring)
        r = [f**2, f, Poly.const(ring, 1)]
        reports = {e: s_set_simple(r, e, cfg3) for e in range(4)}
        for e in range(1, 4):
            for g in reports[e].jumps:
                if g.m % cfg3.q**e == 0:
                    continue
                assert g.m % cfg3.q**e in {h.m for h in reports[e - 1].jumps}
                checked += 1
        assert checked > 0


def test_criterion_9_chain_in_e():
    with Criterion(9, "list test modules non-increasing in e at fixed lambda", 60):
        for cfg, ml in _suite_lists():
            q = cfg.q
            for e in range(3):
                low = ltm_scan(ml, e, cfg)
                high = ltm_scan(ml, e + 1, cfg)
                for m in range(1, q ** (e + 1) + 1):
                    assert high[m * q - 1] <= low[m - 1]
        cfg3 = CharConfig(3)
        ring = Ring(3, 1)
        f = poly_parse("x0^2", ring)
        r = [f**2, f, Poly.const(ring, 1)]
        for e in range(3):
            low = simple_tau_scan(r, e, cfg3)
            high = simple_tau_scan(r, e + 1, cfg3)
            for m in range(1, cfg3.q ** (e + 1) + 1):
                assert high[m * cfg3.q - 1] <= low[m - 1]
