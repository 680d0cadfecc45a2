import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsing.bfun import _shift_witness, b_function, graph_generator
from fsing.listmod import (
    ChainEstimate, JumpReport, SeReport, TMatrix, _build_chains,
    estimate_jumping_numbers,
)
from fsing.polyring import CharConfig, Poly, Ring, poly_parse
from fsing.rationals import GridRational
from fsing.testideal import tau_f_stable

from matrix_lists import decompose


def tmat(cfg, nvars, rows):
    ring = Ring(cfg.p, nvars, "t")
    return TMatrix(tuple(tuple(poly_parse(c, ring) for c in row) for row in rows), cfg)


class TestGraphGenerator:
    def test_zero(self):
        cfg = CharConfig(3)
        A = graph_generator(Poly.zero(Ring(3, 0)), cfg)
        assert str(A.mat[0][0]) == "t^2"

    def test_square_char3(self):
        cfg = CharConfig(3)
        A = graph_generator(poly_parse("x0^2", Ring(3, 1)), cfg)
        assert str(A.mat[0][0]) == "x0^4 + x0^2*t + t^2"

    def test_linear_char2(self):
        cfg = CharConfig(2)
        A = graph_generator(poly_parse("x0", Ring(2, 1)), cfg)
        assert str(A.mat[0][0]) == "x0 + t"

    def test_rejects_t_input(self):
        cfg = CharConfig(2)
        with pytest.raises(ValueError):
            graph_generator(poly_parse("t", Ring(2, 0, "t")), cfg)

    def test_list_is_powers_of_f(self):
        cfg = CharConfig(3)
        f = poly_parse("x0^2", Ring(3, 1))
        ml = decompose(graph_generator(f, cfg))
        for n in range(cfg.q):
            assert ml.entries[(0, n)][0][0] == f ** (cfg.q - 1 - n)


class TestBFunction:
    def test_tame(self):
        cfg = CharConfig(3)
        res = b_function(tmat(cfg, 0, [["t"]]), cfg, 5)
        assert res.roots == (Fraction(1, 2),)
        assert res.shift_N == 0
        assert res.unresolved == ()
        assert not res.is_upper_bound_only

    def test_tame_j_independence(self):
        cfg = CharConfig(3)
        res = b_function(tmat(cfg, 0, [["t^3"]]), cfg, 5)
        assert res.roots == (Fraction(1, 2),)

    def test_wild(self):
        cfg = CharConfig(2)
        res = b_function(tmat(cfg, 0, [["t", "1"], ["0", "t"]]), cfg, 6)
        assert set(res.roots) <= {Fraction(1, 2), Fraction(1)}
        assert res.unresolved == ()
        assert res.shift_N == 1

    def test_graph_of_square(self):
        cfg = CharConfig(3)
        A = graph_generator(poly_parse("x0^2", Ring(3, 1)), cfg)
        res = b_function(A, cfg, 4)
        assert Fraction(1, 2) in res.roots

    def test_zero_matrix(self):
        cfg = CharConfig(2)
        res = b_function(tmat(cfg, 0, [["0"]]), cfg, 3)
        assert res.roots == ()
        assert res.diagnostics

    def test_e_max_guard(self):
        cfg = CharConfig(2)
        with pytest.raises(ValueError):
            b_function(tmat(cfg, 0, [["t"]]), cfg, 2)


def test_cusp_graph_e_max_5_regression():
    # The S-sets were recorded once with the quadratic H-family check, under
    # which this call took about 38 s on a 2-vCPU x86-64 VM; with the linear
    # check it takes about 1 s there, so the 10 s budget catches a return.
    cfg = CharConfig(3)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(3, 2)), cfg)
    start = time.perf_counter()
    res = b_function(A, cfg, 5)
    elapsed = time.perf_counter() - start
    assert res.roots == (Fraction(2, 3),)
    assert res.unresolved == ()
    assert res.shift_N == 0
    assert {e: r.values() for e, r in res.s_sets.items()} == {
        e: (Fraction(1, 3),) for e in range(6)
    }
    assert elapsed < 10, f"b_function took {elapsed:.1f}s, budget 10s"


@pytest.mark.parametrize("p,e_max", [(3, 6), (5, 4)])
def test_cusp_graph_deep_regression(p, e_max):
    # Recorded once from the scan over deep roots of the twisted product,
    # which took about 7 s (p=3) and 18 s (p=5) on a 2-vCPU x86-64 VM;
    # the digit-wise walk takes about 0.01 s, so the 2 s budget catches a
    # return to roots per grid point.
    cfg = CharConfig(p)
    A = graph_generator(poly_parse("x0^2 + x1^3", Ring(p, 2)), cfg)
    start = time.perf_counter()
    res = b_function(A, cfg, e_max)
    elapsed = time.perf_counter() - start
    assert res.roots == (Fraction(p - 1, p),)
    assert res.unresolved == ()
    assert res.shift_N == 0
    assert {e: r.values() for e, r in res.s_sets.items()} == {
        e: (Fraction(1, p),) for e in range(e_max + 1)
    }
    assert {e: [g.m for g in r.jumps] for e, r in res.s_sets.items()} == {
        e: [p**e] for e in range(e_max + 1)
    }
    assert elapsed < 2, f"b_function took {elapsed:.1f}s, budget 2s"


@pytest.mark.parametrize("text, p, e_max, roots", [
    ("x0^2*x1+x1^4", 3, 5, ("5/8", "7/8")),  # D5
    ("x0^2*x1+x1^4", 3, 6, ("5/8", "7/8")),
    ("x0^3+x1^4", 5, 5, ("7/12", "4/5", "11/12")),  # E6
])
def test_graph_roots_with_period_two_digits(text, p, e_max, roots):
    # 5/8, 7/8, 7/12 and 11/12 have base-q digits of period 2, so their
    # chains fit only phase by phase; each root is an F-jumping exponent of
    # f, where tau(f^rho) drops against rho - 1/p^6 and holds until rho + 1/p^6
    cfg = CharConfig(p)
    f = poly_parse(text, Ring(p, 2))
    res = b_function(graph_generator(f, cfg), cfg, e_max)
    assert res.roots == tuple(Fraction(r) for r in roots)
    assert res.unresolved == ()
    step = Fraction(1, p**6)
    for rho in res.roots:
        below, at, above = (tau_f_stable(f, x, cfg) for x in (rho - step, rho, rho + step))
        assert below != at and at == above, f"no jump at {rho}"


# -- the chain match and the shift witness on the integer grid ----------------


def ref_parents(s_sets, e_max):
    """The `Fraction` chain match that the numerator one replaced: each S_e
    element's nearest S_{e-1} element by value, ties toward the larger."""
    parents = {}
    prev = []
    for e in range(e_max + 1):
        cur = [(g.m, g.value) for g in s_sets[e].jumps]
        for m, value in cur:
            best = min(prev, key=lambda h: (abs(h[1] - value), -h[1])) if prev else None
            parents[(e, m)] = None if best is None else (e - 1, best[0])
        prev = cur
    return parents


def ref_shift_witness(report, cfg, e_max):
    """The `Fraction` shift witness that the integer one replaced."""
    limits = [c.limit for c in report.chains if c.limit is not None]
    if not limits:
        return 0 if all(not r.jumps for r in report.s_sets.values()) else None
    for n_shift in range(e_max + 1):
        if all(
            any(0 <= lam - value < Fraction(cfg.q**n_shift, cfg.q ** (e + 1)) for lam in limits)
            for e, rep in report.s_sets.items()
            for value in rep.values()
        ):
            return n_shift
    return None


def ref_build_chains(s_sets, e_max, cfg):
    """The parent/child-graph chain match that the one-pass one replaced:
    a parent map, then a walk up from each leaf, then a stable sort."""
    q = cfg.q
    parents = {}
    prev = []
    for e in range(e_max + 1):
        cur = [g.m for g in s_sets[e].jumps]
        for m in cur:
            if prev:
                best = min(prev, key=lambda h: (abs(h * q - m), -h))
                parents[(e, m)] = (e - 1, best)
            else:
                parents[(e, m)] = None
        prev = cur
    children = {}
    for node, par in parents.items():
        if par is not None:
            children.setdefault(par, []).append(node)
    paths = []
    for node in parents:
        if node not in children:  # leaf
            path = [node]
            while parents[path[-1]] is not None:
                path.append(parents[path[-1]])
            path.reverse()
            paths.append(path)
    paths.sort(key=lambda p: (p[0][0], p[0][1]))
    return paths


def parents_of(paths):
    """The parent of every node on the root-to-leaf paths of `_build_chains`."""
    return {node: above for path in paths for above, node in zip([None] + path, path)}


@st.composite
def jump_reports(draw):
    """Jump sets S_0 .. S_e_max at q in {2, 3, 5} and chain limits in (0, 1].

    A limit is an eventually periodic c / (q^a (q^b - 1)) or a grid point.
    Each level holds numerators next to q h for the level below's h, which
    puts some of them halfway between two candidates (a tie of the match),
    numerators at or just below a limit on the grid (the ends of the
    witness window), and a few at random."""
    q = draw(st.sampled_from([2, 3, 5]))
    cfg = CharConfig(q)
    e_max = draw(st.integers(0, 4))
    dens = [q**a * (q**b - 1) for a in range(3) for b in (1, 2)] + [q, q**2, q**3]
    limit = st.sampled_from(dens).flatmap(
        lambda d: st.integers(1, d).map(lambda c: Fraction(c, d))
    )
    limits = draw(st.lists(limit, max_size=3))
    s_sets, prev = {}, []
    for e in range(e_max + 1):
        size = q ** (e + 1)
        near = [
            q * h + draw(st.integers(-q, q)) for h in prev for _ in range(draw(st.integers(0, 2)))
        ]
        below = [
            lam.numerator * size // lam.denominator - draw(st.integers(0, 2)) for lam in limits
        ]
        ms = near + below + draw(st.lists(st.integers(1, size - 1), max_size=2))
        prev = sorted({m for m in ms if 0 < m < size})
        s_sets[e] = SeReport(e, tuple(GridRational(m, e, cfg) for m in prev))
    chains = tuple(ChainEstimate(0, (), (), True, lam) for lam in limits)
    if draw(st.booleans()):
        chains += (ChainEstimate(0, (), (), False),)  # a chain with no fit
    return cfg, e_max, JumpReport(s_sets, chains, ())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(jump_reports())
@example((CharConfig(2), 2, JumpReport(  # 3/8 is as far from 1/4 as from 2/4: the larger wins
    {0: SeReport(0, ()),
     1: SeReport(1, (GridRational(1, 1, CharConfig(2)), GridRational(2, 1, CharConfig(2)))),
     2: SeReport(2, (GridRational(3, 2, CharConfig(2)),))}, (), ())))
@example((CharConfig(3), 1, JumpReport(  # a jump at the limit itself: N = 0
    {0: SeReport(0, ()), 1: SeReport(1, (GridRational(3, 1, CharConfig(3)),))},
    (ChainEstimate(0, (), (), True, Fraction(1, 3)),), ())))
def test_grid_chain_match_and_witness_match_fraction_oracles(case):
    cfg, e_max, report = case
    paths = _build_chains(report.s_sets, e_max, cfg)
    # the paths in their order, as `jumps --json` prints them, shared prefixes included
    assert paths == ref_build_chains(report.s_sets, e_max, cfg)
    assert parents_of(paths) == ref_parents(report.s_sets, e_max)
    assert _shift_witness(report, cfg, e_max) == ref_shift_witness(report, cfg, e_max)
    for rep in report.s_sets.values():
        assert [g.reduced() for g in rep.jumps] == [
            (v.numerator, v.denominator) for v in rep.values()
        ]


def min_key_chains(s_sets, e_max, cfg):
    """The chain match as it ran before bisection: a `min` over the whole
    level below for every element, by the key (|h q - m|, -h)."""
    q = cfg.q
    paths = []
    below = {}
    for e in range(e_max + 1):
        level = {}
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


def n_shift_witness(report, cfg, e_max):
    """The shift witness as it ran before it took one pass: every jump
    against every limit, once per candidate N."""
    limits = [
        (c.limit.numerator, c.limit.denominator) for c in report.chains if c.limit is not None
    ]
    if not limits:
        return 0 if all(not r.jumps for r in report.s_sets.values()) else None
    q = cfg.q
    jumps = [(q ** (e + 1), g.m) for e, rep in report.s_sets.items() for g in rep.jumps]
    for n_shift in range(0, e_max + 1):
        slack = q**n_shift
        if all(any(0 <= L * den - m * D < slack * D for L, D in limits) for den, m in jumps):
            return n_shift
    return None


@st.composite
def shuffled_jump_reports(draw):
    """`jump_reports` with each level's jumps in a drawn order, so the level
    below's numerators reach the match in any dict order."""
    cfg, e_max, report = draw(jump_reports())
    s_sets = {
        e: SeReport(e, tuple(draw(st.permutations(rep.jumps))))
        for e, rep in report.s_sets.items()
    }
    return cfg, e_max, JumpReport(s_sets, report.chains, ())


def grid_report(q, jumps, limits):
    """A JumpReport at q from {e: numerators} and limits, one chain each."""
    cfg = CharConfig(q)
    s_sets = {e: SeReport(e, tuple(GridRational(m, e, cfg) for m in ms)) for e, ms in jumps.items()}
    chains = tuple(ChainEstimate(0, (), (), True, lam) for lam in limits)
    return JumpReport(s_sets, chains, ())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(shuffled_jump_reports())
# 3/8 is as far from 2/4 as from 1/4, which come in descending order: 2/4 wins
@example((CharConfig(2), 2, grid_report(2, {0: (), 1: (2, 1), 2: (3,)}, ())))
# 1/2 has no limit at or above it
@example((CharConfig(2), 2, grid_report(2, {0: (1,), 1: (), 2: ()}, (Fraction(1, 4),))))
# 1/2 sits 1/2 below the limit 1 and needs N = 1, past e_max = 0
@example((CharConfig(2), 0, grid_report(2, {0: (1,)}, (Fraction(1),))))
# the same jump at e_max = 1 is within reach; 7/9 needs N = 0 beside it
@example((CharConfig(3), 1, grid_report(3, {0: (1,), 1: (7,)}, (Fraction(7, 9), Fraction(2, 3)))))
def test_bisection_match_and_one_pass_witness_match_the_old_loops(case):
    cfg, e_max, report = case
    assert _build_chains(report.s_sets, e_max, cfg) == min_key_chains(report.s_sets, e_max, cfg)
    assert _shift_witness(report, cfg, e_max) == n_shift_witness(report, cfg, e_max)


def fractions_built(fn, *args):
    """How many `Fraction`s `fn(*args)` constructs."""
    new = Fraction.__new__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is new

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("text, p, e_max", [
    ("x0^2*x1+x1^4", 3, 5),  # D5: two period-2 limits
    ("x0^3+x1^4", 5, 4),  # E6
])
def test_chain_match_and_witness_build_no_fraction(text, p, e_max):
    cfg = CharConfig(p)
    A = graph_generator(poly_parse(text, Ring(p, 2)), cfg)
    report = estimate_jumping_numbers(A, cfg, e_max)
    assert any(c.limit is not None for c in report.chains)
    # the hook counts: the Fraction oracles build many
    assert fractions_built(ref_parents, report.s_sets, e_max) > 0
    assert fractions_built(ref_shift_witness, report, cfg, e_max) > 0
    assert fractions_built(_build_chains, report.s_sets, e_max, cfg) == 0
    assert fractions_built(_shift_witness, report, cfg, e_max) == 0
