import time
from fractions import Fraction

import pytest

from fsing.bfun import b_function, graph_generator
from fsing.listmod import TMatrix, decompose_A
from fsing.polyring import CharConfig, Poly, Ring, poly_parse
from fsing.testideal import tau_f_stable


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
        ml = decompose_A(graph_generator(f, cfg), cfg)
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
