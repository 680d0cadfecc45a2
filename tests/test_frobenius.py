import random

import pytest

from fsing import frobenius
from fsing.errors import ResourceLimitExceeded
from fsing.frobenius import _RootGraph, _scalar, bracket_power, frobenius_root
from fsing.modgb import Submodule, VectorR, contains_all
from fsing.polyring import CharConfig, Poly, Ring, poly_parse


def ideal(ring, *texts):
    gens = [VectorR((poly_parse(t, ring),)) for t in texts]
    return Submodule(1, gens, ring)


def test_bracket_power_principal():
    ring = Ring(2, 1)
    cfg = CharConfig(2)
    assert bracket_power(ideal(ring, "x0"), 1, cfg) == ideal(ring, "x0^2")
    assert bracket_power(ideal(ring, "x0"), 3, cfg) == ideal(ring, "x0^8")


def test_frobenius_root_monomial():
    ring = Ring(2, 1)
    cfg = CharConfig(2)
    assert frobenius_root(ideal(ring, "x0^3"), 1, cfg) == ideal(ring, "x0")
    assert frobenius_root(ideal(ring, "x0^3"), 2, cfg) == Submodule.full(1, ring)


def test_frobenius_root_mixed_terms():
    # x0^2 + x1^3 = (x0)^2 + (x1)^2 * x1 splits into coefficients x0 and x1
    ring = Ring(2, 2)
    cfg = CharConfig(2)
    root = frobenius_root(ideal(ring, "x0^2 + x1^3"), 1, cfg)
    assert root == ideal(ring, "x0", "x1")


@pytest.mark.parametrize("gens, expected", [
    ([("x0^2 + x1^3",), ("x0^3",)], ["x0", "x1"]),
    (
        [("x0^2 + x1^3", "x0^3"), ("x0^3", "x1^2")],
        ["(x0, 0)", "(x1, 0)", "(0, x0)", "(0, x1)"],
    ),
])
def test_frobenius_root_prunes_first_copy_of_repeated_vector(gens, expected):
    # (x0, 0) comes from x0^2 and again from x0^3; pruning the list with both
    # copies would drop the first and move the vector to the end
    ring = Ring(2, 2)
    vectors = [VectorR(tuple(poly_parse(t, ring) for t in g)) for g in gens]
    N = Submodule(len(gens[0]), vectors, ring)
    root = frobenius_root(N, 1, CharConfig(2))
    assert [str(v) for v in root.generators] == expected


def test_root_of_vector_module():
    ring = Ring(2, 1)
    cfg = CharConfig(2)
    v = VectorR((poly_parse("x0^2", ring), poly_parse("x0^3", ring)))
    root = frobenius_root(Submodule(2, (v,), ring), 1, cfg)
    want = Submodule(
        2,
        (
            VectorR((poly_parse("x0", ring), Poly.zero(ring))),
            VectorR((Poly.zero(ring), poly_parse("x0", ring))),
        ),
        ring,
    )
    assert root == want


def test_defining_containment():
    ring = Ring(3, 2)
    cfg = CharConfig(3)
    N = ideal(ring, "x0^4 + x1^2", "x0*x1")
    rooted = frobenius_root(N, 1, cfg)
    assert contains_all(bracket_power(rooted, 1, cfg), N.generators)


def test_level_cap(monkeypatch):
    # the two public entry points that take a level e check it before q^e is
    # formed: froot --e 1000000000 formed 2^(10^9)
    ring = Ring(2, 1)
    cfg = CharConfig(2)
    N = ideal(ring, "x0^9")
    monkeypatch.setattr(frobenius, "MAX_LEVEL", 3)
    assert frobenius_root(N, 3, cfg) == ideal(ring, "x0")
    assert bracket_power(N, 3, cfg) == ideal(ring, "x0^72")
    for call, what in [(frobenius_root, "root level"), (bracket_power, "bracket power level")]:
        with pytest.raises(ResourceLimitExceeded, match=f"the {what} e = 4 exceeds the level cap of 3"):
            call(N, 4, cfg)


def test_gamma_bigger_than_one():
    cfg = CharConfig(2, 2)  # q = 4
    ring = Ring(2, 1)
    assert frobenius_root(ideal(ring, "x0^9"), 1, cfg) == ideal(ring, "x0^2")


def random_poly(rng, ring, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


def test_root_bracket_roundtrip_random():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3])
        ring = Ring(p, 2)
        cfg = CharConfig(p)
        e = rng.choice([1, 2])
        rank = rng.randint(1, 2)
        gens = [
            VectorR(tuple(random_poly(rng, ring, 4) for _ in range(rank)))
            for _ in range(2)
        ]
        N = Submodule(rank, gens, ring)
        assert frobenius_root(bracket_power(N, e, cfg), e, cfg) == N


def test_degree_bound_random():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([2, 3])
        ring = Ring(p, 2)
        cfg = CharConfig(p)
        e = rng.choice([1, 2])
        gens = [VectorR((random_poly(rng, ring, 6),)) for _ in range(2)]
        N = Submodule(1, gens, ring)
        rooted = frobenius_root(N, e, cfg)
        if rooted.generators:
            bound = max(v.total_degree() for v in gens) // cfg.q**e
            assert rooted.max_generator_degree() <= bound


def test_root_rejects_nonpositive_e():
    ring = Ring(2, 1)
    cfg = CharConfig(2)
    with pytest.raises(ValueError):
        frobenius_root(ideal(ring, "x0"), 0, cfg)


def test_root_rejects_module_over_r_t():
    ring = Ring(2, 1).with_extra("t")
    with pytest.raises(ValueError, match="frobenius roots need a module over the pure ring R"):
        frobenius_root(ideal(ring, "x0"), 1, CharConfig(2))


def spy_root_steps(monkeypatch):
    """Every one-level step a root graph takes from here on, as (span, id of
    the digit's multiplier): each step runs the kernel `_root_generators`
    once, and so does each public `frobenius_root`."""
    steps = []
    kernel = frobenius._root_generators

    def recording(N, e, cfg, mult):
        steps.append((N._canonical(), id(mult)))
        return kernel(N, e, cfg, mult)

    monkeypatch.setattr(frobenius, "_root_generators", recording)
    return steps


def cusp_root_graph(monkeypatch):
    """The one-level roots K -> (f^d K)^[1/2] of the cusp over F_2, with every
    step recorded by `spy_root_steps`."""
    ring, cfg = Ring(2, 2), CharConfig(2)
    f = poly_parse("x0^2 + x1^3", ring)
    graph = _RootGraph([_scalar(f**d, 1) for d in range(cfg.q)], cfg)
    return graph, spy_root_steps(monkeypatch), ring


def test_root_graph_one_object_per_span(monkeypatch):
    graph, steps, ring = cusp_root_graph(monkeypatch)
    full = Submodule.full(1, ring)
    m = graph.child(full, 1)  # (f)^[1/2] = (x0, x1)
    assert m == ideal(ring, "x0", "x1")
    # R -> R and R -> m -> R reach the unit ideal along two paths
    assert graph.child(m, 0) is graph.child(full, 0)
    # (f m)^[1/2] spans m again: a loop on the one kept object
    assert graph.child(m, 1) is m
    # another generator list of the same span is the same state
    assert graph.child(ideal(ring, "x1", "x0 + x1"), 1) is m
    # four distinct (span, digit) steps, the last call a lookup
    assert len(steps) == len(set(steps)) == 4


def test_root_graph_sums_one_object_per_span(monkeypatch):
    graph, steps, ring = cusp_root_graph(monkeypatch)
    m = graph.child(Submodule.full(1, ring), 1)
    zero = Submodule.zero(1, ring)
    # a sum that reaches a state's span is that state
    assert graph.add(zero, m) is m
    assert graph.add(ideal(ring, "x0"), ideal(ring, "x1")) is m
    # a contained piece leaves the sum as it is
    assert graph.add(m, ideal(ring, "x0")) is m
    unit = graph.add(m, ideal(ring, "1 + x0"))
    assert unit == Submodule.full(1, ring)
    # sums are keyed by spans: other generator lists find the kept object
    assert graph.add(ideal(ring, "x1", "x0 + x1"), ideal(ring, "x0 + 1")) is unit
    # and a step that reaches a sum's span hands back the sum
    assert graph.child(m, 0) is unit
    assert len(graph._known) == 2
    # a piece that is the sum, or has no generators, leaves the sum at once
    sums = len(graph._sums)
    assert graph.add(m, m) is m and graph.add(m, zero) is m
    assert len(graph._sums) == sums


def test_root_graph_zero_module_is_its_own_child(monkeypatch):
    graph, steps, ring = cusp_root_graph(monkeypatch)
    zero = Submodule.zero(1, ring)
    assert all(graph.child(zero, d) is zero for d in range(2))
    assert graph.walk(zero, 5, 3) == (zero, 0)
    assert steps == [] and not graph.edges


def test_root_graph_steps_each_span_and_digit_once(monkeypatch):
    ring = Ring(2, 2)
    f = poly_parse("x0^2 + x1^3", ring)
    seeds = [Submodule.full(1, ring), ideal(ring, "x0"), ideal(ring, "x1^3")]
    # the deep roots of f^k seed, k < 16, each taken in one piece before
    # the spy counts the graph's steps
    deep = {
        (i, k): frobenius_root(
            Submodule(1, tuple(v.poly_mul(f**k) for v in seed.generators), ring), 4, CharConfig(2)
        )
        for i, seed in enumerate(seeds) for k in range(2**4)
    }
    graph, steps, ring = cusp_root_graph(monkeypatch)
    for i, seed in enumerate(seeds):
        for n in range(2**6):
            K, rest = graph.walk(seed, n, 4)
            assert rest == n // 2**4
            assert K == deep[i, n % 16]
    assert len(steps) == len(set(steps)) == len(graph.edges)
    # every edge ends on a state some step returned, kept once per span
    kept = {}
    for child in graph.edges.values():
        assert kept.setdefault(child._canonical(), child) is child
