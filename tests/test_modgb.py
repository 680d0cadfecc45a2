import contextlib
import heapq
import random
import threading
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsing import modgb
from fsing.errors import RankMismatchError, ResourceLimitExceeded
from fsing.modgb import (
    DEFAULT_PAIR_LIMIT,
    Submodule,
    VectorR,
    _basis,
    _buchberger,
    _flatten,
    _lead,
    _reduce_basis,
    _term_key,
    _unflatten,
    contains,
    pair_limit,
    prune_generators,
)
from fsing.polyring import Poly, Ring, poly_parse


def ideal(ring, *texts):
    gens = [VectorR((poly_parse(t, ring),)) for t in texts]
    return Submodule(1, gens, ring)


def vec(ring, *texts):
    return VectorR(tuple(poly_parse(t, ring) for t in texts))


def module_sum(a, b):
    """a + b: the module the constructor builds on both generator lists."""
    return Submodule(a.rank, a.generators + b.generators, a.ring)


def test_reduced_basis_golden():
    # hand-run Buchberger: the S-pair of x0^2 and x0*x1 + x1^2 reduces to x1^3
    ring = Ring(2, 2)
    N = ideal(ring, "x0^2", "x0*x1 + x1^2")
    basis = [str(v.entries[0]) for v in N.reduced_basis()]
    assert basis == ["x1^3", "x0^2", "x0*x1 + x1^2"]


def test_principal_ideal_basis():
    ring = Ring(3, 1)
    N = ideal(ring, "x0^2 + x0", "x0^3 + x0^2")
    assert [str(v.entries[0]) for v in N.reduced_basis()] == ["x0^2 + x0"]


def test_equality_invariant_under_presentation():
    ring = Ring(2, 2)
    N1 = ideal(ring, "x0^2", "x0*x1 + x1^2")
    N2 = ideal(ring, "x0*x1 + x1^2", "x0^2 + x0*x1 + x1^2", "x1^3")
    assert N1 == N2
    assert hash(N1) == hash(N2)


def test_contains():
    ring = Ring(2, 2)
    N = ideal(ring, "x0^2", "x0*x1 + x1^2")
    assert contains(N, vec(ring, "x1^3"))
    assert contains(N, vec(ring, "x0^3 + x0^2*x1"))
    assert not contains(N, vec(ring, "x1^2"))
    assert not contains(N, vec(ring, "x0"))


def test_module_positions_independent():
    ring = Ring(2, 1)
    N = Submodule(2, (vec(ring, "x0", "0"), vec(ring, "0", "x0^2")), ring)
    assert contains(N, vec(ring, "x0^2", "x0^2"))
    assert not contains(N, vec(ring, "0", "x0"))


def test_position_over_term_reduction():
    # a generator with leading entry in position 0 cannot reduce position 1
    ring = Ring(2, 1)
    N = Submodule(2, (vec(ring, "x0", "1"),), ring)
    assert not contains(N, vec(ring, "0", "x0"))
    assert contains(N, vec(ring, "x0^2", "x0"))


def test_zero_and_full():
    ring = Ring(3, 1)
    assert Submodule.zero(1, ring).is_zero()
    full = Submodule.full(2, ring)
    assert contains(full, vec(ring, "x0^5", "2*x0"))
    assert module_sum(Submodule.zero(2, ring), full) == full


def test_leq():
    ring = Ring(2, 2)
    small = ideal(ring, "x0^2")
    big = ideal(ring, "x0")
    assert small <= big
    assert not big <= small


def test_module_sum():
    ring = Ring(2, 2)
    s = module_sum(ideal(ring, "x0^2"), ideal(ring, "x0*x1 + x1^2"))
    assert s == ideal(ring, "x0^2", "x0*x1 + x1^2")


def test_module_sum_keeps_one_copy_of_a_generator():
    # a generator in both summands, or twice in flat generators built
    # internally, is listed once, and a zero one not
    ring = Ring(2, 2)
    x1 = _flatten(vec(ring, "x1"))
    twice = Submodule._from_flats(1, ring, [x1, dict(x1), {}])
    s = module_sum(twice, ideal(ring, "x1", "x0^2"))
    assert [str(v) for v in s.generators] == ["x1", "x0^2"]


def test_prune_generators():
    ring = Ring(2, 2)
    N = ideal(ring, "x0", "x0^2", "x0*x1")
    pruned = prune_generators(N)
    assert len(pruned.generators) == 1
    assert pruned == ideal(ring, "x0")


def test_prune_keeps_needed():
    ring = Ring(2, 2)
    N = ideal(ring, "x0^2", "x1^2")
    assert len(prune_generators(N).generators) == 2


def test_rank_mismatch():
    ring = Ring(2, 1)
    with pytest.raises(RankMismatchError):
        Submodule(2, (vec(ring, "x0"),), ring)


def test_pair_limit_exceeded():
    ring = Ring(2, 2)
    N = Submodule(1, (vec(ring, "x0^2"), vec(ring, "x0*x1 + x1^2")), ring)
    with pytest.raises(ResourceLimitExceeded), pair_limit(1):
        N.reduced_basis()


@pytest.mark.parametrize("limit", [0, -3])
def test_nonpositive_pair_limit_rejected(limit):
    # a cap below 1 is a caller error, not a resource limit hit later on
    with pytest.raises(ValueError, match="pair limit must be positive"):
        with pair_limit(limit):
            pass


def random_poly(rng, ring, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(1, ring.p - 1)
    return Poly(ring, terms)


def test_containment_of_generators_random():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3])
        ring = Ring(p, 2)
        rank = rng.randint(1, 2)
        gens = [
            VectorR(tuple(random_poly(rng, ring, 3) for _ in range(rank)))
            for _ in range(2)
        ]
        N = Submodule(rank, gens, ring)
        for g in gens:
            assert contains(N, g)
        for g in gens:
            f = random_poly(rng, ring, 2)
            assert contains(N, g.poly_mul(f))


def prune_restart_greedy(N):
    """Reference prune: drop the first redundant generator, then start over."""
    gens = list(N.generators)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1 :]
            if contains(Submodule(N.rank, rest, N.ring), gens[i]):
                gens = rest
                changed = True
                break
    return tuple(gens)


@st.composite
def small_submodules(draw):
    """A few vectors over F_2, F_3 or F_5 in two variables, some of them
    combinations of earlier ones so that pruning has something to drop."""
    p = draw(st.sampled_from([2, 3, 5]))
    ring = Ring(p, 2)
    rank = draw(st.integers(1, 2))
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.dictionaries(monos, st.integers(1, p - 1), max_size=3).map(
        lambda terms: Poly(ring, terms)
    )
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        if gens and draw(st.booleans()):
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(a.poly_mul(draw(polys)) + b.poly_mul(draw(polys)))
        else:
            gens.append(VectorR(tuple(draw(polys) for _ in range(rank))))
    return Submodule(rank, gens, ring)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_submodules())
def test_prune_matches_restart_greedy(N):
    assert prune_generators(N).generators == prune_restart_greedy(N)


BUCHBERGER_CASES = [
    # rank 1 over F_3
    (
        Ring(3, 2),
        [("x0^3 + x1^2",), ("x0^2*x1 + 2*x1^3",), ("x0*x1^2 + x0",)],
        [
            {(0, (0, 2)): 1, (0, (3, 0)): 1},
            {(0, (0, 3)): 2, (0, (2, 1)): 1},
            {(0, (1, 0)): 1, (0, (1, 2)): 1},
            {(0, (0, 4)): 1, (0, (2, 0)): 1},
            {(0, (0, 3)): 1, (0, (1, 1)): 2},
            {(0, (1, 0)): 2, (0, (2, 0)): 1},
            {(0, (0, 2)): 1, (0, (1, 0)): 1},
            {(0, (1, 1)): 1},
            {(0, (1, 0)): 1},
        ],
    ),
    # rank 2 over F_2
    (
        Ring(2, 2),
        [("x0^2", "x1"), ("x0*x1 + x1^2", "x0"), ("x1^3", "x0^2 + x1")],
        [
            {(0, (2, 0)): 1, (1, (0, 1)): 1},
            {(0, (0, 2)): 1, (0, (1, 1)): 1, (1, (1, 0)): 1},
            {(0, (0, 3)): 1, (1, (0, 1)): 1, (1, (2, 0)): 1},
            {(1, (0, 1)): 1, (1, (0, 2)): 1, (1, (1, 1)): 1},
            {(1, (0, 2)): 1, (1, (3, 0)): 1},
            {(1, (0, 1)): 1, (1, (0, 2)): 1, (1, (0, 4)): 1},
        ],
    ),
]


@pytest.mark.parametrize("ring, gens, expected", BUCHBERGER_CASES)
def test_buchberger_unreduced_basis_pinned(ring, gens, expected):
    # the unreduced basis records the order in which S-pairs were taken
    flats = [_flatten(vec(ring, *g)) for g in gens]
    assert [g for _, g in _buchberger(flats, ring.p)] == expected


def test_pair_limit_boundary():
    ring, gens, _ = BUCHBERGER_CASES[0]
    vectors = [vec(ring, *g) for g in gens]
    with pytest.raises(ResourceLimitExceeded), pair_limit(27):
        Submodule(1, vectors, ring).reduced_basis()
    with pair_limit(28):
        assert Submodule(1, vectors, ring).reduced_basis()


REDUCED_BASES = [
    # rank 1 over F_3
    [{(0, (0, 2)): 1}, {(0, (1, 0)): 1}],
    # rank 2 over F_2
    [
        {(0, (0, 3)): 1, (1, (2, 0)): 1, (1, (0, 1)): 1},
        {(0, (2, 0)): 1, (1, (0, 1)): 1},
        {(0, (1, 1)): 1, (0, (0, 2)): 1, (1, (1, 0)): 1},
        {(1, (0, 4)): 1, (1, (0, 2)): 1, (1, (0, 1)): 1},
        {(1, (3, 0)): 1, (1, (0, 2)): 1},
        {(1, (1, 1)): 1, (1, (0, 2)): 1, (1, (0, 1)): 1},
    ],
]


@pytest.mark.parametrize(
    "case, expected", zip(BUCHBERGER_CASES, REDUCED_BASES), ids=["rank1-F3", "rank2-F2"]
)
def test_reduce_basis_pinned(case, expected):
    # the reduced basis is unique, but its order (largest lead first) and
    # the leads handed back with it are part of the contract
    ring, _, unreduced = case
    reduced = _reduce_basis([(_lead(g), dict(g)) for g in unreduced], ring.p)
    assert [g for _, g in reduced] == expected
    assert [lead for lead, _ in reduced] == [_lead(g) for g in expected]


# -- reference pair loop and interreduction -------------------------------------
# A copy of the kernel before its term shortcuts: every S-pair is queued and
# reduced, every survivor is reduced, and a lead is always a max over the
# vector's terms.


def ref_lead(flat):
    return max(flat, key=_term_key)


def ref_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def ref_shift(flat, mono, c, p):
    out = {}
    for (pos, m), cc in flat.items():
        v = (cc * c) % p
        if v:
            out[(pos, tuple(a + b for a, b in zip(m, mono)))] = v
    return out


def ref_sub_into(target, other, p):
    for term, c in other.items():
        v = (target.get(term, 0) - c) % p
        if v:
            target[term] = v
        else:
            target.pop(term, None)


def ref_normal_form(flat, basis, p):
    remainder, work = {}, dict(flat)
    while work:
        term = ref_lead(work)
        pos, mono = term
        c = work[term]
        for (gpos, gmono), gflat in basis:
            if gpos == pos and ref_divides(gmono, mono):
                quot = tuple(b - a for a, b in zip(gmono, mono))
                ref_sub_into(work, ref_shift(gflat, quot, c, p), p)
                break
        else:
            remainder[term] = c
            del work[term]
    return remainder


def ref_monic(flat, p):
    inv = pow(flat[ref_lead(flat)], -1, p)
    return {t: (c * inv) % p for t, c in flat.items()}


def ref_buchberger(gens, p):
    G = [ref_monic(g, p) for g in gens if g]
    leads = [ref_lead(g) for g in G]
    pairs = []

    def push(i, j):
        lcm = tuple(max(a, b) for a, b in zip(leads[i][1], leads[j][1]))
        heapq.heappush(pairs, (modgb.grevlex_key(lcm), i, j))

    for i in range(len(G)):
        for j in range(i):
            if leads[i][0] == leads[j][0]:
                push(j, i)
    processed = set()
    while pairs:
        _, i, j = heapq.heappop(pairs)
        processed.add((i, j))
        (pi, mi), (_, mj) = leads[i], leads[j]
        lcm = tuple(max(a, b) for a, b in zip(mi, mj))
        if any(
            k not in (i, j)
            and leads[k][0] == pi
            and ref_divides(leads[k][1], lcm)
            and (min(i, k), max(i, k)) in processed
            and (min(j, k), max(j, k)) in processed
            for k in range(len(G))
        ):
            continue
        s = ref_shift(G[i], tuple(b - a for a, b in zip(mi, lcm)), 1, p)
        ref_sub_into(s, ref_shift(G[j], tuple(b - a for a, b in zip(mj, lcm)), 1, p), p)
        nf = ref_normal_form(s, list(zip(leads, G)), p)
        if nf:
            G.append(ref_monic(nf, p))
            leads.append(ref_lead(G[-1]))
            for k in range(len(G) - 1):
                if leads[k][0] == leads[-1][0]:
                    push(k, len(G) - 1)
    return G


def ref_reduce_basis(G, p):
    leads = [ref_lead(g) for g in G]
    keep = [
        (leads[i], g)
        for i, g in enumerate(G)
        if not any(
            j != i
            and leads[j][0] == leads[i][0]
            and ref_divides(leads[j][1], leads[i][1])
            and (leads[j][1] != leads[i][1] or j < i)
            for j in range(len(G))
        )
    ]
    reduced = [
        (lead, ref_normal_form(g, keep[:i] + keep[i + 1 :], p))
        for i, (lead, g) in enumerate(keep)
    ]
    reduced.sort(key=lambda pair: _term_key(pair[0]), reverse=True)
    return reduced


@st.composite
def flat_generator_lists(draw, mixed):
    """Flat generator lists at rank 1-3 over F_2, F_3 or F_5 in two variables:
    terms with zero, repeated and scaled copies, and with `mixed` also
    polynomial vectors of two to four terms."""
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    terms = st.tuples(
        st.integers(0, rank - 1), st.tuples(st.integers(0, 3), st.integers(0, 3))
    )
    coeffs = st.integers(1, p - 1)
    kinds = ["term", "zero", "repeat", "scaled"] + (["vector"] if mixed else [])
    gens = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            gens.append({})
        elif kind in ("repeat", "scaled") and gens:
            c = 1 if kind == "repeat" else draw(coeffs)
            gens.append({t: (v * c) % p for t, v in draw(st.sampled_from(gens)).items()})
        elif kind == "vector":
            gens.append(draw(st.dictionaries(terms, coeffs, min_size=2, max_size=4)))
        else:
            gens.append({draw(terms): draw(coeffs)})
    if mixed:
        gens.append(draw(st.dictionaries(terms, coeffs, min_size=2, max_size=4)))
    return Ring(p, 2), rank, gens


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(flat_generator_lists(mixed=False), flat_generator_lists(mixed=True)))
def test_buchberger_and_reduced_basis_match_reference(case):
    ring, rank, gens = case
    p = ring.p
    expected = ref_buchberger([dict(g) for g in gens], p)
    G = _buchberger([dict(g) for g in gens], p)
    assert [g for _, g in G] == expected
    # the leads handed to `_reduce_basis` are those of the monic elements
    assert [lead for lead, _ in G] == [ref_lead(g) for g in expected]
    assert _reduce_basis(G, p) == ref_reduce_basis(expected, p)
    N = Submodule._from_flats(rank, ring, [dict(g) for g in gens])
    assert N.reduced_basis() == tuple(
        _unflatten(g, rank, ring) for _, g in ref_reduce_basis(expected, p)
    )


RANK2_TERMS = [(pos, (i, j)) for pos in (0, 1) for i in range(4) for j in range(4)]


@st.composite
def generators_with_shared_leads(draw):
    """Rank-2 flat generator lists over F_2, F_3 or F_5 in two variables, in
    shuffled order, where two generators share a lead with different tails
    and two leads of equal degree sit in positions 0 and 1."""
    p = draw(st.sampled_from([2, 3, 5]))
    coeffs = st.integers(1, p - 1)
    deg = draw(st.integers(1, 3))
    monos = st.integers(0, deg).map(lambda i: (i, deg - i))
    leads = [(0, draw(monos)), (1, draw(monos))]
    leads.append(draw(st.sampled_from(leads)))
    leads += draw(st.lists(st.sampled_from(RANK2_TERMS), max_size=3))
    gens = []
    for lead in leads:
        below = [t for t in RANK2_TERMS if _term_key(t) < _term_key(lead)]
        tail = draw(st.dictionaries(st.sampled_from(below), coeffs, max_size=3)) if below else {}
        gens.append({lead: draw(coeffs), **tail})
    return p, draw(st.permutations(gens))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(generators_with_shared_leads())
def test_shared_and_equal_degree_leads_match_reference(case):
    p, gens = case
    G = _buchberger([dict(g) for g in gens], p)
    assert [g for _, g in G] == ref_buchberger([dict(g) for g in gens], p)
    assert [lead for lead, _ in G] == [ref_lead(g) for _, g in G]
    assert _reduce_basis(G, p) == ref_reduce_basis([g for _, g in G], p)


def count_kernel_work(monkeypatch):
    """Count the S-pairs `modgb` queues and its `_normal_form` calls."""
    counts = {"pairs": 0, "normal_forms": 0}

    def heappush(heap, item):
        counts["pairs"] += 1
        heapq.heappush(heap, item)

    def normal_form(*args):
        counts["normal_forms"] += 1
        return real_normal_form(*args)

    real_normal_form = modgb._normal_form
    monkeypatch.setattr(
        modgb, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    )
    monkeypatch.setattr(modgb, "_normal_form", normal_form)
    return counts


def test_term_generators_queue_no_pair(monkeypatch):
    ring = Ring(3, 2)
    gens = [
        vec(ring, "x0^2", "0"),
        vec(ring, "2*x0*x1", "0"),
        vec(ring, "0", "0"),
        vec(ring, "0", "x1^3"),
        vec(ring, "x0^2", "0"),
        vec(ring, "2*x0^2*x1", "0"),
        vec(ring, "0", "2*x1^3"),
    ]
    counts = count_kernel_work(monkeypatch)
    flats = [_flatten(v) for v in gens]
    with pair_limit(1):
        assert _basis(flats, ring.p) == [
            ((0, (2, 0)), {(0, (2, 0)): 1}),
            ((0, (1, 1)), {(0, (1, 1)): 1}),
            ((1, (0, 3)), {(1, (0, 3)): 1}),
        ]
        basis = Submodule._from_flats(2, ring, flats).reduced_basis()
    assert basis == (vec(ring, "x0^2", "0"), vec(ring, "x0*x1", "0"), vec(ring, "0", "x1^3"))
    assert counts == {"pairs": 0, "normal_forms": 0}
    # the counters see the pair loop whenever one generator has two terms
    _basis(flats + [_flatten(vec(ring, "x0 + x1", "0"))], ring.p)
    assert counts["pairs"] > 0 and counts["normal_forms"] > 0


@st.composite
def term_generator_lists(draw):
    """Flat term lists at rank 1-3 over F_2, F_3, F_5 or F_7 in two variables,
    with zero vectors, repeated terms and coefficients other than 1, and a
    two-term vector whose lead sits in the position of the first term."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rank = draw(st.integers(1, 3))
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    pool = draw(st.lists(st.tuples(st.integers(0, rank - 1), monos), min_size=1, max_size=6))
    coeffs = st.integers(1, p - 1)
    gens = [{pool[0]: draw(coeffs)}]
    for _ in range(draw(st.integers(0, 9))):
        if draw(st.booleans()) and draw(st.booleans()):
            gens.append({})
        else:
            gens.append({draw(st.sampled_from(pool)): draw(coeffs)})
    gens = draw(st.permutations(gens))
    pos, (a, b) = pool[0]
    two_terms = {(pos, (a + 1, b)): draw(coeffs), (pos, (a, b + 1)): draw(coeffs)}
    return p, gens, two_terms


@contextlib.contextmanager
def recorded_pushes():
    """The S-pairs `modgb` queues inside the block."""
    pushed = []

    def heappush(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    fake = SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    with mock.patch.object(modgb, "heapq", fake):
        yield pushed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(term_generator_lists())
def test_term_basis_matches_reference(case):
    # a term list's basis, leads and order included, is the reference run's,
    # with no pair queued even under a cap of 1; one two-term vector beside a
    # term of its position sends the list through the pair loop
    p, gens, two_terms = case
    with recorded_pushes() as pushed, pair_limit(1):
        assert _basis([dict(g) for g in gens], p) == ref_reduce_basis(
            ref_buchberger([dict(g) for g in gens], p), p
        )
    assert pushed == []
    mixed = gens + [two_terms]
    with recorded_pushes() as pushed:
        assert _basis([dict(g) for g in mixed], p) == ref_reduce_basis(
            ref_buchberger([dict(g) for g in mixed], p), p
        )
    assert pushed


@st.composite
def lone_generator_lists(draw):
    """One nonzero flat vector, a term or up to five terms, at rank 1-3 over
    F_2, F_3 or F_5 in two variables, with zero vectors before and after it."""
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    terms = st.tuples(
        st.integers(0, rank - 1), st.tuples(st.integers(0, 3), st.integers(0, 3))
    )
    g = draw(st.dictionaries(terms, st.integers(1, p - 1), min_size=1, max_size=5))
    before, after = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return p, [{} for _ in range(before)] + [g] + [{} for _ in range(after)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lone_generator_lists())
def test_lone_generator_is_its_own_basis(case):
    # one nonzero vector made monic is the reduced basis of the pair loop and
    # interreduction, element by element: leads, terms and coefficients; no
    # Buchberger run, so even a cap of 1 cannot trip
    p, gens = case
    expected = _reduce_basis(_buchberger([dict(g) for g in gens], p), p)
    runs = []

    def counted(*args):
        runs.append(None)
        return _buchberger(*args)

    with mock.patch.object(modgb, "_buchberger", counted), pair_limit(1):
        got = _basis([dict(g) for g in gens], p)
    assert len(expected) == 1 and got == expected
    assert runs == []


def test_pair_limit_is_scoped_to_its_thread():
    # BUCHBERGER_CASES[0] needs a queue of 28 pairs
    ring, gens, _ = BUCHBERGER_CASES[0]
    vectors = [vec(ring, *g) for g in gens]
    entered, done = threading.Barrier(2, timeout=60), threading.Barrier(2, timeout=60)
    results = {}

    def capped():
        with pair_limit(1):
            entered.wait()
            done.wait()

    def uncapped():
        entered.wait()
        try:
            results["basis"] = Submodule(1, vectors, ring).reduced_basis()
        finally:
            done.wait()

    threads = [threading.Thread(target=capped), threading.Thread(target=uncapped)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results["basis"]


def test_pair_limit_restores_the_outer_cap_after_an_exception():
    # an inner block that fails inside, or that refuses its cap on entry,
    # leaves the outer block's cap in force
    ring, gens, _ = BUCHBERGER_CASES[0]
    vectors = [vec(ring, *g) for g in gens]
    with pair_limit(28):
        with pytest.raises(ResourceLimitExceeded), pair_limit(27):
            Submodule(1, vectors, ring).reduced_basis()
        assert modgb._pair_limit.get() == 28
        with pytest.raises(ValueError, match="pair limit must be positive"), pair_limit(0):
            pass
        assert modgb._pair_limit.get() == 28
        assert Submodule(1, vectors, ring).reduced_basis()
    assert modgb._pair_limit.get() == DEFAULT_PAIR_LIMIT


def test_pair_limit_restored_after_an_exception():
    ring, gens, _ = BUCHBERGER_CASES[0]
    vectors = [vec(ring, *g) for g in gens]
    with pytest.raises(ResourceLimitExceeded), pair_limit(27):
        Submodule(1, vectors, ring).reduced_basis()
    assert modgb._pair_limit.get() == DEFAULT_PAIR_LIMIT
    assert Submodule(1, vectors, ring).reduced_basis()
