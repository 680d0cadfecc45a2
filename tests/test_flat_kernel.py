"""The flat root steps against their VectorR reference copies.

`frobenius._root_generators` multiplies the flat generators of a
`Submodule` by a multiplier and roots them in one pass: by `_scalar(g, rank)`
for a product g N, and by a digit's slice of A(t) (`listmod._digit_slices`)
in a list walk's step `frobenius._RootGraph.child`.
The `ref_*` functions below build the product as `VectorR`s of `Poly`
entries first and root it after; each flat step must give the same
generators (where the step hands them back) and the same reduced basis.
`ref_expand_state` keeps its own term loop and bound check, so it is the
oracle of the matrix multiplier.
"""

from typing import Dict, Iterable, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsing.errors import InternalConsistencyError
from fsing.frobenius import _root_generators, _RootGraph, _scalar, frobenius_root
from fsing.listmod import TMatrix, _digit_slices
from fsing.modgb import Submodule, VectorR, prune_generators
from fsing.polyring import CharConfig, Monomial, Poly, Ring, frobenius_decompose, poly_parse


def ref_scaled(K: Submodule, g: Poly) -> List[VectorR]:
    return [v.poly_mul(g) for v in K.generators]


def ref_root_generators(vectors: Iterable[VectorR], e: int, cfg: CharConfig) -> List[VectorR]:
    """The coefficient vectors of each vector in turn, by residue u < q^e."""
    gens: List[VectorR] = []
    for v in vectors:
        zero = Poly.zero(v.ring)
        per_u: Dict[Monomial, List[Poly]] = {}
        for pos, entry in enumerate(v.entries):
            if entry.is_zero():
                continue
            parts = frobenius_decompose(entry, e, cfg) if e else {(0,) * v.ring.width: entry}
            for u, a_u in parts.items():
                if u not in per_u:
                    per_u[u] = [zero] * v.rank
                per_u[u][pos] = a_u
        for u in sorted(per_u):
            gens.append(VectorR(tuple(per_u[u])))
    return gens


def ref_expand_state(K: Submodule, A: TMatrix, cfg: CharConfig) -> List[List[VectorR]]:
    q, l = cfg.q, A.l
    bound = K.rank // l - 1
    ring = K.ring
    zero = Poly.zero(ring)
    columns = [
        [(i, mono[:-1], mono[-1], c) for i in range(l) for mono, c in A.mat[i][j].terms.items()]
        for j in range(l)
    ]
    gens: List[List[VectorR]] = [[] for _ in range(q)]
    for v in K.generators:
        acc: List[Dict[Monomial, Dict[int, Dict[Monomial, int]]]] = [{} for _ in range(q)]
        for idx, entry in enumerate(v.entries):
            s, j = divmod(idx, l)
            for i, a, m, c in columns[j]:
                shift, r = divmod(m + s, q)
                if shift > bound:
                    raise InternalConsistencyError(
                        f"a Frobenius-root state exceeds the tau-degree bound {bound}"
                    )
                coord = shift * l + i
                for b, cb in entry.terms.items():
                    split = [divmod(x + y, q) for x, y in zip(a, b)]
                    u = tuple(lo for _, lo in split)
                    w = tuple(hi for hi, _ in split)
                    cell = acc[r].setdefault(u, {}).setdefault(coord, {})
                    cell[w] = cell.get(w, 0) + c * cb
        for r, per_u in enumerate(acc):
            for u in sorted(per_u):
                coords = [zero] * K.rank
                for coord, terms in per_u[u].items():
                    coords[coord] = Poly(ring, terms)
                gens[r].append(VectorR(coords))
    return gens


def polys(ring: Ring, top: int, max_terms: int = 3):
    monos = st.tuples(*[st.integers(0, top)] * ring.width)
    coeffs = st.integers(1, ring.p - 1)
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(lambda t: Poly(ring, t))


def vectors(ring: Ring, rank: int, top: int):
    return st.tuples(*[polys(ring, top)] * rank).map(VectorR)


@st.composite
def modules(draw, max_gens: int = 3):
    """A module of rank 1-3 over F_2, F_3 or F_5 in two variables, given by
    flat generators that may repeat or vanish, as the internal steps build
    them."""
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    ring = Ring(p, 2)
    gens = draw(st.lists(vectors(ring, rank, 6), max_size=max_gens))
    flats = [
        {(pos, m): c for pos, entry in enumerate(v.entries) for m, c in entry.terms.items()}
        for v in gens
    ]
    if flats and draw(st.booleans()):
        flats.append(dict(draw(st.sampled_from(flats))))
    return Submodule._from_flats(rank, ring, flats)


@settings(derandomize=True, max_examples=160, deadline=None)
@given(modules(), st.integers(0, 2), st.data())
def test_scaled_matches_reference(N, e, data):
    # (g N)^[1/q^e] in one pass against the product g N built, then rooted;
    # at e = 0 the kernel is the product.  q = 4 is drawn over F_2.
    g = data.draw(polys(N.ring, 3))
    gamma = data.draw(st.sampled_from([1, 2])) if N.ring.p == 2 else 1
    cfg = CharConfig(N.ring.p, gamma)
    got = Submodule._from_flats(N.rank, N.ring, _root_generators(N, e, cfg, _scalar(g, N.rank)))
    want = ref_root_generators(ref_scaled(N, g), e, cfg)
    assert got.generators == tuple(want)
    assert got.reduced_basis() == Submodule(N.rank, want, N.ring).reduced_basis()


@pytest.mark.parametrize("nvars, texts", [
    (0, ["2", "1"]),
    (1, ["x0^7 + 2*x0^3", "x0^9"]),
    (3, ["x0^4*x1^2*x2^5 + x2^3", "x1^10 + 2*x0*x2"]),
])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_root_generators_split_every_width(nvars, texts, e):
    # each exponent is split by one divmod per variable, the constants of a
    # ring with no variables included
    cfg = CharConfig(3)
    ring = Ring(3, nvars)
    N = Submodule(2, [VectorR(tuple(poly_parse(t, ring) for t in texts))], ring)
    got = Submodule._from_flats(
        N.rank, ring, _root_generators(N, e, cfg, _scalar(Poly.const(ring, 1), N.rank))
    )
    assert got.generators == tuple(ref_root_generators(N.generators, e, cfg))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(modules(), st.integers(1, 2))
def test_root_generators_match_reference(N, e):
    cfg = CharConfig(N.ring.p)
    got = Submodule._from_flats(
        N.rank, N.ring, _root_generators(N, e, cfg, _scalar(Poly.const(N.ring, 1), N.rank))
    )
    want = ref_root_generators(N.generators, e, cfg)
    assert got.generators == tuple(want)
    assert got.reduced_basis() == Submodule(N.rank, want, N.ring).reduced_basis()
    # the public root dedupes and prunes the same list as before
    public = Submodule(N.rank, N.generators, N.ring)
    pruned = prune_generators(
        Submodule(N.rank, ref_root_generators(public.generators, e, cfg), N.ring)
    )
    assert frobenius_root(public, e, cfg).generators == pruned.generators


@st.composite
def states(draw):
    """A matrix A(t) over R[t] and a state K of rank 1-3, the rank not
    always the one A's t-degree asks for, so the bound check can fire."""
    p = draw(st.sampled_from([2, 3, 5]))
    cfg = CharConfig(p)
    l = draw(st.integers(1, 2))
    t_ring = Ring(p, 2, "t")
    mat = tuple(tuple(draw(polys(t_ring, 3, 2)) for _ in range(l)) for _ in range(l))
    rank = draw(st.integers(l, 3))
    ring = Ring(p, 2)
    K = Submodule(rank, draw(st.lists(vectors(ring, rank, 4), max_size=3)), ring)
    return TMatrix(mat, cfg), cfg, K


def outcome(children):
    try:
        return [child.reduced_basis() for child in children()]
    except InternalConsistencyError as exc:
        return str(exc)


def rank_three_state():
    # l = 2 does not divide rank 3: the top slot t^1 holds column 0 only,
    # and t^2 carries it past the bound 0
    cfg = CharConfig(3)
    t_ring, ring = Ring(3, 2, "t"), Ring(3, 2)
    zero_t, zero = Poly.zero(t_ring), Poly.zero(ring)
    A = TMatrix(((poly_parse("t^2", t_ring), zero_t), (zero_t, zero_t)), cfg)
    return A, cfg, Submodule(3, (VectorR((zero, zero, Poly.const(ring, 1))),), ring)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(states())
@example(rank_three_state())
def test_expand_state_matches_reference(case):
    A, cfg, K = case

    def children():
        graph = _RootGraph(_digit_slices(A, K.rank), cfg)
        return [graph.child(K, r) for r in range(cfg.q)]

    got = outcome(children)
    want = outcome(
        lambda: [Submodule(K.rank, g, K.ring) for g in ref_expand_state(K, A, cfg)]
    )
    if not K.generators:
        # the bound is checked once for the walk, whose start state is never
        # zero; the reference checks it on a state's generators, so it is
        # asked on the full module, and the zero state steps to zero
        full = Submodule.full(K.rank, K.ring)
        want = outcome(lambda: ref_expand_state(full, A, cfg) and [K] * cfg.q)
    assert got == want


def test_expand_state_checks_zero_coordinates():
    # coordinate 1 (t^1) is zero in the only generator, but A = t^3 would
    # carry it to t^2, past the bound 1 of a rank-2 state at q = 2
    cfg = CharConfig(2)
    ring = Ring(2, 0)
    A = TMatrix(((Poly(Ring(2, 0, "t"), {(3,): 1}),),), cfg)
    K = Submodule(2, (VectorR((Poly.const(ring, 1), Poly.zero(ring))),), ring)
    with pytest.raises(InternalConsistencyError, match="tau-degree bound 1"):
        _RootGraph(_digit_slices(A, K.rank), cfg).child(K, 0)
    with pytest.raises(InternalConsistencyError, match="tau-degree bound 1"):
        ref_expand_state(K, A, cfg)


@st.composite
def module_pairs(draw):
    """Two modules of one rank and ring: the second spans the same module as
    the first (reordered, scaled and with sums of its generators added), or
    drops one generator, or adds a new one."""
    p = draw(st.sampled_from([2, 3, 5]))
    rank = draw(st.integers(1, 3))
    ring = Ring(p, 2)
    gens = draw(st.lists(vectors(ring, rank, 4), max_size=3))
    kind = draw(st.sampled_from(["same", "drop", "add"]))
    other = list(draw(st.permutations(gens)))
    if kind == "same" and gens:
        c = draw(st.integers(1, p - 1))
        other = [v.scale(c) for v in other] + [gens[0] + gens[-1]]
    elif kind == "drop" and gens:
        other.pop(draw(st.integers(0, len(other) - 1)))
    elif kind == "add":
        other.append(draw(vectors(ring, rank, 4)))
    return Submodule(rank, gens, ring), Submodule(rank, other, ring)


def ideal_pair(p, a, b):
    ring = Ring(p, 2)
    return tuple(Submodule(1, (VectorR((poly_parse(t, ring),)),), ring) for t in (a, b))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(module_pairs())
@example(ideal_pair(3, "x0 + x1", "x0 + 2*x1"))  # same support, other coefficients
@example(ideal_pair(5, "x0^2 + 3*x1", "2*x0^2 + x1"))
def test_canonical_key_equality_is_basis_equality(pair):
    M, N = pair
    same_basis = M.reduced_basis() == N.reduced_basis()
    assert (M._canonical() == N._canonical()) == same_basis
    assert (M == N) == same_basis
    if same_basis:
        assert hash(M) == hash(N)
