"""Frobenius bracket powers, Frobenius roots, and the graph of one-level roots.

Everything here works through coefficient extraction in the monomial basis
x^u, 0 <= u < q^e: the root of N is spanned by the coefficient vectors of its
generators, so no differential operators are ever materialized.

Deep roots are taken one level at a time along base-q digits, by the rules
(I^[1/q])^[1/q^{e-1}] = I^[1/q^e] and (g^q h)^[1/q] = g h^[1/q]
(Blickle-Mustata-Smith, Michigan Math. J. 57, 2008).  A one-level step
depends only on the span of the module and the digit, so the steps form a
finite graph on the distinct spans with edges labelled by digits
(`_RootGraph`).  The graph takes the multiplier m_d of each digit d and runs
the one step K -> (m_d K)^[1/q] itself: m_d is f^d for the test ideals of
`testideal` and the digit-d slice of A(t) for the list walks of `listmod`,
each built at its first use by a `_Table`.
A list walk's running sums are kept on its graph as well, one object per
span, so within one call the graph is the only store of spans.  The levels
of one root or walk are capped at `MAX_LEVEL` (`_check_level`).
"""

from __future__ import annotations

from operator import add
from typing import Callable, Dict, List, Sequence, Tuple

from .errors import ResourceLimitExceeded
from .modgb import FlatVec, Submodule, VectorR, prune_generators
from .polyring import CharConfig, Monomial, Poly, check_char, frobenius_power

Multiplier = Sequence[Sequence[Tuple[int, Monomial, int]]]

# Cap on the levels e of one root or walk: frobenius_root's and
# bracket_power's e, tau_f's e, f_jumping_exponents' e_max, the c of a
# stable alpha = a / (q^c (q^d - 1)), a list level e or e_max, and
# h_expand's e.  A root walks e levels, each a divmod of a number
# near q^e, so time grows as e^2; the tests need e <= 12 and the benchmarks
# e <= 4.
MAX_LEVEL = 1000


def _check_level(e: int, what: str) -> None:
    """Raise `ResourceLimitExceeded` for a level e past `MAX_LEVEL`, before
    q^e is formed."""
    if e > MAX_LEVEL:
        raise ResourceLimitExceeded(f"{what} = {e} exceeds the level cap of {MAX_LEVEL}")


def bracket_power(N: Submodule, e: int, cfg: CharConfig) -> Submodule:
    """N^[q^e]: span of the entrywise q^e-th powers of the generators."""
    if e < 1:
        raise ValueError("e must be positive")
    _check_level(e, "the bracket power level e")
    gens = [
        VectorR(tuple(frobenius_power(p, e, cfg) for p in v.entries))
        for v in N.generators
    ]
    return Submodule(N.rank, gens, N.ring)


def frobenius_root(N: Submodule, e: int, cfg: CharConfig) -> Submodule:
    """N^[1/q^e]: the minimal N' with N'^[q^e] containing N.

    Generator-local: decompose every entry of every generator over the basis
    x^u (u < q^e componentwise) and collect, per u, the vector of extracted
    coefficients.  The generator list is pruned to an irredundant one but not
    replaced by a Groebner basis, preserving the degree bound
    deg <= floor(maxdeg(N)/q^e).
    """
    if e < 1:
        raise ValueError("e must be positive")
    _check_level(e, "the root level e")
    if N.ring.extra is not None:
        raise ValueError("frobenius roots need a module over the pure ring R")
    check_char(N.ring, cfg, "module")
    root = _root_generators(N, e, cfg, _scalar(Poly.const(N.ring, 1), N.rank))
    # which copy of a repeated vector pruning keeps depends on the list
    # order, so the first copy of each is kept here, before pruning
    gens = Submodule._from_flats(N.rank, N.ring, root).generators
    return prune_generators(Submodule(N.rank, gens, N.ring))


def _scalar(g: Poly, rank: int) -> Multiplier:
    """Multiplication by g on R^rank."""
    return [[(i, m, c) for m, c in g.terms.items()] for i in range(rank)]


def _root_generators(N: Submodule, e: int, cfg: CharConfig, mult: Multiplier) -> List[FlatVec]:
    """The flat generators of (mult N)^[1/q^e], e >= 0: all extracted
    coefficient vectors, unpruned.

    mult[i] lists the terms (j, m, c) that send x^w in position i to
    c x^(w+m) in position j: `_scalar(g, rank)` for g N, a digit's slice of
    A(t) for a list walk's step.  No product module is built: the products
    of one generator are summed mod p and each nonzero sum c x^m in position
    j, m = q^e w + u, is split by one divmod per variable and filed at once
    as c x^w in position j of residue u's vector, so a sum is split once
    however many term pairs it collects.  At e = 0 the result is the
    product.  For the identity the span and degree bound are those of
    `frobenius_root`, unpruned and not deduped: x0^2 and x0^3 at q = 2 both
    give x0, and both copies stay.
    The caller builds the module: `Submodule._spanned` for a root step.
    """
    s, p = cfg.q**e, cfg.p
    out: List[FlatVec] = []
    for v in N._flats:
        prod: FlatVec = {}
        for (pos, m1), c1 in v.items():
            for j, m2, c2 in mult[pos]:
                t = (j, tuple(map(add, m1, m2)))
                prod[t] = prod.get(t, 0) + c1 * c2
        per_u: Dict[Monomial, FlatVec] = {}
        for (pos, m), c in prod.items():
            if c := c % p:
                w, u = [], []
                for x in m:
                    x_w, x_u = divmod(x, s)
                    w.append(x_w)
                    u.append(x_u)
                per_u.setdefault(tuple(u), {})[pos, tuple(w)] = c
        out.extend(per_u[u] for u in sorted(per_u))
    return out


class _Table(dict):
    """A dict that builds the value of a missing key by `build(key)` at its
    first lookup and keeps it; a hit is a plain dict lookup."""

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


class _RootGraph:
    """The one-level steps K -> (mults[d] K)^[1/q], d < q, of one call, each
    taken once, and the sums K -> K + P of its running sums.

    A step depends only on the span of K and the digit d, so it is kept
    under (K._canonical(), d) and taken once, however many digit prefixes
    reach that span; a sum is kept under the canonical keys of its two
    terms.  Each span a step or a sum returns is kept as one object, so two
    steps or sums that reach one span hand back the same object, and a
    running sum over the states is itself a state where their spans meet;
    a seed a caller walks or sums from is kept only if it is passed to
    `kept`, which `f_jumping_exponents` does for its seed and `_RootWalk`
    for its zero.  The zero module is its own child and is never stepped.
    The graph lives as long as its owner; nothing is kept at module level.
    `mults[d]` is the multiplier of digit d, read at each new step of that
    digit; the library's callers pass a `_Table` that builds it then.
    `cfg` is the characteristic the steps are taken in.
    """

    def __init__(self, mults: Sequence[Multiplier], cfg: CharConfig):
        self.mults, self.cfg, self.q = mults, cfg, cfg.q
        self._known: Dict[Tuple[frozenset, ...], Submodule] = {}
        self.edges: Dict[Tuple[Tuple[frozenset, ...], int], Submodule] = {}
        self._sums: Dict[Tuple[Tuple[frozenset, ...], ...], Submodule] = {}

    def kept(self, K: Submodule) -> Submodule:
        """The one object kept for the span of K."""
        return self._known.setdefault(K._canonical(), K)

    def child(self, K: Submodule, d: int) -> Submodule:
        """(mults[d] K)^[1/q], as the one object kept for its span and
        generated by its reduced basis (`Submodule._spanned`)."""
        key = K._canonical()
        if not key:
            return K
        kid = self.edges.get((key, d))
        if kid is None:
            flats = _root_generators(K, 1, self.cfg, self.mults[d])
            kid = self.edges[key, d] = self.kept(Submodule._spanned(K.rank, K.ring, flats))
        return kid

    def add(self, cum: Submodule, piece: Submodule) -> Submodule:
        """cum + piece: cum itself when it contains piece, else the one
        object kept for the span of the two, generated by its reduced basis.
        A piece that is cum, or has no generators, returns cum with no key
        looked up."""
        if piece is cum or not piece._flats:
            return cum
        key = (cum._canonical(), piece._canonical())
        total = self._sums.get(key)
        if total is None:
            total = cum
            if not cum._contains_flats(piece._flats):
                flats = cum._flats + piece._flats
                total = self.kept(Submodule._spanned(cum.rank, cum.ring, flats))
            self._sums[key] = total
        return total

    def walk(self, K: Submodule, n: int, levels: int) -> Tuple[Submodule, int]:
        """K after `levels` steps along the low base-q digits of n, lowest
        first, and the rest n // q^levels."""
        for _ in range(levels):
            n, d = divmod(n, self.q)
            K = self.child(K, d)
        return K, n
