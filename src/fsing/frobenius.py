"""Frobenius bracket powers, Frobenius roots, the stable chain, D^e-closure.

Everything here works through coefficient extraction in the monomial basis
x^u, 0 <= u < q^e: the root of N is spanned by the coefficient vectors of its
generators, so no differential operators are ever materialized.  The
D^e-module generated by N is (N^[1/q^e])^[q^e].

Deep roots are taken one level at a time along base-q digits, by the rules
(I^[1/q])^[1/q^{e-1}] = I^[1/q^e] and (g^q h)^[1/q] = g h^[1/q]
(Blickle-Mustata-Smith, Michigan Math. J. 57, 2008).  A one-level step
depends only on the span of the module and the digit, so the steps form a
finite graph on the distinct spans with edges labelled by digits
(`_RootGraph`).  The test ideals of `testideal` and the list walks of
`listmod` both run on it; only the step differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Callable, Dict, List, Tuple

from .errors import StabilizationError
from .modgb import FlatVec, Submodule, VectorR, contains_all, prune_generators
from .polyring import CharConfig, Monomial, Poly, frobenius_power

DEFAULT_STABLE_CAP = 16


def bracket_power(N: Submodule, e: int, cfg: CharConfig) -> Submodule:
    """N^[q^e]: span of the entrywise q^e-th powers of the generators."""
    if e < 1:
        raise ValueError("e must be positive")
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
    if N.ring.extra is not None or N.ring.p != cfg.p:
        raise ValueError("frobenius roots need a module over R in the characteristic of cfg")
    root = _root_generators(N, e, cfg, Poly.const(N.ring, 1))
    # which copy of a repeated vector pruning keeps depends on the list
    # order, so the first copy of each is kept here, before pruning
    return prune_generators(Submodule(N.rank, root.generators, N.ring))


def _root_generators(N: Submodule, e: int, cfg: CharConfig, g: Poly) -> Submodule:
    """(g N)^[1/q^e], e >= 0, spanned by all extracted coefficient vectors, unpruned.

    No product module is built: the terms of g times one generator are
    summed mod p and each nonzero one is filed at once under its residue,
    c x^m in position i, m = q^e w + u, going to c x^w in position i of u.
    A sum of terms is split once however many term pairs it collects.  At
    e = 0 the result is the product g N.  For g = 1 the span and the degree
    bound are those of `frobenius_root`; only the irredundancy of the list
    is missing, which callers that use the root for membership and sums
    alone do not need.  The list is not deduped either: two generators can
    give the same coefficient vector (x0^2 and x0^3 at q = 2 both give x0),
    and both copies stay.  `frobenius_root` dedupes before it prunes.
    """
    s, p = cfg.q**e, cfg.p
    g_terms = g.terms.items()
    out: List[FlatVec] = []
    for v in N._flats:
        prod: FlatVec = {}
        for (pos, m1), c1 in v.items():
            for m2, c2 in g_terms:
                t = (pos, tuple(map(add, m1, m2)))
                prod[t] = prod.get(t, 0) + c1 * c2
        per_u: Dict[Monomial, FlatVec] = {}
        for (pos, m), c in prod.items():
            if c := c % p:
                per_u.setdefault(tuple([x % s for x in m]), {})[pos, tuple([x // s for x in m])] = c
        out.extend(per_u[u] for u in sorted(per_u))
    return Submodule._from_flats(N.rank, N.ring, out)


class _RootGraph:
    """The one-level steps K -> step(K, d), d < q, of one call, each taken once.

    A step depends only on the span of K and the digit d, so it is kept
    under (K._canonical(), d) and taken once, however many digit prefixes
    reach that span.  Each span a step returns is kept as one object, so
    two steps that reach one span hand back the same object; the seeds a
    caller walks from are not kept.  The zero module is its own child and
    is never stepped.  The graph lives as long as its owner; nothing is kept
    at module level.  `cfg` is the characteristic the steps are taken in.
    """

    def __init__(self, step: Callable[[Submodule, int], Submodule], cfg: CharConfig):
        self.step, self.cfg, self.q = step, cfg, cfg.q
        self._known: Dict[Tuple[frozenset, ...], Submodule] = {}
        self.edges: Dict[Tuple[Tuple[frozenset, ...], int], Submodule] = {}

    def child(self, K: Submodule, d: int) -> Submodule:
        """step(K, d), as the one object kept for its span."""
        key = K._canonical()
        if not key:
            return K
        kid = self.edges.get((key, d))
        if kid is None:
            kid = self.step(K, d)
            kid = self.edges[key, d] = self._known.setdefault(kid._canonical(), kid)
        return kid

    def walk(self, K: Submodule, n: int, levels: int) -> Tuple[Submodule, int]:
        """K after `levels` steps along the low base-q digits of n, lowest
        first, and the rest n // q^levels."""
        for _ in range(levels):
            n, d = divmod(n, self.q)
            K = self.child(K, d)
        return K, n


@dataclass(frozen=True)
class StableRootResult:
    """Outcome of iterating N ⊇ N^[1/q] ⊇ ... to its first repeated value.

    `descending` is False when some step failed to be a containment, which
    can happen for inputs outside the coherent-subsheaf hypotheses; the
    repeated value is still returned.
    """

    module: Submodule
    stable_e: int
    descending: bool


def stable_root(N: Submodule, cfg: CharConfig, e_cap: int = DEFAULT_STABLE_CAP) -> StableRootResult:
    """The stable value of the iterated-root chain (the paper-level N^[0])."""
    prev = N
    descending = True
    for e in range(1, e_cap + 1):
        cur = frobenius_root(N, e, cfg)
        if descending and not contains_all(prev, cur.generators):
            descending = False
        if cur == prev:
            return StableRootResult(cur, e - 1, descending)
        prev = cur
    raise StabilizationError(
        f"iterated Frobenius roots did not stabilize within e_cap={e_cap}",
        last_two=(prev, frobenius_root(N, e_cap + 1, cfg)),
    )


def d_closure(N: Submodule, e: int, cfg: CharConfig) -> Submodule:
    """The D^e-module generated by N, computed as (N^[1/q^e])^[q^e]."""
    return bracket_power(frobenius_root(N, e, cfg), e, cfg)
