"""The matrix list of a matrix over R[t], for tests that run a list."""

from fsing.listmod import MatrixList, TMatrix
from fsing.polyring import Poly


def decompose(A: TMatrix) -> MatrixList:
    """The list {A_{k,n}} of A(t): each t-exponent v is split as v = kq + n, 0 <= n < q."""
    q, l, base = A.cfg.q, A.l, A.ring.base()
    pieces = {}
    for i, row in enumerate(A.mat):
        for j, entry in enumerate(row):
            for v, coeff in entry.split_extra().items():
                mat = pieces.setdefault(divmod(v, q), [[Poly.zero(base)] * l for _ in range(l)])
                mat[i][j] = coeff
    return MatrixList(l, A.cfg, base, {kn: tuple(map(tuple, mat)) for kn, mat in pieces.items()})
