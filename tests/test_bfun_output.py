"""`bfun --json` stdout pinned by sha256 on a fixed set of problems.

The rank-2 matrices are those of the b-function benchmark, copied here so
that the suite does not depend on the benchmark package.  A change that
moves any byte of these outputs fails here without a benchmark run.
"""

import contextlib
import hashlib
import io
import json

import pytest

from fsing.cli import run

RANK2 = (
    [["t", "1"], ["0", "t"]],
    [["t", "x0"], ["0", "t"]],
    [["t^2", "1"], ["0", "t"]],
    [["x0+t", "1"], ["0", "t"]],
    [["t", "0"], ["0", "x0*t"]],
    [["t", "x0"], ["x1", "t"]],
)

GRAPHS = ("x0^2+x1^3", "x0^3+x0*x1^2")

# case id -> sha256 of the stdout of `bfun --input <problem> --e-max E --json`
DIGESTS = {
    "rank2-0-p2-e3": "2811443dd7480f81e3a343aef6b7a93c00fd2f38a9f6eb528e55d768aaf91753",
    "rank2-0-p2-e4": "fdf6d3f3db3e2930ab58e6dabb8cac49074b73c07b225994212d677986078c94",
    "rank2-1-p2-e3": "2811443dd7480f81e3a343aef6b7a93c00fd2f38a9f6eb528e55d768aaf91753",
    "rank2-1-p2-e4": "fdf6d3f3db3e2930ab58e6dabb8cac49074b73c07b225994212d677986078c94",
    "rank2-2-p2-e3": "18ca179dfb631b1e7671316c13f5234eb33fbd83adc86a4bec8faf842dba92fe",
    "rank2-2-p2-e4": "67993476da190e61a8323e0666558e410c0e491877fc0aff72656cbb549a1886",
    "rank2-3-p2-e3": "9a39635b26a2070f74e92928a7c8010d47980269ed1704cf23754b5895597606",
    "rank2-3-p2-e4": "50f228c71196fbbb7cf3306f20fea8101542deb47c93c77718f008c2c4e0e306",
    "rank2-4-p2-e3": "9a39635b26a2070f74e92928a7c8010d47980269ed1704cf23754b5895597606",
    "rank2-4-p2-e4": "50f228c71196fbbb7cf3306f20fea8101542deb47c93c77718f008c2c4e0e306",
    "rank2-5-p2-e3": "4906d07b8fa040c5b5cf40e46cf344ace95784871902d290efe3c03113a7b46b",
    "rank2-5-p2-e4": "2f81e51f82e847f46524755e6432dbe169111526e752210f8b08baf909869c55",
    "rank2-0-p3-e3": "a440efd0b0a018103c335a90560d7cec4794b52da4896b7b8dabd702e3baf9b5",
    "rank2-0-p3-e4": "0f1f3bddab2a6762429321f3cc1742e0d47fed7d187f267eef42d6b8a424cd92",
    "rank2-1-p3-e3": "a440efd0b0a018103c335a90560d7cec4794b52da4896b7b8dabd702e3baf9b5",
    "rank2-1-p3-e4": "0f1f3bddab2a6762429321f3cc1742e0d47fed7d187f267eef42d6b8a424cd92",
    "rank2-2-p3-e3": "a440efd0b0a018103c335a90560d7cec4794b52da4896b7b8dabd702e3baf9b5",
    "rank2-2-p3-e4": "0f1f3bddab2a6762429321f3cc1742e0d47fed7d187f267eef42d6b8a424cd92",
    "rank2-3-p3-e3": "cd5a2bcad4f6e43bb3c6c64d12032511f752eed6a503a4313059ab039b66f139",
    "rank2-3-p3-e4": "0fe8573ee99cf194d8cf20b9d169643d5cee0b153e731bd0a5b737f7910f5968",
    "rank2-4-p3-e3": "cd5a2bcad4f6e43bb3c6c64d12032511f752eed6a503a4313059ab039b66f139",
    "rank2-4-p3-e4": "0fe8573ee99cf194d8cf20b9d169643d5cee0b153e731bd0a5b737f7910f5968",
    "rank2-5-p3-e3": "4906d07b8fa040c5b5cf40e46cf344ace95784871902d290efe3c03113a7b46b",
    "rank2-5-p3-e4": "2f81e51f82e847f46524755e6432dbe169111526e752210f8b08baf909869c55",
    "graph-x0^2+x1^3-p3-e3": "8f966270fa3a029e0dc752de413715ad16eeb974b6969568e7b8dc458be55b09",
    "graph-x0^3+x0*x1^2-p3-e3": "8f966270fa3a029e0dc752de413715ad16eeb974b6969568e7b8dc458be55b09",
}

CASES = [
    ("rank2", i, p, e_max) for p in (2, 3) for i in range(len(RANK2)) for e_max in (3, 4)
] + [("graph", f, 3, 3) for f in GRAPHS]


def case_id(case):
    kind, which, p, e_max = case
    return f"{kind}-{which}-p{p}-e{e_max}"


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def problem_text(kind, which, p):
    if kind == "rank2":
        return json.dumps({"p": p, "gamma": 1, "num_vars": 2, "rank": 2, "matrix": RANK2[which]})
    return stdout_of(["graphgen", "--f", which, "-p", str(p)])


def bfun_digest(case, tmp_path):
    kind, which, p, e_max = case
    path = tmp_path / "problem.json"
    path.write_text(problem_text(kind, which, p))
    argv = ["bfun", "--input", str(path), "--e-max", str(e_max), "--json"]
    return hashlib.sha256(stdout_of(argv).encode()).hexdigest()


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_bfun_json_bytes(case, tmp_path):
    assert bfun_digest(case, tmp_path) == DIGESTS[case_id(case)]
