"""`bfun`, `sset` and `jumps --json` stdout pinned by sha256 on a fixed set of problems.

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


# the list commands on the same problems: case id -> sha256 of the stdout of
# `sset --input <problem> --e 2 --json` and `jumps --input <problem> --e-max 4 --json`
LIST_COMMANDS = {"sset": ["--e", "2"], "jumps": ["--e-max", "4"]}
LIST_DIGESTS = {
    "sset-rank2-0-p2": "0598d7e1bccf6bcbb662617a9051ff25913e1362fd2728fc3fedea3f1e0302a4",
    "sset-rank2-1-p2": "0598d7e1bccf6bcbb662617a9051ff25913e1362fd2728fc3fedea3f1e0302a4",
    "sset-rank2-2-p2": "7309f762a09a31ea9160762233a22b59a5f696f518aabe583eed312f7bceaf79",
    "sset-rank2-3-p2": "f174e2242821177a252080d2a0e0b70afe185093b0c97aa244716cb9a601ae02",
    "sset-rank2-4-p2": "f174e2242821177a252080d2a0e0b70afe185093b0c97aa244716cb9a601ae02",
    "sset-rank2-5-p2": "7e7ce311a11c918bd4bfda556534f44e2dfcd1faaedf4ad52478802c110a1700",
    "sset-rank2-0-p3": "200578947e9c6f16ee8070409e4517ad3d51496373a34c9112f718e9e45f6692",
    "sset-rank2-1-p3": "200578947e9c6f16ee8070409e4517ad3d51496373a34c9112f718e9e45f6692",
    "sset-rank2-2-p3": "200578947e9c6f16ee8070409e4517ad3d51496373a34c9112f718e9e45f6692",
    "sset-rank2-3-p3": "d9d839fb4bef87f819b85dce4e2ba39e9b00d8615318bc6450dd29387bbf7e1a",
    "sset-rank2-4-p3": "d9d839fb4bef87f819b85dce4e2ba39e9b00d8615318bc6450dd29387bbf7e1a",
    "sset-rank2-5-p3": "7e7ce311a11c918bd4bfda556534f44e2dfcd1faaedf4ad52478802c110a1700",
    "sset-graph-x0^2+x1^3-p3": "4ef229e3b1527b5ef4c72c865c4d1424a47f2b0340bd02696a531d64ccfe4a4d",
    "sset-graph-x0^3+x0*x1^2-p3": "4ef229e3b1527b5ef4c72c865c4d1424a47f2b0340bd02696a531d64ccfe4a4d",
    "jumps-rank2-0-p2": "2eab43084f0a2b6bd9abf51d09a3f1c2240c602bb256b9135357034b66ba47dd",
    "jumps-rank2-1-p2": "2eab43084f0a2b6bd9abf51d09a3f1c2240c602bb256b9135357034b66ba47dd",
    "jumps-rank2-2-p2": "5b9a60852a22c888e58aba281420227eba74c75999f69b3dd27ca4a65ee83099",
    "jumps-rank2-3-p2": "889eb69ddfd474ad6d7b35409b7eade7eae2f56790c9ae5184ea8503eb5b0af1",
    "jumps-rank2-4-p2": "889eb69ddfd474ad6d7b35409b7eade7eae2f56790c9ae5184ea8503eb5b0af1",
    "jumps-rank2-5-p2": "b16e5352696ab5765e9742941e049f5eef3d8b5f18a62a74fa1c2eb85f050272",
    "jumps-rank2-0-p3": "07842c541bb0662cfed826a0d7840cd232c4e33602d9c2158c519457d8f5f521",
    "jumps-rank2-1-p3": "07842c541bb0662cfed826a0d7840cd232c4e33602d9c2158c519457d8f5f521",
    "jumps-rank2-2-p3": "07842c541bb0662cfed826a0d7840cd232c4e33602d9c2158c519457d8f5f521",
    "jumps-rank2-3-p3": "659675546bc6a37f16c515ece089beaf5b2c8ba1a8e6c36a3e1edabb319ce232",
    "jumps-rank2-4-p3": "659675546bc6a37f16c515ece089beaf5b2c8ba1a8e6c36a3e1edabb319ce232",
    "jumps-rank2-5-p3": "b16e5352696ab5765e9742941e049f5eef3d8b5f18a62a74fa1c2eb85f050272",
    "jumps-graph-x0^2+x1^3-p3": "c2bb81ae7db3fc18180ab278ffaa5fa85b378cc5328f4ec38d93b5b794518ae1",
    "jumps-graph-x0^3+x0*x1^2-p3": "c2bb81ae7db3fc18180ab278ffaa5fa85b378cc5328f4ec38d93b5b794518ae1",
}

LIST_CASES = [
    (command, kind, which, p)
    for command in LIST_COMMANDS
    for kind, which, p, e_max in CASES
    if e_max == 3
]


def list_case_id(case):
    command, kind, which, p = case
    return f"{command}-{kind}-{which}-p{p}"


@pytest.mark.parametrize("case", LIST_CASES, ids=list_case_id)
def test_list_command_json_bytes(case, tmp_path):
    command, kind, which, p = case
    path = tmp_path / "problem.json"
    path.write_text(problem_text(kind, which, p))
    argv = [command, "--input", str(path), *LIST_COMMANDS[command], "--json"]
    digest = hashlib.sha256(stdout_of(argv).encode()).hexdigest()
    assert digest == LIST_DIGESTS[list_case_id(case)]
