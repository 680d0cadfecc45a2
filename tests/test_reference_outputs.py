"""Every benchmark problem against its recorded output digest.

Each problem of every workload's universe in `perfbench/workloads.py` is
solved once through `fsing.cli.run`, and sha256(exit status + "\\n" + stdout)
is compared with `perfbench/reference.json`, as the benchmark does for the
problems it draws.  Problem files are written under the test's own
temporary directory, and their digests are checked too.  A change that
moves a byte of any benchmark output fails here without a benchmark run.
Every call, graphgen included, must be read by the CLI's flag reader:
argparse is refused for the whole test.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fsing.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def solve(argv):
    """(exit status as text, stdout bytes) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = str(run(list(argv)))
    return status, out.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_reference(name, tmp_path, monkeypatch):
    def refused(self, args=None, namespace=None):
        raise AssertionError(f"argparse ran on {args}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refused)
    reference = REFERENCE[name]
    solved, mismatched = set(), []
    for problem in workloads.WORKLOADS[name].universe():
        if problem.id in solved:
            continue
        solved.add(problem.id)
        argv = problem.argv
        if problem.graphgen is not None or problem.matrix is not None:
            if problem.graphgen is not None:
                status, text = solve(problem.graphgen)
                assert status == "0", f"graphgen failed for {problem.id}"
            else:
                text = problem.matrix.encode()
            if sha256(text) != reference["inputs"][problem.id]:
                mismatched.append(f"input of {problem.id}")
            path = tmp_path / f"{len(solved)}.json"
            path.write_bytes(text)
            argv = [str(path) if a == workloads.INPUT else a for a in argv]
        status, stdout = solve(argv)
        if sha256(status.encode() + b"\n" + stdout) != reference["outputs"][problem.id]:
            mismatched.append(problem.id)
    assert solved == set(reference["outputs"])
    assert mismatched == []
