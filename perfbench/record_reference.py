"""Write reference.json: the output digest of every problem a workload can generate.

    python3 perfbench/record_reference.py

Solves each problem of every workload's universe once through `fsing.cli.run`
and stores sha256(exit status, stdout) under the problem id, plus the digest
of every generated problem file.  The committed file was recorded with the
fsing sources this benchmark was introduced with; record it again only when
an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def record(workload, stopwatch) -> dict:
    cli = run.import_cli()
    outputs, inputs, paths = {}, {}, {}
    for p in workload.universe():
        if p.id in outputs:
            continue
        written = run.write_problem_file(cli, stopwatch, workload, p)
        if written is not None:
            paths[p.id], inputs[p.id] = written
        status, stdout, _, _ = stopwatch.call(cli, run.argv_of(p, paths))
        if status != "0":
            raise RuntimeError(f"{p.id} ended with {status}")
        outputs[p.id] = run.digest(status, stdout)
    return {"outputs": outputs, "inputs": inputs}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    stopwatch = run.Stopwatch(sample=False)
    reference = {}
    for name, workload in sorted(workloads.WORKLOADS.items()):
        reference[name] = record(workload, stopwatch)
        print(f"{name}: {len(reference[name]['outputs'])} problems", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
