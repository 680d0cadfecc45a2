"""End-to-end and per-layer benchmark of the fsing CLI.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {fjump,tau,bfun} --seed N --seconds S --trace {0,1}

and, for the six end-to-end metrics of every workload at once,

    for w in fjump tau bfun; do python3 perfbench/run.py --workload $w --seed 1 --seconds 36; done

The program under test is `fsing.cli.run(argv)` from `src/`, called in this
process by one caller in a closed loop: the next problem starts when the
previous one has returned.  Each solve's exit status and stdout bytes are
hashed and compared with `reference.json`; a solve fails on a nonzero exit,
SystemExit, an exception, a digest mismatch or an overrun of the per-problem
deadline.

Times are reported scaled to a reference machine speed (see "machine speed"
below); the unscaled figures are printed with the notes.  The workloads, and
why each exists, are in `workloads.py`; `predictions.json` says which
end-to-end metric each layer should move, and `baseline.json` holds the
figures of the sources the benchmark was introduced with.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 runs the
same problem sequence twice, first plain and then with every fsing module
wrapped by `tracer.py`, and reports the per-layer metrics of the traced half
and the tracing overhead.  Human-readable lines go to stdout first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 7  # set-up is repeated and its median reported
ROUNDS = 400  # rounds generated at set-up; the run wraps around if it gets through them
DIGEST_ROUNDS = 3  # rounds whose outputs make up the run's output digest
DEADLINE_S = 20.0  # per solve; the slowest admitted problem takes under 2 s
# Median of yardstick() in the faster of the two speed states of the machine
# the baseline was recorded on (2 vCPU x86-64 VM, CPython 3.11); end-to-end
# times are reported at that speed.  See "machine speed" below.
YARD_REF_S = 0.0003
YARD_PERIOD_S = 0.02  # yardstick period during a timed call


class Overrun(BaseException):
    """Raised from SIGALRM when a solve passes the deadline (not an Exception,
    so the CLI's own handlers cannot swallow it)."""


# -- the program under test ---------------------------------------------------------


def import_cli():
    """Import fsing afresh from src/ and return fsing.cli.

    Refuses an fsing found anywhere else, so the benchmark never measures an
    installed copy instead of the checkout.
    """
    if not (SRC / "fsing" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fsing package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "fsing" or n.startswith("fsing.")]:
        del sys.modules[name]
    cli = importlib.import_module("fsing.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"fsing imported from {cli.__file__}, not from {SRC}")
    return cli


def digest(status: str, stdout: bytes) -> str:
    return hashlib.sha256(status.encode() + b"\n" + stdout).hexdigest()


# -- machine speed ----------------------------------------------------------------
#
# The 2-vCPU VM the baseline was recorded on runs in two states about 1.7x
# apart that switch every few seconds, as other tenants' work comes and goes
# (a neighbour on the same core, most likely).  That moves every wall time
# alike and would swamp any change to fsing.  So the speed is sampled around
# and during each timed call with a yardstick, and each time is also
# reported scaled to the reference speed YARD_REF_S.


def yardstick() -> float:
    """Seconds taken by a fixed bit of pure-Python work shaped like fsing's
    own: a sparse product of exponent-tuple dicts and a sort by a key function.

    It shares no code with fsing, so no change to the program moves it; it
    moves only with the speed the machine gives this process.  The collector
    is held off meanwhile, so garbage left by the program is not collected
    on the yardstick's time.
    """
    a = {(i % 13, i // 13, i % 5): i % 7 + 1 for i in range(20)}
    b = {(i % 4, i // 4, i % 3): i % 5 + 1 for i in range(12)}
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = (out.get(m, 0) + c1 * c2) % 7
        ordered = sorted(out, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))
        max(ordered, key=lambda m: (m[2], m[1]))
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def bracket() -> float:
    """The median of three yardsticks, taken right before or after a timed call."""
    return statistics.median(yardstick() for _ in range(3))


def speed(yard) -> float:
    """The yardstick over a timed interval, from samples spread evenly over it.

    From ten samples on, a mean with the top and bottom tenth dropped, so a
    switch of speed state inside a long call is weighed by its share of the
    call.  Below ten, the median: a yardstick that was preempted reads tens of
    times its usual length, and trimming a tenth of fewer than ten samples
    would drop nothing.
    """
    ordered = sorted(yard)
    if len(ordered) < 10:
        return statistics.median(ordered)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Stopwatch:
    """Times CLI calls in this process and enforces the per-solve deadline.

    A SIGALRM every YARD_PERIOD_S checks the deadline and, with `sample`,
    runs a yardstick; the handler's time is taken out of the call's time.
    Tracing turns sampling off, so that no yardstick lands in a span.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.start = 0.0
        self.spent = 0.0  # handler time during the current call
        self.yard = []  # yardsticks during the current call
        self.history = []  # (handler time, yardsticks) of every call since the last reset
        self.busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        now = time.perf_counter()
        if now - self.start >= DEADLINE_S:
            raise Overrun()
        if self.sample and not self.busy:
            self.busy = True
            self.yard.append(yardstick())
            self.busy = False
            self.spent += time.perf_counter() - now

    def call(self, cli, argv):
        """Run one CLI call: (status, stdout bytes, seconds, yardsticks during it).

        status is the exit code as text, or names the SystemExit, exception
        or overrun that ended the call.
        """
        out, err = io.StringIO(), io.StringIO()
        self.spent, self.yard = 0.0, []
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.start = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, YARD_PERIOD_S, YARD_PERIOD_S)
                try:
                    status = str(cli.run(list(argv)))
                except SystemExit as exc:
                    status = f"SystemExit({exc.code})"
                except Exception as exc:  # the solve failed; the run goes on
                    status = type(exc).__name__
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    end = time.perf_counter()
        except Overrun:
            signal.setitimer(signal.ITIMER_REAL, 0)
            status, end = "overrun", time.perf_counter()
        self.history.append((self.spent, self.yard))
        return status, out.getvalue().encode(), end - self.start - self.spent, self.yard

    def timed(self, cli, argv):
        """call() bracketed by yardsticks: (status, stdout, seconds, scaled seconds)."""
        before = bracket()
        status, stdout, seconds, during = self.call(cli, argv)
        return status, stdout, seconds, seconds * YARD_REF_S / speed([before, *during, bracket()])


# -- set-up ----------------------------------------------------------------------------


def write_problem_file(cli, stopwatch, workload, problem):
    """Write the problem file of `problem` under WORK, from its matrix or from
    the stdout of its graphgen call: (path, sha256 of the bytes), or None for
    a problem that reads no file."""
    if problem.graphgen is not None:
        status, text, _, _ = stopwatch.call(cli, problem.graphgen)
        if status != "0":
            raise RuntimeError(f"graphgen failed for {problem.id}: {status}")
    elif problem.matrix is not None:
        text = problem.matrix.encode()
    else:
        return None
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload.name}-{hashlib.sha256(problem.id.encode()).hexdigest()[:16]}.json"
    path.write_bytes(text)
    return str(path), hashlib.sha256(text).hexdigest()


def argv_of(problem, paths) -> list:
    """The argv of `problem`, with INPUT replaced by its problem file from `paths`."""
    return [paths[problem.id] if a == workloads.INPUT else a for a in problem.argv]


class Setup:
    """Problem files, the seeded sequence and the reference, ready to run."""

    def __init__(self, cli, workload, seed: int, reference: dict, stopwatch: Stopwatch):
        self.cli = cli
        self.stopwatch = stopwatch
        self.workload = workload
        self.rounds = workloads.rounds(workload, seed, ROUNDS)
        self.outputs = reference["outputs"]
        self.paths = {}  # problem id -> problem file
        self.bad_inputs = set()  # ids whose written problem file differs from the reference
        distinct = {p.id: p for batch in self.rounds for p in batch}
        distinct.update((p.id, p) for p in workload.warmup)
        for p in distinct.values():
            written = write_problem_file(cli, stopwatch, workload, p)
            if written is None:
                continue
            self.paths[p.id], sha = written
            if sha != reference["inputs"].get(p.id):
                self.bad_inputs.add(p.id)
        # Warm-up calls are not bracketed by yardsticks, which set-up time would count.
        self.warmup_ok = True
        for p in workload.warmup:
            status, stdout, _, _ = stopwatch.call(cli, argv_of(p, self.paths))
            self.warmup_ok &= self.check(p, status, stdout)[0]

    def check(self, problem, status: str, stdout: bytes):
        """(ok, output digest) of one call of `problem`."""
        d = digest(status, stdout)
        return status == "0" and d == self.outputs.get(problem.id) and problem.id not in self.bad_inputs, d

    def solve(self, problem):
        """(seconds, scaled seconds, ok, output digest, stdout bytes) of one timed call."""
        gc.collect()  # keep collector work left by the last problem out of this one
        status, stdout, seconds, scaled = self.stopwatch.timed(self.cli, argv_of(problem, self.paths))
        ok, d = self.check(problem, status, stdout)
        return seconds, scaled, ok, d, len(stdout)

    def fingerprint(self) -> str:
        """Digest of the generated inputs: every argv of the sequence and every problem file."""
        h = hashlib.sha256()
        for batch in self.rounds:
            for p in batch:
                h.update(p.id.encode() + b"\n")
        for pid in sorted(self.paths):
            h.update(pid.encode() + b"\n" + Path(self.paths[pid]).read_bytes())
        return h.hexdigest()


def set_up(workload, seed: int, reps: int, stopwatch: Stopwatch):
    """Import, generate and warm up `reps` times; the last set-up is kept."""
    reference = json.loads(REFERENCE.read_text())[workload.name]
    times = []  # (seconds, scaled seconds) of each set-up
    for _ in range(reps):
        gc.collect()  # each set-up starts clear of the last one's garbage
        before = bracket()
        stopwatch.history.clear()
        start = time.perf_counter()
        setup = Setup(import_cli(), workload, seed, reference, stopwatch)
        seconds = time.perf_counter() - start - sum(spent for spent, _ in stopwatch.history)
        during = [y for _, yard in stopwatch.history for y in yard]
        times.append((seconds, seconds * YARD_REF_S / speed([before, *during, bracket()])))
    gc.collect()
    gc.freeze()  # set-up objects are long-lived; keep them out of later collections
    return setup, times


# -- measuring ---------------------------------------------------------------------------


class Sample:
    """One timed solve.  `scaled` is `seconds` at the reference machine speed."""

    __slots__ = ("problem", "seconds", "scaled", "ok", "digest", "out_bytes")

    def __init__(self, problem, seconds, scaled, ok, digest, out_bytes):
        self.problem = problem
        self.seconds = seconds
        self.scaled = scaled
        self.ok = ok
        self.digest = digest
        self.out_bytes = out_bytes


def measure(setup: Setup, seconds: float, tracer=None) -> list:
    """Solve the rounds of the sequence, one problem after another, until
    `seconds` of wall time have passed.

    The clock is read only between rounds, so a run holds whole rounds and
    every problem class in its fixed proportion.
    """
    samples = []
    setup.stopwatch.history.clear()
    start = time.perf_counter()
    for batch in itertools.cycle(setup.rounds):
        for problem in batch:
            if tracer is not None:
                tracer.begin(problem.id, problem.cls)
            samples.append(Sample(problem, *setup.solve(problem)))
        if time.perf_counter() - start >= seconds:
            return samples


def percentile(values, pct: float):
    """Nearest-rank percentile and the number of samples above it.

    latency_tail_s uses one fixed percentile per workload (Workload.tail_percentile),
    chosen so that it falls inside one problem class and leaves at least ten
    samples beyond it in a run of the set length; a percentile that moved with
    the sample count would make a faster commit report a higher tail.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def output_digest(setup: Setup, samples) -> str:
    """Digest over the outputs of the first DIGEST_ROUNDS rounds, in order;
    the same on every commit that prints the same bytes."""
    n = sum(len(b) for b in setup.rounds[:DIGEST_ROUNDS])
    if len(samples) < n:
        return "incomplete"
    h = hashlib.sha256()
    for s in samples[:n]:
        h.update(s.digest.encode())
    return h.hexdigest()


def end_to_end(samples, setup_times, workload) -> tuple:
    """The end-to-end metrics of a plain run, with every time scaled to the
    reference speed (see "machine speed").  The unscaled figures are printed
    with the notes."""
    ok = sum(s.ok for s in samples)
    figures = {}
    for i, kind in enumerate(("seconds", "scaled")):
        times = [getattr(s, kind) for s in samples]
        figures[kind] = (
            statistics.median(t[i] for t in setup_times),
            ok / sum(times),
            statistics.median(times),
            percentile(times, workload.tail_percentile),
        )
    setup_s, throughput, p50, (tail, beyond) = figures["scaled"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_pps": (throughput, "problems/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail, "s"),
        "ok_ratio": (ok / len(samples), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_setup, raw_throughput, raw_p50, (raw_tail, _) = figures["seconds"]
    notes = [
        f"latency_tail_s is p{workload.tail_percentile} of {len(samples)} solves, {beyond} beyond it",
        f"fail_ratio = {(len(samples) - ok) / len(samples)} ({len(samples) - ok} of {len(samples)})",
        f"unscaled: setup_s {raw_setup:.6g}, throughput_pps {raw_throughput:.6g}, "
        f"latency_p50_s {raw_p50:.6g}, latency_tail_s {raw_tail:.6g}",
        "set-up times (unscaled, scaled): " + ", ".join(f"{a:.4f} {b:.4f}" for a, b in setup_times),
    ]
    return metrics, notes


def per_layer(tr: tracing.Tracer, traced, plain) -> dict:
    calls, self_s, c = tr.total_calls, tr.total_self, tr.counters
    layers = tr.layer_self()
    wall = sum(s.seconds for s in traced)
    n = min(len(traced), len(plain))

    def ratio(a, b):
        return a / b if b else 0.0

    power = calls("polyring.PowerCache.power")
    groebner = calls(tracing.GROEBNER)
    basis_calls = groebner + calls(tracing.BASIS_CACHED)
    m = {}
    for layer in ("polyring", "modgb", "frobenius", "testideal", "listmod", "rationals", "bfun", "cli"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    m.update({
        "polyring.mul.calls": (calls(tracing.MUL), "count"),
        "polyring.mul.self_s": (self_s(tracing.MUL), "s"),
        "polyring.mul.term_pairs": (int(c["polyring.mul.term_pairs"]), "count"),
        "polyring.add.calls": (calls("polyring.Poly.__add__"), "count"),
        "polyring.add.self_s": (self_s("polyring.Poly.__add__"), "s"),
        "polyring.add.terms_in": (int(c["polyring.add.terms_in"]), "count"),
        "polyring.power.calls": (power, "count"),
        "polyring.power.hit_ratio": (ratio(c["polyring.power.hits"], power), "ratio"),
        "polyring.frobenius_decompose.self_s": (self_s("polyring.frobenius_decompose"), "s"),
        "modgb.groebner.calls": (groebner, "count"),
        "modgb.groebner.self_s": (self_s(tracing.GROEBNER), "s"),
        "modgb.groebner.basis_terms": (int(c["modgb.groebner.basis_terms"]), "count"),
        "modgb.basis.hit_ratio": (ratio(basis_calls - groebner, basis_calls), "ratio"),
        "modgb.normal_form.calls": (calls("modgb.Submodule.normal_form"), "count"),
        "modgb.normal_form.self_s": (self_s("modgb.Submodule.normal_form"), "s"),
        "modgb.contains.calls": (calls("modgb.contains"), "count"),
        "modgb.prune.calls": (calls("modgb.prune_generators"), "count"),
        "modgb.prune.self_s": (self_s("modgb.prune_generators"), "s"),
        "modgb.prune.kept_ratio": (ratio(c["modgb.prune.gens_out"], c["modgb.prune.gens_in"]), "ratio"),
        "frobenius.root.calls": (calls("frobenius.frobenius_root"), "count"),
        "frobenius.root.self_s": (self_s("frobenius.frobenius_root"), "s"),
        "frobenius.root.gens_in": (int(c["frobenius.root.gens_in"]), "count"),
        "frobenius.root.gens_out": (int(c["frobenius.root.gens_out"]), "count"),
        "testideal.tau_f_stable.calls": (calls("testideal.tau_f_stable"), "count"),
        "testideal.f_jumping_exponents.self_s": (self_s("testideal.f_jumping_exponents"), "s"),
        "listmod.h_expand.calls": (calls("listmod.h_expand"), "count"),
        "listmod.h_expand.self_s": (self_s("listmod.h_expand"), "s"),
        "listmod.h_expand.terms_out": (int(c["listmod.h_expand.terms_out"]), "count"),
        "listmod.ltm_scan.calls": (calls("listmod.ltm_scan"), "count"),
        "listmod.ltm_scan.self_s": (self_s("listmod.ltm_scan"), "s"),
        "listmod.s_set.calls": (calls("listmod.s_set"), "count"),
        "listmod.load_problem_file.self_s": (self_s("listmod.load_problem_file"), "s"),
        "rationals.snap_interval.calls": (calls("rationals.snap_interval"), "count"),
        "rationals.detect_chain_limit.calls": (calls("rationals.detect_chain_limit"), "count"),
        "bfun.b_function.calls": (calls("bfun.b_function"), "count"),
        "cli.output_bytes": (sum(s.out_bytes for s in traced), "bytes"),
        "untraced.self_s": (wall - tr.root_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_ratio": (
            sum(s.scaled for s in traced[:n]) / sum(s.scaled for s in plain[:n]), "ratio"),
    })
    return m


def share_lines(tr: tracing.Tracer) -> list:
    """Per problem class: the layers' and the largest spans' shares of self time."""
    lines = []
    for tag, names in sorted(tr.by_tag().items()):
        total = sum(names.values())
        layers = {}
        for name, s in names.items():
            layers[name.split(".", 1)[0]] = layers.get(name.split(".", 1)[0], 0.0) + s
        top_layers = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
        top_spans = sorted(names.items(), key=lambda kv: -kv[1])[:4]
        lines.append(
            f"{tag}: {total:.3f} s traced; layers "
            + ", ".join(f"{k} {v / total:.0%}" for k, v in top_layers)
            + "; spans "
            + ", ".join(f"{k} {v / total:.0%}" for k, v in top_spans)
        )
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    stopwatch = Stopwatch(sample=not trace)
    setup, setup_times = set_up(workload, seed, 1 if trace else SETUP_REPS, stopwatch)
    if trace:
        plain = measure(setup, seconds / 2)
        tr = tracing.Tracer()
        installation = tracing.install(tr)
        try:
            samples = measure(setup, seconds / 2, tr)
        finally:
            installation.uninstall()
        metrics = per_layer(tr, samples, plain)
        layer_sum = sum(v for k, (v, _) in metrics.items()
                        if k.count(".") == 1 and k.endswith(".self_s"))
        notes = share_lines(tr) + [
            f"layer self times + untraced = {layer_sum:.6f} s; traced wall = {metrics['trace.wall_s'][0]:.6f} s",
            f"{len(tr.spans)} spans kept, {tr.dropped} more not kept",
        ]
        tr.write_spans(WORK / f"spans-{workload.name}-seed{seed}.tsv")
        samples = plain + samples
    else:
        samples = measure(setup, seconds)
        metrics, notes = end_to_end(samples, setup_times, workload)
    failed = sum(not s.ok for s in samples)
    correct = failed == 0 and setup.warmup_ok and not setup.bad_inputs
    notes += [
        f"input fingerprint {setup.fingerprint()}",
        f"output digest {output_digest(setup, samples)} (first {DIGEST_ROUNDS} rounds)",
        f"distinct problems solved: {len({s.problem.id for s in samples})}; "
        f"warm-up ok: {setup.warmup_ok}; problem files differing from the reference: {len(setup.bad_inputs)}",
    ]
    return {
        "notes": notes,
        "result": {
            "correct": correct,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, RuntimeError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for line in out["notes"]:
        print(f"# {line}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
