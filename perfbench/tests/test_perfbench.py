"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    tr = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = tr.enter("x.a")
    b = tr.enter("x.b")
    c = tr.enter("y.c")
    tr.leave(c)
    tr.leave(b)
    d = tr.enter("y.d")
    tr.leave(d)
    tr.leave(a)
    assert tr.total_self("x.a") == 10 - 3 - 4
    assert tr.total_self("x.b") == 3 - 1
    assert tr.total_self("y.c") == 1
    assert tr.total_self("y.d") == 4
    assert tr.layer_self() == {"x": 5, "y": 5}
    assert tr.root_s == 10
    parents = {name: parent for _, parent, name, *_ in tr.spans}
    ids = {name: span_id for span_id, _, name, *_ in tr.spans}
    assert parents == {"y.c": ids["x.b"], "x.b": ids["x.a"], "y.d": ids["x.a"], "x.a": -1}


def test_span_log_is_capped():
    tr = tracing.Tracer(clock=FakeClock(range(100)), span_cap=3)
    for _ in range(5):
        tr.leave(tr.enter("x.f"))
    assert len(tr.spans) == 3 and tr.dropped == 2
    assert tr.total_calls("x.f") == 5


@pytest.fixture
def cli():
    return run.import_cli()


def _problems(tmp_path, cli, stopwatch):
    """A cheap problem of each subcommand the workloads use, as argv lists."""
    argvs = [list(p.argv) for p in workloads.FJUMP.warmup + workloads.TAU.warmup]
    status, graph, _, _ = stopwatch.call(cli, ["graphgen", "--f", "x0^2+x1^3", "-p", "3"])
    assert status == "0"
    (tmp_path / "graph.json").write_bytes(graph)
    (tmp_path / "rank2.json").write_text(workloads.BFUN.warmup[-1].matrix)
    for name in ("graph.json", "rank2.json"):
        argvs.append(["bfun", "--input", str(tmp_path / name), "--e-max", "3", "--json"])
    return argvs


def test_traced_output_is_byte_identical(tmp_path, cli):
    stopwatch = run.Stopwatch(sample=False)
    argvs = _problems(tmp_path, cli, stopwatch)
    plain = [stopwatch.call(cli, argv)[:2] for argv in argvs]
    tr = tracing.Tracer()
    inst = tracing.install(tr)
    try:
        traced = [stopwatch.call(cli, argv)[:2] for argv in argvs]
    finally:
        inst.uninstall()
    assert traced == plain
    assert all(status == "0" and out for status, out in plain)
    assert tr.total_calls("cli.run") == len(argvs)
    assert tr.total_calls(tracing.GROEBNER) > 0 and tr.total_calls(tracing.MUL) > 0


@pytest.mark.parametrize("sample", [False, True])
def test_overrun_is_a_failed_call(cli, monkeypatch, sample):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    argv = ["fjump", "--f", "x0^2+x1^3", "-p", "7", "--e-max", "2", "--json"]
    status, stdout, seconds, during = run.Stopwatch(sample).call(cli, argv)
    assert status == "overrun" and stdout == b""
    assert 0.04 < seconds < 1.0
    assert bool(during) == sample


def test_rebinding_reaches_every_module(cli):
    import fsing.cli
    import fsing.frobenius
    import fsing.listmod
    import fsing.polyring
    import fsing.testideal

    originals = {id(obj) for _, _, obj in tracing.traced_functions().values()}
    root = fsing.frobenius.frobenius_root
    mul = fsing.polyring.Poly.__mul__
    holders = [m for m in tracing.fsing_modules().values() if vars(m).get("frobenius_root") is root]
    assert {m.__name__ for m in holders} >= {
        "fsing", "fsing.frobenius", "fsing.testideal", "fsing.listmod", "fsing.cli"}

    inst = tracing.install(tracing.Tracer())
    try:
        for name, mod in tracing.fsing_modules().items():
            left = [a for a, obj in vars(mod).items() if id(obj) in originals]
            assert not left, f"{name} still holds untraced {left}"
        for mod in holders:
            assert mod.frobenius_root is not root
            assert mod.frobenius_root.__wrapped__ is root
        assert fsing.polyring.Poly.__mul__ is not mul
    finally:
        inst.uninstall()
    assert all(mod.frobenius_root is root for mod in holders)
    assert fsing.polyring.Poly.__mul__ is mul


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded(name):
    w = workloads.WORKLOADS[name]
    first = workloads.rounds(w, 7, 50)
    assert first == workloads.rounds(w, 7, 50)
    assert first != workloads.rounds(w, 8, 50)
    per_round = sum(k for _, k, _ in w.classes)
    assert all(len(batch) == per_round for batch in first)
    universe = {p.id for p in w.universe()}
    assert {p.id for batch in first for p in batch} <= universe


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_covers_the_universe(name):
    reference = json.loads(run.REFERENCE.read_text())[name]
    universe = workloads.WORKLOADS[name].universe()
    assert set(reference["outputs"]) == {p.id for p in universe}
    with_files = {p.id for p in universe if p.graphgen or p.matrix}
    assert set(reference["inputs"]) == with_files


@pytest.mark.parametrize("kind, size", [
    ("fjump", {"p": 11, "e_max": 2, "terms": 2, "deg": 3}),
    ("fjump", {"p": 5, "e_max": 2, "terms": 3, "deg": 5}),
    ("bfun", {"p": 3, "e_max": 5, "rank": 1, "deg": 3}),
    ("bfun", {"p": 5, "e_max": 3, "rank": 1, "deg": 3}),
    ("tau", {"p": 5, "a": 11160, "terms": 3, "deg": 4}),
])
def test_bounds_reject_runaway_problems(kind, size):
    with pytest.raises(ValueError):
        workloads.check_bounds(kind, size)


def test_percentile_counts_samples_beyond():
    assert run.percentile(range(1, 101), 90) == (90, 10)
    assert run.percentile([5.0], 95) == (5.0, 0)


def test_speed_ignores_a_preempted_yardstick():
    assert run.speed([1.0, 1.0]) == 1.0
    assert run.speed([1.0, 40.0, 1.0]) == 1.0
    assert run.speed([1.0, 1.0, 40.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == 1.0
    assert run.speed([1.0] * 9 + [40.0]) == 1.0
