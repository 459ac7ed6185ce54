"""Tests of the benchmark harness; run with ``python3 -m pytest bench``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_package()

from tracing import Tracer, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402


def traced_pass(name: str, seed: int = 3) -> tuple[dict, Tally]:
    wl = WORKLOADS[name](seed)
    tally = Tally()
    tracer = Tracer()
    for j in range(wl.n_chunks):
        run.run_chunk(wl, j, tally, run.Clock(), tracer)
    return tracer.summarize(0, tracer.mark()), tally


def counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith(".self_s")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_counts_repeat_between_traced_runs(name):
    first, tally_1 = traced_pass(name)
    second, tally_2 = traced_pass(name)
    assert tally_1.failed == tally_2.failed == 0
    assert counts(first) == counts(second)
    assert sum(counts(first).values()) > 0


def test_no_wrapper_stays_installed_for_untraced_runs():
    wl = WORKLOADS["eval-grid"](3)
    tally = Tally()
    tracer = Tracer()
    with tracer:
        assert installed_wrappers()
        wl.run(0)
    recorded = tracer.mark()
    assert recorded > 0
    assert installed_wrappers() == []
    run.timed_loop(wl, 0.0, tally, min_samples=1)
    assert tracer.mark() == recorded
    assert installed_wrappers() == []
    assert tally.failed == 0


def test_wrappers_are_removed_when_the_traced_call_raises():
    from curvedkepler import kepler

    with pytest.raises(Exception):
        with Tracer():
            kepler.assemble_state(None, -1.0, None)
    assert installed_wrappers() == []


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [
        ("a", 0.0, 10.0, -1, 0, False),
        ("specfun.hyp2f1", 1.0, 4.0, 0, 5, False),
        ("specfun.hyp2f1", 5.0, 6.0, 0, 7, False),
    ]
    layer = tracer.summarize(0, 3)
    assert layer["specfun.hyp2f1.self_s"] == 4.0
    assert layer["specfun.hyp2f1.calls"] == 2
    assert layer["specfun.hyp2f1.points"] == 12


def test_tail_keeps_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0
    assert pct == 75.0
