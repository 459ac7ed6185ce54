"""The Hamiltonian and B residuals of one state on one sample share one
evaluation of Psi: the second call reuses the Staeckel parts, the prefactor
and Psi of the first, with the reports each call makes alone, bit for bit.
"""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from curvedkepler import operators
from curvedkepler import (
    H3,
    S3,
    Level,
    ParameterError,
    QuantumNumbers,
    assemble_state,
    b_operator_residual,
    bound_states,
    chart_points,
    hamiltonian_residual,
    make_rng,
    perturbed,
)

SPACES = [(S3, 2.0), (H3, 50.0)]
KINDS = ["state", "level"]

# one case per (space, kind): the state, or a level of k <= 3, with its sample
_CASES = """
from curvedkepler import H3, S3, Level, QuantumNumbers, assemble_state, bound_states, chart_points, make_rng

def case(space, e, kind, seed):
    rng = make_rng(seed)
    if kind == "state":
        return assemble_state(space, e, QuantumNumbers(1, 1, 1)), chart_points(space, rng, 200)
    states = bound_states(space, e, 3)
    return Level(states), [chart_points(space, rng, 200) for _ in states]
"""

_ORDERED_PROCESS = _CASES + """
from curvedkepler import b_operator_residual, hamiltonian_residual
residuals = {{"H": hamiltonian_residual, "B": b_operator_residual}}
for space, e in ((S3, 2.0), (H3, 50.0)):
    for kind in ("state", "level"):
        state, sample = case(space, e, kind, 11)
        for name in {order!r}:
            print(space.name, kind, name, repr(residuals[name](state, sample)))
"""


def _case(space, e, kind, seed=11):
    namespace = {}
    exec(_CASES, namespace)
    return namespace["case"](space, e, kind, seed)


def _run_fresh(order: str) -> dict:
    src = str(Path(operators.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = _ORDERED_PROCESS.format(order=order)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    lines = [line.split(" ", 3) for line in out.stdout.splitlines()]
    return {tuple(key): text for *key, text in lines}


def test_a_pair_reports_what_each_residual_reports_alone_in_a_fresh_process():
    runs = {order: _run_fresh(order) for order in ("HB", "BH", "H", "B")}
    assert len(runs["HB"]) == len(runs["BH"]) == 8 and len(runs["H"]) == len(runs["B"]) == 4
    for (space, kind, name), text in runs["HB"].items():
        assert text == runs["BH"][space, kind, name] == runs[name][space, kind, name], (space, kind, name)


@pytest.fixture
def jet_calls(monkeypatch):
    calls = []
    jet = operators._factor_jet
    monkeypatch.setattr(operators, "_factor_jet", lambda *a: calls.append(1) or jet(*a))
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_a_pair_evaluates_each_factor_once(space, e, kind, jet_calls):
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    b_operator_residual(state, sample)
    assert len(jet_calls) == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_a_pair_applies_the_separated_operator_once_per_factor(monkeypatch, space, e, kind):
    """The second residual of a pair only combines the Staeckel parts of the first."""
    calls = []
    separated = operators._separated_operator
    monkeypatch.setattr(operators, "_separated_operator", lambda *a: calls.append(1) or separated(*a))
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    b_operator_residual(state, sample)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_a_sample_changed_in_place_is_evaluated_afresh(space, e, kind, jet_calls):
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    first = sample if kind == "state" else sample[-1]
    first.t1[0] = first.t1[1]
    got = b_operator_residual(state, sample)
    assert len(jet_calls) == 4
    fresh, _ = _case(space, e, kind)
    assert got == b_operator_residual(fresh, sample)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_a_perturbed_state_is_evaluated_afresh(space, e, kind, jet_calls):
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    if kind == "state":
        shifted = perturbed(state, epsilon=1e-6)
    else:
        shifted = Level([perturbed(s, epsilon=1e-6) for s in state])
    got = hamiltonian_residual(shifted, sample)
    assert len(jet_calls) == 4
    assert got != hamiltonian_residual(state, sample)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_the_second_call_still_checks_its_sample(space, e, kind):
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    if kind == "state":
        wrong = [[sample], list(sample)]
    else:
        wrong = [sample[:-1], sample + sample[:1], [list(b) for b in sample]]
    for bad in wrong:
        with pytest.raises(ParameterError):
            b_operator_residual(state, bad)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("space, e", SPACES)
def test_dropping_the_sample_frees_the_evaluation(space, e, kind):
    state, sample = _case(space, e, kind)
    hamiltonian_residual(state, sample)
    (*_, psi) = operators._last["entry"][3]
    kept = weakref.ref(psi)
    del psi, sample
    assert operators._last == {} and kept() is None


def test_another_state_on_the_sample_takes_the_entry():
    pts = chart_points(S3, make_rng(3), 50)
    states = bound_states(S3, 2.0, 2)
    for st in states:
        hamiltonian_residual(st, pts)
    assert operators._last["entry"][1] is states[-1]
