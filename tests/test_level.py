"""A level: the states of one space evaluated as one stack.

Each state of a stacked call must get the report its own call gets on
the same draws, bit for bit, whatever the mix of degrees, the
perturbations, the stack size (one state included) or the points
skipped in another state.
"""

import numpy as np
import pytest

from curvedkepler import kepler, operators
from curvedkepler import (
    H3,
    S3,
    DomainError,
    Level,
    ParabolicPoints,
    ParameterError,
    QuantumNumbers,
    apply_b_operator,
    apply_hamiltonian,
    assemble_state,
    b_operator_residual,
    bound_states,
    chart_points,
    factor,
    factor_derivatives,
    factor_samples,
    hamiltonian_residual,
    make_rng,
    ode_residual,
    perturbed,
    quasi_points,
    run_suite,
    runge_lenz_check,
    wavefunction_values,
)
from curvedkepler.operators import SINGULAR_SKIP
from curvedkepler.verify import CHART_POINTS, _suite_rng


def _draws(space, states, seed):
    rng = make_rng(seed)
    batches = [chart_points(space, rng, 200) for _ in states]
    samples = {which: [factor_samples(space, rng, which, 100) for _ in states] for which in (1, 2)}
    return batches, samples


def _assert_stack_matches_states(states, batches, samples):
    level = Level(states)
    for residual in (hamiltonian_residual, b_operator_residual):
        reports = residual(level, batches)
        assert len(reports) == len(states)
        for st, batch, report in zip(states, batches, reports):
            assert report.to_json_dict() == residual(st, batch).to_json_dict(), (residual.__name__, st.qn)
    for which in (1, 2):
        reports = ode_residual(level, which, samples[which])
        assert len(reports) == len(states)
        for st, t, report in zip(states, samples[which], reports):
            assert report.to_json_dict() == ode_residual(st, which, t).to_json_dict(), (which, st.qn)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 50.0)])
def test_a_stack_of_mixed_degrees_keeps_every_state_bits(space, e):
    states = bound_states(space, e, 4)
    assert {s.qn.n1 for s in states} == {0, 1, 2, 3}
    _assert_stack_matches_states(states, *_draws(space, states, 41))


def test_a_stack_with_perturbed_states_keeps_their_bits():
    states = [perturbed(s, epsilon=1e-6) if i % 3 else s for i, s in enumerate(bound_states(S3, 2.0, 4))]
    _assert_stack_matches_states(states, *_draws(S3, states, 42))


def test_a_stack_past_numpys_temporary_elision_keeps_bits():
    """numpy runs a * b as b *= a when b is a temporary of 256 KiB or more;
    204 states of 100 and 200 complex points each are past that size."""
    states = bound_states(S3, 2.0, 8)
    assert len(states) * 100 * 16 > 256 * 1024
    _assert_stack_matches_states(states, *_draws(S3, states, 43))


def test_a_singular_point_changes_only_its_own_state_report():
    states = bound_states(S3, 2.0, 3)
    batches, _ = _draws(S3, states, 44)
    level = Level(states)
    b = batches[5]
    t2 = b.t2.copy()
    t2[7] = b.t1[7] * (1.0 + 1e-9)  # next to the chart axis t1 = t2
    hit = ParabolicPoints(b.t1, t2, b.phi)
    assert np.count_nonzero(hit.clearance() < SINGULAR_SKIP) == 1
    for residual in (hamiltonian_residual, b_operator_residual):
        clean = residual(level, batches)
        reports = residual(level, batches[:5] + [hit] + batches[6:])
        for s, (report, want) in enumerate(zip(reports, clean)):
            if s != 5:
                assert report.to_json_dict() == want.to_json_dict(), s
        assert (reports[5].n_points, clean[5].n_points) == (199, 200)
        assert (reports[5].note, clean[5].note) == ("skipped 1 singular point(s)", "")
        assert reports[5].to_json_dict() == residual(states[5], hit).to_json_dict()


def test_a_stack_needs_one_sample_per_state():
    states = bound_states(S3, 2.0, 2)
    batches, samples = _draws(S3, states, 45)
    level = Level(states)
    for residual in (hamiltonian_residual, b_operator_residual):
        with pytest.raises(ParameterError):
            residual(level, batches[:-1])
        with pytest.raises(ParameterError):
            residual(level, batches + batches[:1])
    with pytest.raises(ParameterError):
        ode_residual(level, 1, samples[1][:-1])


def test_a_level_refuses_one_batch_for_all_its_states():
    """One batch of as many points as the level has states is not a batch per
    state: it is refused, not run as one point per state."""
    states = bound_states(S3, 2.0, 2)
    pts = chart_points(S3, make_rng(47), len(states))
    assert len(pts) == len(states) == 5
    for residual in (hamiltonian_residual, b_operator_residual):
        with pytest.raises(ParameterError, match="one batch per state"):
            residual(Level(states), pts)
        assert len(residual(Level(states), [pts] * len(states))) == len(states)


def test_a_level_holds_one_or_more_states_of_one_space():
    qn = QuantumNumbers(0, 0, 0)
    with pytest.raises(ParameterError):
        Level([])
    with pytest.raises(ParameterError):
        Level([assemble_state(S3, 2.0, qn), assemble_state(H3, 10.0, qn)])
    st = assemble_state(S3, 2.0, qn)
    assert Level([st]) == (st,) and Level([st]).space is S3


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 50.0)])
def test_a_level_of_one_reports_as_its_state(space, e):
    st = assemble_state(space, e, QuantumNumbers(1, 0, 1))
    batches, samples = _draws(space, [st], 46)
    for residual in (hamiltonian_residual, b_operator_residual):
        (report,) = residual(Level([st]), batches)
        assert report.to_json_dict() == residual(st, batches[0]).to_json_dict()
    for which in (1, 2):
        (report,) = ode_residual(Level([st]), which, samples[which])
        assert report.to_json_dict() == ode_residual(st, which, samples[which][0]).to_json_dict()
    # the point-array entries run the state as a level of one on a (1, n) row
    b = batches[0]
    for entry in (wavefunction_values, apply_hamiltonian, apply_b_operator):
        row = entry.__wrapped__(Level([st]), b.t1[None], b.t2[None], b.phi[None])
        assert row.shape == (1, len(b)) and row[0].tobytes() == entry(st, b.t1, b.t2, b.phi).tobytes()


@pytest.mark.parametrize("space, e, max_k", [(S3, 2.0, 1), (H3, 3.0, 4)])
def test_the_suites_run_a_level_of_one_state(space, e, max_k):
    assert len(bound_states(space, e, max_k)) == 1
    for suite in ("ode", "hamiltonian", "boperator"):
        results = run_suite(suite, space, e, max_k, 3)
        assert len(results) == (2 if suite == "ode" else 1) and all(r.report.passed for r in results)


def test_a_level_computes_no_term_on_the_rows_of_states_without_it():
    """An m = 0 state adds no (t1 t2)^(|m|/2) term, and an unperturbed one no
    (1 - t2)^(b1 + b2) term, so at t1 t2 = 0 or t2 = 1 their rows raise no
    invalid operation, as each state alone raises none."""
    plain = [assemble_state(S3, 2.0, QuantumNumbers(0, 1, 0)), assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))]
    states = plain + [perturbed(plain[1], epsilon=1e-6)]
    t1 = np.array([[0.0, 0.3 + 0.2j]] * 3)
    t2 = np.array([[-0.4 + 0.1j, 1.0]] * 3)
    with np.errstate(invalid="raise"):
        stacked = kepler._psi_exponent(Level(states), t1, t2, 0.0)
        for row, st in zip(stacked, states):
            assert row.tobytes() == kepler._psi_exponent(Level([st]), t1[:1], t2[:1], 0.0)[0].tobytes()


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_the_suites_report_what_per_state_calls_on_their_draws_report(space, e):
    """ode, hamiltonian and boperator read one chart batch per state from the hamiltonian stream."""
    states = bound_states(space, e, 3)
    rng = _suite_rng(7, "hamiltonian")
    batches = [chart_points(space, rng, CHART_POINTS) for _ in states]
    want = [ode_residual(st, which, getattr(b, f"t{which}")) for st, b in zip(states, batches) for which in (1, 2)]
    assert [r.report for r in run_suite("ode", space, e, 3, 7)] == want
    for suite, residual in (("hamiltonian", hamiltonian_residual), ("boperator", b_operator_residual)):
        want = [residual(st, b) for st, b in zip(states, batches)]
        assert [r.report for r in run_suite(suite, space, e, 3, 7)] == want


def test_one_point_keeps_the_bits_it_has_in_its_batch():
    st = assemble_state(S3, 2.0, QuantumNumbers(1, 1, 1))
    pts = chart_points(S3, make_rng(5), 300)
    batch = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
    one = [wavefunction_values(st, p.t1, p.t2, p.phi) for p in pts]
    assert all(v.shape == () for v in one)
    assert np.array(one).tobytes() == batch.tobytes()


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 50.0)])
def test_one_point_runs_through_the_operators(space, e):
    st = assemble_state(space, e, QuantumNumbers(1, 1, 1))
    pts = chart_points(space, make_rng(5), 300)
    for apply in (apply_hamiltonian, apply_b_operator):
        batch = apply(st, pts.t1, pts.t2, pts.phi)
        for p, want in zip(pts, batch):
            got = apply(st, p.t1, p.t2, p.phi)
            assert got.shape == () and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 50.0)])
def test_the_point_array_entries_keep_the_broadcast_shape_and_the_flat_bits(space, e):
    """0-d, 1-D and 2-D chart arrays, and arrays that broadcast, give results of
    the broadcast shape with the bits of the call on the flattened arrays."""
    st = assemble_state(space, e, QuantumNumbers(1, 1, 1))
    pts = chart_points(space, make_rng(48), 12)
    grid = (pts.t1.reshape(3, 4), pts.t2.reshape(3, 4), pts.phi.reshape(3, 4))
    inputs = [grid, (grid[0], grid[1], 0.3), (pts.t1[5], pts.t2[5], pts.phi[5]), (pts.t1, pts.t2, pts.phi)]
    for entry in (wavefunction_values, apply_hamiltonian, apply_b_operator):
        for t1, t2, phi in inputs:
            shape = np.broadcast_shapes(np.shape(t1), np.shape(t2), np.shape(phi))
            flat = (np.ravel(a) for a in np.broadcast_arrays(t1, t2, phi))
            got = entry(st, t1, t2, phi)
            assert got.shape == shape, (entry.__name__, shape)
            assert got.tobytes() == entry(st, *flat).tobytes(), (entry.__name__, shape)
    for which in (1, 2):
        t = factor_samples(space, make_rng(49), which, 12)
        fac = factor(st, which)
        for tt in (t.reshape(3, 4), t[5], t):
            derivs = factor_derivatives(fac, tt)
            flat = factor_derivatives(fac, np.ravel(tt))
            assert all(d.shape == np.shape(tt) for d in derivs)
            assert all(d.tobytes() == f.tobytes() for d, f in zip(derivs, flat))


def _rl_bits(report):
    """A Runge-Lenz report as the bits it prints and a few it does not: max_rel and mean_rel in hex."""
    return report.max_rel.hex(), report.mean_rel.hex(), report.to_json_dict()


def _rl_level_matches_states(monkeypatch, states, samples):
    """runge_lenz_check on the level equals each state run alone on its sample, and the level reads Psi in one
    call; returns the bytes of that call's table."""
    tables = []
    values = operators.wavefunction_values
    monkeypatch.setattr(operators, "wavefunction_values", lambda *a: tables.append(values(*a)) or tables[-1])
    reports = runge_lenz_check(Level(states), samples)
    assert len(tables) == 1 and tables[0].shape[0] == len(states)
    assert [_rl_bits(r) for r in reports] == [_rl_bits(runge_lenz_check(st, q)) for st, q in zip(states, samples)]
    return reports, tables[0].nbytes


@pytest.mark.parametrize("space, e, max_k", [(S3, 2.0, 3), (H3, 10.0, 3), (H3, 900.0, 4)])
def test_a_runge_lenz_level_reports_what_its_states_report_alone(monkeypatch, space, e, max_k):
    """Every state of the level, on 50 quasi-Cartesian points each: the stacked Psi table passes 256 KiB, where
    numpy runs a * b in place on a temporary b, so a complex product with a temporary on its right would move bits."""
    states = bound_states(space, e, max_k)
    rng = make_rng(71)
    samples = [quasi_points(space, rng, 50) for _ in states]
    reports, nbytes = _rl_level_matches_states(monkeypatch, states, samples)
    assert nbytes > 256 * 1024
    assert all(r.passed and "FD convergence order" in r.note for r in reports)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_a_runge_lenz_level_whose_states_keep_different_counts(monkeypatch, space, e):
    """The stencil's keep rule drops points near the axis of one state only; a state with one point left runs as
    alone, as a pair.  A level holds states of any coupling: the last one's e is twice the others'."""
    states = bound_states(space, e, 2) + bound_states(space, 2.0 * e, 1)
    rng = make_rng(72)
    samples = [quasi_points(space, rng, 20) for _ in states]
    samples[1][:2, :5] = 1e-3
    samples[2] = samples[2][:, :1]
    reports, _ = _rl_level_matches_states(monkeypatch, states, samples)
    assert [r.n_points for r in reports] == [20, 15, 1, 20, 20, 20]
    assert "skipped 5 point(s) near chart boundaries" in reports[1].note
    assert all("skipped" not in r.note for r in reports if r is not reports[1])


def test_a_runge_lenz_level_refuses_a_sample_count_that_does_not_match():
    states = bound_states(S3, 2.0, 2)
    rng = make_rng(73)
    samples = [quasi_points(S3, rng, 10) for _ in states]
    with pytest.raises(ParameterError, match="one sample each"):
        runge_lenz_check(Level(states), samples[:-1])


def test_a_runge_lenz_level_with_a_state_with_no_usable_point_is_out_of_domain():
    states = bound_states(H3, 10.0, 2)
    rng = make_rng(74)
    samples = [quasi_points(H3, rng, 10) for _ in states]
    samples[2] = np.array([[0.01, 0.0], [0.0, 0.0], [0.0, 0.3]])
    with pytest.raises(DomainError, match="no usable sample points"):
        runge_lenz_check(Level(states), samples)
