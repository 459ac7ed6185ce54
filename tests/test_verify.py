"""Suite-runner tests: suite selection, seeded reproducibility, and the
scope of the perturbation knob."""

import json
import math
import warnings

import numpy as np
import pytest

from curvedkepler import (
    H3,
    DomainError,
    Level,
    ParameterError,
    S3,
    SUITES,
    all_passed,
    b_operator_residual,
    bound_states,
    chart_points,
    coupling_identity_residual,
    geometry,
    hamiltonian_residual,
    ode_residual,
    operators,
    run_suite,
    run_suites,
    specfun,
    verify,
)


def _text(reports) -> list[str]:
    """Each report's JSON, as the CLI writes it, so equal texts are equal bits."""
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]


def test_all_suites_run_and_pass():
    results = run_suites("all", S3, 2.0, 2, seed=7)
    assert all_passed(results)
    assert {r.suite for r in results} == set(SUITES)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_one_name_runs_that_suite_alone(space, e):
    """run_suite(name) and run_suites(name) give that suite's rows of run_suites("all"), bit for bit: the three
    separated suites run as one either way, and every other suite on its own stream."""
    every = run_suites("all", space, e, 3, seed=7)
    for suite in SUITES:
        want = _text(r for r in every if r.suite == suite)
        assert want and _text(run_suite(suite, space, e, 3, seed=7)) == want, suite
        assert _text(run_suites(suite, space, e, 3, seed=7)) == want, suite


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        run_suite("bogus", S3, 2.0, 2, seed=7)
    for suites in ("bogus", ["ode"]):  # one name or "all"; a list is not a suite name
        with pytest.raises(ParameterError, match="unknown suite"):
            run_suites(suites, S3, 2.0, 2, seed=7)


@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_passes_at_the_s3_free_particle_and_refuses_a_negative_coupling(suite):
    """S3 at e = 0 binds every k (eps = (k^2 - 1)/2): each suite runs and passes.  At e = -1 each
    refuses with DomainError, metric and commutators too, though they read no state."""
    results = run_suite(suite, S3, 0.0, 3, 7)
    assert results and all_passed(results)
    with pytest.raises(DomainError, match="coupling e must be >= 0"):
        run_suite(suite, S3, -1.0, 3, 7)


def test_seed_reproducibility():
    a = run_suite("hamiltonian", H3, 5.0, 2, seed=11)
    b = run_suite("hamiltonian", H3, 5.0, 2, seed=11)
    assert [r.report.max_abs for r in a] == [r.report.max_abs for r in b]
    c = run_suite("hamiltonian", H3, 5.0, 2, seed=12)
    assert [r.report.max_abs for r in a] != [r.report.max_abs for r in c]
    assert all_passed(c)


def test_perturbation_only_affects_residual_suites():
    """Each suite that reads states gets the perturbed ones, but only ode and hamiltonian read the energy:
    an epsilon off by 1e-6 fails each of their reports and leaves every other report as it was."""
    for space, e in ((S3, 2.0), (H3, 10.0)):
        clean, dirty = (run_suites("all", space, e, 3, 7, perturb_eps=eps) for eps in (0.0, 1e-6))
        assert all_passed(clean)
        assert [r.label for r in clean] == [r.label for r in dirty]
        energy = [r for r in dirty if r.suite in ("ode", "hamiltonian")]
        assert [r.suite for r in energy].count("ode") == 28 and len(energy) == 42
        assert not any(r.report.passed for r in energy)
        others = [
            (a.to_json_dict(), b.to_json_dict()) for a, b in zip(clean, dirty) if a.suite not in ("ode", "hamiltonian")
        ]
        assert {a["suite"] for a, _ in others} == set(SUITES) - {"ode", "hamiltonian"}
        assert all(a == b for a, b in others)  # eigen-relation and stateless suites ignore the knob


def test_ode_suite_fails_every_report_of_a_small_perturbation_where_psi_is_tiny():
    """On the polynomial jets the ODE's scale does not shrink with the power
    t^(a-2) (1-t)^(b-2) e^s, so at H3 e = 900 an epsilon off by 1e-6 fails
    every factor, and the clean run passes every one."""
    clean = run_suite("ode", H3, 900.0, 4, 7)
    dirty = run_suite("ode", H3, 900.0, 4, 7, perturb_eps=1e-6)
    assert len(clean) == len(dirty) == 60
    assert all_passed(clean)
    assert not any(r.report.passed for r in dirty)


@pytest.mark.parametrize("space, e, dtype", [(H3, 10.0, np.float64), (S3, 2.0, np.complex128)])
def test_ode_residual_and_scale_run_in_the_dtype_of_the_space(monkeypatch, space, e, dtype):
    """H3 states hold floats and the H3 chart points are float64, so the ODE residual and its scale are float64
    there.  The joint run also reports H and B through ``_reports``; only the two ODE calls read ODE_TOL."""
    seen = []

    def spy(tolerance, counts, sizes, residual, scale, *columns):
        if tolerance == operators.ODE_TOL:
            seen.append((residual.dtype, scale.dtype))
        return reports(tolerance, counts, sizes, residual, scale, *columns)

    reports = operators._reports
    monkeypatch.setattr(operators, "_reports", spy)
    assert all_passed(run_suite("ode", space, e, 3, 7))
    assert seen == [(dtype, dtype)] * 2


@pytest.mark.parametrize("seed", [0, 7, 2**70])
def test_each_suite_stream_is_the_child_that_spawn_numbers_by_the_suite_index(seed):
    for i, suite in enumerate(SUITES):
        child = np.random.SeedSequence(seed).spawn(len(SUITES))[i]
        want = np.random.Generator(np.random.PCG64(child)).integers(0, 2**63, size=8)
        assert np.array_equal(verify._suite_rng(seed, suite).integers(0, 2**63, size=8), want), suite


def test_the_separated_suites_draw_the_hamiltonian_stream_and_every_other_suite_its_own(monkeypatch):
    drawn = []
    suite_rng = verify._suite_rng
    monkeypatch.setattr(verify, "_suite_rng", lambda seed, suite: drawn.append(suite) or suite_rng(seed, suite))
    for suite in SUITES:
        run_suite(suite, S3, 2.0, 1, 7)
    run_suites("all", S3, 2.0, 1, 7)
    others = ["rungelenz", "metric", "constraint", "commutators"]
    assert drawn == ["hamiltonian"] * 3 + others + ["hamiltonian"] + others


@pytest.mark.parametrize("space, e, max_k", [(S3, 2.0, 3), (H3, 10.0, 3), (H3, 900.0, 4)])
def test_the_separated_suites_report_the_residuals_on_the_hamiltonian_streams_batches(space, e, max_k):
    """hamiltonian and boperator report what the public residuals report on the level and its chart batches, and
    ode what ode_residual reports on each factor's kept rows, byte for byte."""
    states = bound_states(space, e, max_k)
    rng = verify._suite_rng(7, "hamiltonian")
    batches = [chart_points(space, rng, verify.CHART_POINTS) for _ in states]
    results = run_suites("all", space, e, max_k, 7)
    got = {suite: _text(r.report for r in results if r.suite == suite) for suite in ("ode", "hamiltonian", "boperator")}
    assert got["hamiltonian"] == _text(hamiltonian_residual(Level(states), batches))
    assert got["boperator"] == _text(b_operator_residual(Level(states), batches))
    kept = [b.clearance() >= operators.SINGULAR_SKIP for b in batches]
    factors = [ode_residual(Level(states), which, [getattr(b, f"t{which}")[k] for b, k in zip(batches, kept)])
               for which in (1, 2)]
    assert got["ode"] == _text(r for pair in zip(*factors) for r in pair)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_the_separated_suites_evaluate_the_level_once(monkeypatch, space, e):
    """One _staeckel call on the whole level serves ode, hamiltonian and boperator; in verify all the only
    other is the exact B of the rungelenz states, one level."""
    sizes = []
    staeckel = operators._staeckel
    monkeypatch.setattr(operators, "_staeckel", lambda level, *rest: sizes.append(len(level)) or staeckel(level, *rest))
    n = len(bound_states(space, e, 3))
    for suite in ("ode", "hamiltonian", "boperator"):
        sizes.clear()
        run_suite(suite, space, e, 3, 7)
        assert sizes == [n], suite
    sizes.clear()
    run_suites("all", space, e, 3, 7)
    assert sizes == [n, verify.RUNGE_LENZ_STATES]


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_ode_suite_takes_no_principal_branch_power(monkeypatch, space, e):
    """The ODE suite reads the polynomial jets alone: no principal-branch power, no factor_derivatives."""
    calls = []

    def spied(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return run

    for owner, name in ((specfun, "pow_arr"), (operators, "pow_arr"), (operators, "factor_derivatives")):
        monkeypatch.setattr(owner, name, spied(name, getattr(owner, name)))
    assert all_passed(run_suite("ode", space, e, 3, 7))
    assert calls == []


def test_result_serialization_shape():
    res = run_suite("constraint", S3, 2.0, 1, seed=7)
    for r in res:
        d = r.to_json_dict()
        assert set(d) == {
            "label", "max_abs", "max_rel", "mean_rel", "n_points",
            "note", "passed", "suite", "tolerance", "worst_point",
        }
        assert d["suite"] == "constraint"


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_constraint_suite_checks_the_coupling_identity_once(space, e):
    results = run_suite("constraint", space, e, 3, seed=7)
    n = 200 * len(bound_states(space, e, 3))
    label = f"{space.model.value} coupling/cos(theta) identity ({n} points)"
    assert results[-1].label == label and n == 2800
    assert len(results) == (2 if space is S3 else 1)
    identity = results[-1].report
    assert identity.passed and identity.max_abs < 1e-12 and identity.n_points == n
    assert identity.tolerance == operators.COUPLING_IDENTITY_TOL


def _ambient_flipped(ambient):
    def run(space, p):
        c = ambient(space, p)
        return np.concatenate([c[:3], -c[3:]])

    return run


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_constraint_suite_fails_on_a_wrong_ambient_map(space, e, monkeypatch):
    monkeypatch.setattr(operators, "parabolic_to_ambient", _ambient_flipped(operators.parabolic_to_ambient))
    results = run_suite("constraint", space, e, 3, seed=7)
    assert [r.report.passed for r in results] == [True] * (len(results) - 1) + [False]
    assert results[-1].report.max_abs > 0.1


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_constraint_suite_reports_the_coupling_identity_of_its_draw(space, e):
    rng = verify._suite_rng(7, "constraint")
    if space is S3:  # the conjugation check draws first
        chart_points(space, rng, verify.CHART_POINTS)
    pts = chart_points(space, rng, verify.CHART_POINTS * len(bound_states(space, e, 3)))
    assert run_suite("constraint", space, e, 3, seed=7)[-1].report == coupling_identity_residual(space, pts)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_the_commutators_suite_draws_nothing(space, e):
    """commutators checks one fixed polynomial, so its report is the same at every seed."""
    assert run_suite("commutators", space, e, 3, 1) == run_suite("commutators", space, e, 3, 2)


def _failing(space, e, suites=("rungelenz", "commutators", "hamiltonian", "boperator")):
    return [s for s in suites if not all_passed(run_suite(s, space, e, 3, 7))]


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
def test_seeded_generator_and_b_defects_fail_the_suites_that_share_them(monkeypatch, space, e):
    """P_a has one definition for the Runge-Lenz stencil and the commutator
    rows, and the B core serves both the boperator and rungelenz suites, so
    a defect in either fails every suite that reads it and no other."""
    momentum = operators._momentum
    monkeypatch.setattr(operators, "_momentum", lambda sigma, *rest: momentum(-sigma, *rest))
    assert _failing(space, e) == ["rungelenz", "commutators"]
    monkeypatch.undo()

    core = operators._b_operator_core

    def l1_f2_flipped(space, parts):
        ell1, _, _, f2, _, _, scale, _, t2 = parts
        return core(space, parts) - 2.0 * t2 * ell1 * f2 * scale

    monkeypatch.setattr(operators, "_b_operator_core", l1_f2_flipped)
    assert _failing(space, e) == ["rungelenz", "boperator"]



def _second_derivative_off(jet):
    def run(fac, t):
        (q, q1, q2), s = jet(fac, t)
        return (q, q1, q2 * (1.0 + 1e-3)), s

    return run


def _m2_term_off(separated):
    return lambda t, jet, m2: separated(t, jet, m2 * (1.0 + 1e-3))


def _metric_off(metric):
    return lambda space, p: metric(space, p) * (1.0 + 1e-4)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 10.0)])
@pytest.mark.parametrize(
    "owner, name, defect, suites",
    [
        pytest.param(
            operators,
            "_factor_jet",
            _second_derivative_off,
            ["ode", "hamiltonian", "boperator", "rungelenz"],
            id="second-derivative",
        ),
        pytest.param(
            operators,
            "_separated_operator",
            _m2_term_off,
            ["ode", "hamiltonian", "boperator", "rungelenz"],
            id="separated-m2",
        ),
        pytest.param(geometry, "metric_parabolic", _metric_off, ["metric"], id="metric"),
        pytest.param(operators, "parabolic_to_ambient", _ambient_flipped, ["constraint"], id="ambient"),
    ],
)
def test_seeded_ode_metric_and_ambient_defects_fail_one_suite_each(monkeypatch, space, e, owner, name, defect, suites):
    """The factor jets and the separated operator built on them serve the ODE
    suite and the exact H and B, which the Runge-Lenz check applies; the parabolic metric serves only the metric
    suite, and the ambient map of the operators only the coupling identity."""
    monkeypatch.setattr(owner, name, defect(getattr(owner, name)))
    assert _failing(space, e, SUITES) == suites


@pytest.mark.parametrize("space, e, max_k", [(S3, 2.0, 3), (H3, 900.0, 4)])
@pytest.mark.parametrize("eps", [1e308, -1e308, math.nan])
def test_a_perturbation_whose_square_is_not_finite_is_refused(space, e, max_k, eps):
    """Such a shift once overflowed the ode residual's (c t + k) q, and a NaN one ran and failed every report:
    every suite, and the library run of all, refuses it before it builds a state, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for suite in SUITES:
            with pytest.raises(ParameterError, match=r"^perturb_eps .* is out of range: its square must be finite$"):
                run_suite(suite, space, e, max_k, 7, perturb_eps=eps)
        with pytest.raises(ParameterError, match="perturb_eps"):
            run_suites("all", space, e, max_k, 7, perturb_eps=eps)
