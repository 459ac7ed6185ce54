"""Command-line interface tests: exact payloads, format defaults, exit
codes, grid handling, and byte-level determinism of the verify command.

All invocations go through main(argv) in-process, bar one test that
compares them with fresh processes; files are written via --out into
pytest temporary directories.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from curvedkepler import (
    H3,
    QuantumNumbers,
    S3,
    assemble_state,
    enumerate_states,
    space_from_name,
)
from curvedkepler import cli, geometry, operators
from curvedkepler.cli import (
    EVAL_COLUMNS,
    HUMAN_FMT,
    MACHINE_FMT,
    OUT_DIR_ENV,
    SCHEMA_VERSION,
    main,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_spectrum_h3_json_payload():
    rc, out, _ = run_cli(["spectrum", "--space", "h3", "--e", "5", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["space"] == "h3" and d["e"] == 5.0
    assert d["bound_count"] == 2
    assert d["interval"] == [-12.5, -4.5]
    assert d["rows"] == [
        {"admissible": True, "degeneracy": 1, "epsilon": -12.5, "k": 1},
        {"admissible": True, "degeneracy": 4, "epsilon": -4.625, "k": 2},
    ]


def test_spectrum_h3_csv_exact_bytes():
    rc, out, _ = run_cli(["spectrum", "--space", "h3", "--e", "5", "--format", "csv"])
    assert rc == 0
    assert out == (
        "k,epsilon,degeneracy,admissible\n"
        "1,-12.5,1,1\n"
        "2,-4.625,4,1\n"
        "# bound_count,2\n"
        "# interval,-12.5,-4.5\n"
    )


LIMIT_NOTES = (
    "note: rydberg_term is the flat-space -e^2/(2 k^2) exactly; epsilon is its sum with the curvature term, "
    "so the spectrum's flat limit is a closed-form split\n"
    "note: the dimensionless spectrum carries no rho dependence\n"
)

# command line -> its whole output, byte for byte
TEXT_OUTPUTS = {
    "spectrum --space h3 --e 10": (
        "space h3  e = 10\n"
        "  k   epsilon        degeneracy  admissible\n"
        "  1   -50            1           yes\n"
        "  2   -14            4           yes\n"
        "  3   -9.55556       9           yes\n"
        "bound_count: 3\n"
        "interval: [-50, -9.5]\n"
    ),
    # no bound level: the table is its header alone
    "spectrum --space h3 --e 0.5": (
        "space h3  e = 0.5\n"
        "  k   epsilon        degeneracy  admissible\n"
        "bound_count: 0\n"
        "interval: [-0.125, 0]\n"
    ),
    "spectrum --space s3 --e 2 --max-k 3 --format csv": (
        "k,epsilon,degeneracy,admissible\n"
        "1,-2,1,1\n"
        "2,1,4,1\n"
        "3,3.7777777777777777,9,1\n"
    ),
    # n1 = n2: Re b1 is a zero, and prints as 0, not -0
    "state --space s3 --e 2 --n1 1 --n2 1 --m 0 --format csv": (
        "field,value\n"
        "a1,0\n"
        "a2,0\n"
        "alpha1,2;-0.66666666666666663\n"
        "alpha2,2;0.66666666666666663\n"
        "b1,0;-0.33333333333333331\n"
        "b2,0;0.33333333333333331\n"
        "beta1,-1;0\n"
        "beta2,-1;0\n"
        "e,2\n"
        "epsilon,3.7777777777777777\n"
        "gamma1,1;0\n"
        "gamma2,1;0\n"
        "k,3\n"
        "k1,2;-1\n"
        "k2,2;1\n"
        "m,0\n"
        "n1,1\n"
        "n2,1\n"
        "space,s3\n"
    ),
    "state --space s3 --e 2 --n1 1 --n2 1 --m 0 --format human": (
        "bound state s3 e=2 (n1,n2,m)=(1,1,0)\n"
        "  a1 = 0\n"
        "  a2 = 0\n"
        "  alpha1 = 2 - 0.666667i\n"
        "  alpha2 = 2 + 0.666667i\n"
        "  b1 = 0 - 0.333333i\n"
        "  b2 = 0 + 0.333333i\n"
        "  beta1 = -1 + 0i\n"
        "  beta2 = -1 + 0i\n"
        "  e = 2\n"
        "  epsilon = 3.77778\n"
        "  gamma1 = 1 + 0i\n"
        "  gamma2 = 1 + 0i\n"
        "  k = 3\n"
        "  k1 = 2 - 1i\n"
        "  k2 = 2 + 1i\n"
    ),
    "state --space h3 --e 10 --n1 1 --n2 0 --m 1 --format csv": (
        "field,value\n"
        "a1,0.5\n"
        "a2,0.5\n"
        "alpha1,5.3333333333333339;0\n"
        "alpha2,-0.33333333333333348;0\n"
        "b1,1.1666666666666667;0\n"
        "b2,-1.1666666666666667;0\n"
        "beta1,-1;0\n"
        "beta2,0;0\n"
        "e,10\n"
        "epsilon,-9.5555555555555554\n"
        "gamma1,2;0\n"
        "gamma2,2;0\n"
        "k,3\n"
        "k1,8.6666666666666696;0\n"
        "k2,-1.3333333333333335;0\n"
        "m,1\n"
        "n1,1\n"
        "n2,0\n"
        "space,h3\n"
    ),
    "limit --space s3 --e 5 --rho 20,300,5000 --format csv": (
        "rho,err_t1,err_t2\n"
        "20,0.025268294014420697,0.003729369949741938\n"
        "300,0.0016846880377912234,0.00024864460336113982\n"
        "5000,0.00010108131832679346,1.4918681523695455e-05\n"
        "# slope,-0.9999855043153435\n"
        "# split,1,-12.5,-12.5,0\n"
        "# split,2,-1.625,-3.125,1.5\n"
        "# split,3,2.6111111111111112,-1.3888888888888888,4\n"
    ),
    "limit --space s3 --e 5 --rho 20,300,5000 --format human": (
        "flat limit, space s3, base point (0.3, 0.2, 0.4)\n"
        "  rho          err_t1       err_t2\n"
        "  20           0.0252683    0.00372937\n"
        "  300          0.00168469   0.000248645\n"
        "  5000         0.000101081  1.49187e-05\n"
        "log-log slope: -0.999986\n"
        "  k   epsilon        rydberg_term   curvature_term\n"
        "  1   -12.5          -12.5          0\n"
        "  2   -1.625         -3.125         1.5\n"
        "  3   2.61111        -1.38889       4\n" + LIMIT_NOTES
    ),
    # the metric and Runge-Lenz suites read the chart Jacobian, the metrics and the coupling of the space tag
    "verify metric --format csv": (
        "suite,label,max_abs,max_rel,mean_rel,n_points,passed\n"
        "metric,\"s3 metric pullback (25 points)\",3.6019428335616019e-15,3.2007340699694935e-15,"
        "8.8585821454863148e-17,225,1\n"
    ),
    "verify metric --space h3 --e 10 --format csv": (
        "suite,label,max_abs,max_rel,mean_rel,n_points,passed\n"
        "metric,\"h3 metric pullback (25 points)\",1.4921397450962104e-13,7.2265939372947741e-15,"
        "1.8942048037475998e-16,225,1\n"
    ),
    "verify rungelenz --format csv": (
        "suite,label,max_abs,max_rel,mean_rel,n_points,passed\n"
        "rungelenz,\"s3 e=2 (n1,n2,m)=(0,0,0)\",1.2307949038376459e-09,1.2307949038376459e-09,"
        "4.6447760447977341e-10,50,1\n"
        "rungelenz,\"s3 e=2 (n1,n2,m)=(0,0,-1)\",3.6076524643933438e-09,2.2301780763702041e-09,"
        "7.6562496595755315e-10,50,1\n"
        "rungelenz,\"s3 e=2 (n1,n2,m)=(0,1,0)\",6.5184752338523187e-09,4.7482961517839935e-09,"
        "1.4331659813828024e-09,50,1\n"
    ),
    # a small eval grid per space
    "eval --space s3 --e 2 --n1 1 --n2 0 --m 1"
    " --grid-chi 0.5:2.5:3 --grid-theta 1:2:2 --grid-phi 0:1:2 --format csv": (
        "chi,theta,phi,re_psi,im_psi,abs_psi2,skipped\n"
        "0.5,1,0,0.18252405309154002,-0.074877867751502569,0.038921725035974825,0\n"
        "0.5,1,1,0.16162571987893015,0.1131320101014405,0.038921725035974832,0\n"
        "0.5,2,0,0.2449809151213887,0.062320375584366122,0.063899477986689518,0\n"
        "0.5,2,1,0.079922965517198796,0.23981617453713619,0.063899477986689518,0\n"
        "1.5,1,0,-0.13630076141030581,-0.16641900755255537,0.04627318363580659,0\n"
        "1.5,1,1,0.066393150494430134,-0.20460970945492921,0.046273183635806597,0\n"
        "1.5,2,0,-0.041173019992980169,0.13850948706862179,0.020880095583355053,0\n"
        "1.5,2,1,-0.13879759213063197,0.040191093566781404,0.02088009558335505,0\n"
        "2.5,1,0,-0.1054297449280988,-0.030756698250778425,0.012061405602893411,0\n"
        "2.5,1,1,-0.031083065125219765,-0.10533398627847879,0.01206140560289341,0\n"
        "2.5,2,0,-0.094316390139828107,0.025598605359392915,0.0095508700453542043,0\n"
        "2.5,2,1,-0.072499846735185267,-0.065533520191798422,0.009550870045354206,0\n"
    ),
    # a small eval grid per space
    "eval --space h3 --e 10 --n1 1 --n2 0 --m 1"
    " --grid-chi 0.5:2.5:3 --grid-theta 1:2:2 --grid-phi 0:1:2 --format csv": (
        "chi,theta,phi,re_psi,im_psi,abs_psi2,skipped\n"
        "0.5,1,0,0,-0.040719287051463667,0.0016580603379794966,0\n"
        "0.5,1,1,0.034264098575870559,-0.022000724687212505,0.0016580603379794966,0\n"
        "0.5,2,0,0,0.074943706910342453,0.0056165592054633114,0\n"
        "0.5,2,1,-0.063062954859000223,0.040492257653964067,0.0056165592054633114,0\n"
        "1.5,1,0,0,-0.051480639433023778,0.0026502562364330027,0\n"
        "1.5,1,1,0.043319464362246748,-0.027815108193229032,0.0026502562364330027,0\n"
        "1.5,2,0,0,0.015218093488512769,0.00023159036942511474,0\n"
        "1.5,2,1,-0.012805584114677476,0.0082223710027603727,0.00023159036942511474,0\n"
        "2.5,1,0,0,-0.015502996450647757,0.00024034289894879694,0\n"
        "2.5,1,1,0.013045321690799892,-0.0083763047301505696,0.00024034289894879694,0\n"
        "2.5,2,0,0,0.0036533020855212543,1.3346616128073947e-05,0\n"
        "2.5,2,1,-0.003074147703704312,0.0019738875408400179,1.3346616128073949e-05,0\n"
    ),
}


@pytest.mark.parametrize("command", list(TEXT_OUTPUTS))
def test_text_formats_exact_bytes(command):
    assert run_cli(command.split()) == (0, TEXT_OUTPUTS[command], "")


@pytest.mark.parametrize("suite", ["commutators", "metric"])
@pytest.mark.parametrize("space", [["--space", "s3", "--e", "2"], ["--space", "h3", "--e", "10"]], ids=["s3", "h3"])
def test_verify_csv_and_human_rows_rebuild_from_the_json_reports(suite, space):
    argv = ["verify", suite, *space, "--seed", "5"]
    rc, out, _ = run_cli([*argv, "--format", "json"])
    reports = json.loads(out)["reports"]
    m, h = (lambda x: MACHINE_FMT % x), (lambda x: HUMAN_FMT % x)
    csv = ["suite,label,max_abs,max_rel,mean_rel,n_points,passed"] + [
        f'{r["suite"]},"{r["label"]}",{m(r["max_abs"])},{m(r["max_rel"])},{m(r["mean_rel"])},'
        f'{r["n_points"]},{int(r["passed"])}'
        for r in reports
    ]
    human = [
        f'[{"PASS" if r["passed"] else "FAIL"}] {r["suite"]:<12s} {r["label"]:<44s} max_rel={h(r["max_rel"])} '
        f'(tol {h(r["tolerance"])}, n={r["n_points"]})' + (f'  [{r["note"]}]' if r["note"] else "")
        for r in reports
    ] + [f"verify: all passed ({len(reports)} reports)"]
    assert rc == 0 and reports
    assert run_cli([*argv, "--format", "csv"]) == (0, "\n".join(csv) + "\n", "")
    assert run_cli([*argv, "--format", "human"]) == (0, "\n".join(human) + "\n", "")


# spectrum --space h3 --e 1e300 without --max-k is left out: it asks the unfixed code for about 1e150 levels
@pytest.mark.parametrize(
    "command",
    [
        "state --space h3 --e 1e300 --n1 0 --n2 0 --m 0",
        "eval --space s3 --e 1e300 --n1 0 --n2 0 --m 0",
        "verify ode --space h3 --e 1e300 --max-k 1",
        "spectrum --space h3 --e 1e300 --max-k 2",
    ],
)
def test_a_coupling_whose_square_overflows_exits_2(command):
    rc, out, err = run_cli(command.split())
    assert (rc, out) == (2, "")
    assert err == "error: coupling e=1e+300 is out of range: e*e must be finite\n"


@pytest.mark.parametrize("space, e, max_k", [("s3", "2", "3"), ("h3", "900", "4")])
@pytest.mark.parametrize("eps", ["1e308", "-1e308", "1.4e154"])
def test_a_perturbation_whose_square_overflows_exits_2(space, e, max_k, eps):
    """The ode residual reads (c t + k) q with c about the energy, which such a shift overflowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["verify", "ode", "--space", space, "--e", e, "--max-k", max_k, f"--perturb-eps={eps}"])
    assert (rc, out) == (2, "")
    assert err == f"error: --perturb-eps {float(eps)!r} is out of range: its square must be finite\n"


@pytest.mark.parametrize("space, e, max_k", [("s3", "2", "3"), ("h3", "900", "4")])
def test_a_large_perturbation_whose_square_is_finite_fails_with_no_warning(space, e, max_k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(["verify", "all", "--space", space, "--e", e, "--max-k", max_k, "--perturb-eps", "1e150",
                                "--format", "csv"])
    assert (rc, err) == (1, "")
    failing = {row.split(",")[0] for row in out.splitlines()[1:] if not row.endswith(",1")}
    assert failing == {"ode", "hamiltonian"}


def test_spectrum_defaults_to_human():
    rc, out, _ = run_cli(["spectrum", "--space", "h3", "--e", "5"])
    assert rc == 0
    assert not out.lstrip().startswith("{")
    assert "-12.5" in out and "-4.625" in out


def test_spectrum_s3_values():
    rc, out, _ = run_cli(["spectrum", "--space", "s3", "--e", "0", "--max-k", "3", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [(r["k"], r["epsilon"], r["degeneracy"]) for r in rows] == [
        (1, 0.0, 1),
        (2, 1.5, 4),
        (3, 4.0, 9),
    ]
    assert all(r["admissible"] for r in rows)


def test_spectrum_s3_requires_max_k():
    rc, _, err = run_cli(["spectrum", "--space", "s3", "--e", "2"])
    assert rc == 2
    assert "--max-k" in err


def test_state_json_frozen_bundle():
    rc, out, _ = run_cli(
        ["state", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "1"]
    )
    assert rc == 0
    d = json.loads(out)
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["command"] == "state"
    assert d["epsilon"] == 1.0
    assert d["k"] == 2
    assert d["b1"] == [0.0, -0.5]
    assert d["alpha1"] == [2.0, -1.0]
    assert d["beta2"] == [0.0, 0.0]
    assert d["gamma1"] == [2.0, 0.0]


def test_state_inadmissible_exits_2():
    rc, _, err = run_cli(
        ["state", "--space", "h3", "--e", "5", "--n1", "1", "--n2", "1", "--m", "0"]
    )
    assert rc == 2
    assert "not bound" in err


ORACLE_DPS = 40


def _mp_psi(st, chi, theta, phi):
    """Psi at one grid point at ORACLE_DPS digits, from the chart's t1 and t2.

    F1 and F2 are the terminating series of the state's own float
    parameters; (t1 t2)^{|m|/2} takes the principal branch (t1 t2 <= 0 on
    H3, >= 0 on S3), and ((1-t1)/(1-t2))^{b1} too on H3, where the ratio is
    positive; on S3 the closed form takes the ratio as e^{-2i chi}.
    """
    with mpmath.workdps(ORACLE_DPS):
        chi, c = mpmath.mpf(chi), mpmath.cos(mpmath.mpf(theta))
        b1 = mpmath.mpc(st.b1)
        if st.space is H3:
            rad = mpmath.sinh(chi)
            t1, t2 = (1 + c) * rad * mpmath.exp(-chi), -(1 - c) * rad * mpmath.exp(chi)
            amp = ((1 - t1) / (1 - t2)) ** b1
        else:
            w = mpmath.sin(chi) * mpmath.expj(mpmath.pi / 2 - chi)
            t1, t2 = (1 + c) * w, (1 - c) * mpmath.conj(w)
            amp = mpmath.exp(-2j * b1 * chi)
        m = st.qn.m
        amp *= (mpmath.mpc(t1) * t2) ** (mpmath.mpf(abs(m)) / 2) * mpmath.expj(m * mpmath.mpf(phi))
        for t, (al, be, ga) in ((t1, (st.alpha1, st.beta1, st.gamma1)), (t2, (st.alpha2, st.beta2, st.gamma2))):
            al, be, ga = (mpmath.mpc(z) for z in (al, be, ga))
            term = total = mpmath.mpf(1)
            for j in range(int(round(-be.real))):
                term *= (al + j) * (be + j) / ((ga + j) * (1 + j)) * t
                total += term
            amp *= total
        return complex(amp)


def test_eval_single_point_matches_library_bits():
    """A lone point prints the bits of the separated evaluator on that one-point grid, within 1e-14 of mpmath."""
    argv = [
        "eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "1",
        "--grid-chi", "0.7:0.7:1", "--grid-theta", "1.1:1.1:1", "--grid-phi", "0.4:0.4:1",
    ]
    rc, out, _ = run_cli(argv)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(EVAL_COLUMNS)
    fields = lines[1].split(",")
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    psi = complex(cli._psi_grid(st, np.array([0.7]), np.array([1.1]), np.array([0.4]))[0, 0, 0])
    assert fields[0] == MACHINE_FMT % 0.7
    assert fields[3] == MACHINE_FMT % psi.real
    assert fields[4] == MACHINE_FMT % psi.imag
    assert fields[5] == MACHINE_FMT % (psi.real**2 + psi.imag**2)
    assert fields[6] == "0"
    assert out.endswith("\n") and "\r" not in out
    want = _mp_psi(st, 0.7, 1.1, 0.4)
    assert abs(complex(float(fields[3]), float(fields[4])) - want) <= 1e-14 * abs(want)


def test_eval_axis_point_with_m_is_zero_not_skipped():
    rc, out, _ = run_cli(
        [
            "eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "1",
            "--grid-chi", "0.5:0.5:1", "--grid-theta", "0:0:1", "--grid-phi", "0:0:1",
        ]
    )
    assert rc == 0
    fields = out.splitlines()[1].split(",")
    assert fields[3] == "0" and fields[4] == "0" and fields[5] == "0"
    assert fields[6] == "0"


def _eval_table(argv):
    """The rows of a CSV `eval` run as floats, with the exit code and the text."""
    rc, out, _ = run_cli(argv + ["--format", "csv"])
    return rc, out, np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)


FAR_AXIS_CHI = (2.0, 5.0, 10.0, 15.0, 18.0, 25.0)


def _far_axis_psi(chi, theta):
    """H3 e=5, state (0,1,0): (1-t1)/(1-t2) = e^{-2 chi}, so Psi = (1 + 1.5 t2) e^{-3.5 chi}, at ORACLE_DPS digits."""
    with mpmath.workdps(ORACLE_DPS):
        chi = mpmath.mpf(chi)
        t2 = -2 * mpmath.sin(mpmath.mpf(theta) / 2) ** 2 * mpmath.sinh(chi) * mpmath.exp(chi)
        return float((1 + mpmath.mpf(1.5) * t2) * mpmath.exp(-mpmath.mpf(3.5) * chi))


@pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-4, 1e-2, 0.3])
def test_eval_reads_the_far_axis_table(theta):
    """Every cell of the far-axis table, where the chart's t1 loses 1 - t1 (and rounds to 1
    from chi = 19), within 1e-13 of mpmath through `eval`."""
    base = ["eval", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "1", "--m", "0", "--grid-phi", "0:0:1"]
    for chi in FAR_AXIS_CHI:
        rc, _, rows = _eval_table(base + [f"--grid-chi={chi!r}:{chi!r}:1", f"--grid-theta={theta!r}:{theta!r}:1"])
        assert rc == 0 and rows.shape == (1, 7)
        want = _far_axis_psi(chi, theta)
        assert abs(rows[0, 3] - want) <= 1e-13 * abs(want), (chi, theta)
        assert rows[0, 4] == 0 and rows[0, 6] == 0


def test_eval_prints_every_far_axis_row():
    """chi from 15 to 40 on the axis theta = 0: six rows, none skipped, each within 1e-13 of e^{-3.5 chi}."""
    rc, out, rows = _eval_table(
        ["eval", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "1", "--m", "0",
         "--grid-chi", "15:40:6", "--grid-theta", "0:0:1", "--grid-phi", "0:0:1"]
    )
    assert rc == 0 and rows.shape == (6, 7)
    assert rows[:, 0].tolist() == [15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    assert (rows[:, 6] == 0).all() and (rows[:, 4] == 0).all()
    for chi, psi in zip(rows[:, 0], rows[:, 3]):
        assert abs(psi - _far_axis_psi(chi, 0.0)) <= 1e-13 * _far_axis_psi(chi, 0.0)


AXIS_GRIDS = [
    # chi and theta through 0, pi/2 and pi (the chart's t = 1 on S3), so also chi = 0 with m = 0 and m != 0
    ("s3", 2.0, (1, 1, 1), ("0:3.141592653589793:9", "0:3.141592653589793:9", "0:6:3")),
    ("s3", 2.0, (0, 2, 0), ("0:3.141592653589793:9", "0:3.141592653589793:9", "0:6:3")),
    ("s3", 10.0, (2, 0, -1), ("0:3.141592653589793:9", "0:3.141592653589793:5", "-1:6:3")),
    ("h3", 10.0, (1, 0, 1), ("0:3:7", "0:3.141592653589793:5", "0:6:3")),
    ("h3", 10.0, (0, 1, 0), ("0:6:7", "0:3.141592653589793:5", "0:6:2")),
    ("h3", 30.0, (1, 1, -1), ("0:6:7", "0:3.141592653589793:5", "-1:6:3")),
]


@pytest.mark.parametrize("case", AXIS_GRIDS, ids=lambda c: f"{c[0]}-{c[1]:g}-{c[2][0]}{c[2][1]}{c[2][2]}")
def test_eval_matches_mpmath_on_grids_through_the_axes(case):
    """Finite everywhere, within 1e-13 of mpmath relative to the grid's largest |Psi|, and no -0 printed."""
    space, e, qn, grids = case
    rc, out, rows = _eval_table(_eval_argv(space, e, qn, grids, "csv")[:-2])
    assert rc == 0 and np.isfinite(rows).all() and (rows[:, 6] == 0).all()
    assert "-0," not in out and ",-0\n" not in out
    st = assemble_state(space_from_name(space), e, QuantumNumbers(*qn))
    want = np.array([_mp_psi(st, *row[:3]) for row in rows])
    got = rows[:, 3] + 1j * rows[:, 4]
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert (rows[:, 5] == rows[:, 3] ** 2 + rows[:, 4] ** 2).all()


def test_eval_default_grid_shape():
    rc, out, _ = run_cli(
        ["eval", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "1", "--m", "0",
         "--format", "json"]
    )
    assert rc == 0
    d = json.loads(out)
    assert d["columns"] == list(EVAL_COLUMNS)
    assert len(d["rows"]) == 3 * 3 * 2
    assert all(len(r) == len(EVAL_COLUMNS) for r in d["rows"])


def test_eval_grid_validation():
    base = ["eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "0"]
    rc, _, err = run_cli(base + ["--grid-chi", "0.7:0.7:0"])
    assert rc == 2 and "count" in err
    rc, _, err = run_cli(base + ["--grid-chi", "a:b:1"])
    assert rc == 2
    rc, _, err = run_cli(base + ["--grid-chi", f"0.5:{math.pi + 0.5}:3"])
    assert rc == 2 and "chi" in err
    for spec in ("-0.1:1:2", f"1:{math.pi + 1e-9}:2"):
        rc, out, err = run_cli(base + [f"--grid-theta={spec}"])
        assert rc == 2 and out == "" and "theta" in err


@pytest.mark.parametrize("axis", ["chi", "theta", "phi"])
@pytest.mark.parametrize("spec", ["0.5:nan:2", "nan:1:2", "0.5:inf:2", "-inf:1:2"])
def test_eval_grid_rejects_non_finite_bounds(axis, spec):
    base = ["eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(base + [f"--grid-{axis}={spec}"])
    assert rc == 2 and out == ""
    assert repr(spec) in err and "finite" in err
    assert "RuntimeWarning" not in err


# Byte-identity oracle: the separated evaluator's values (`cli._psi_grid`),
# printed by the per-value emitters that `eval` used before it formatted
# whole grids.
EVAL_CASES = [
    ("s3", 2.0, (1, 1, 1), ("0.2:1.2:3", "0.4:2.7:3", "0:5.5:2")),
    ("h3", 5.0, (0, 1, 0), ("0.2:1.2:3", "0.4:2.7:3", "0:5.5:2")),
    ("s3", 2.0, (0, 1, 0), ("0.1:3.0:9", "0:3.14:7", "-1:6:4")),
    ("h3", 5.0, (0, 1, 0), ("0.1:40:9", "0:3.14:7", "0:6:4")),
    ("s3", 2.0, (0, 0, 1), ("0.7:0.7:1", "1.1:1.1:1", "0.4:0.4:1")),
    # chi = 175, theta = 0, where the chart's t1 rounds to 1
    ("h3", 5.0, (0, 0, 0), ("175:175:1", "0:1:3", "0:1:2")),
    # chi = theta = pi/2 on S3, where the chart's t1 is 1
    ("s3", 2.0, (0, 1, 1), ("1.2:1.5707963267948966:3", "1.5707963267948966:2:2", "0:6:4")),
    # repeated axis values
    ("s3", 2.0, (1, 0, 1), ("0.5:0.5:3", "0.3:2.9:7", "-1:6:4")),
    # a length-1 axis between long ones
    ("h3", 5.0, (0, 1, 0), ("0.3:2.5:11", "1.2:1.2:1", "0:6.2:13")),
    # the benchmark's two 40x40x10 grids, with fixed bounds: Psi varies along phi (m = 1), and repeats (m = 0)
    ("s3", 2.0, (1, 1, 1), ("0.1:2.95:40", "0.1:3:40", "0:6:10")),
    ("h3", 5.0, (0, 1, 0), ("0.1:2.95:40", "0.1:3:40", "0:6:10")),
    # m = 0 with one phi entry
    ("s3", 2.0, (1, 1, 0), ("0.1:3:5", "0.2:3:4", "0.3:0.3:1")),
]


def _eval_argv(space, e, qn, grids, fmt):
    return [
        "eval", "--space", space, "--e", repr(e), "--n1", str(qn[0]), "--n2", str(qn[1]),
        "--m", str(qn[2]), f"--grid-chi={grids[0]}", f"--grid-theta={grids[1]}",
        f"--grid-phi={grids[2]}", "--format", fmt,
    ]


def _legacy_eval_text(space, e, qn, grids, fmt):
    axes = []
    for spec in grids:
        lo, hi, n = spec.split(":")
        axes.append(np.linspace(float(lo), float(hi), int(n)))
    cc, tt, pp = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    psi = cli._psi_grid(assemble_state(space_from_name(space), e, QuantumNumbers(*qn)), *axes).ravel()
    re, im = psi.real, psi.imag
    rows = np.column_stack([cc, tt, pp, re, im, re * re + im * im, np.zeros_like(cc)])
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION, "command": "eval", "space": space, "e": e,
            "n1": qn[0], "n2": qn[1], "m": qn[2], "columns": list(EVAL_COLUMNS),
            "rows": [list(r) for r in rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "human":
        lines = ["  ".join(f"{c:>12s}" for c in EVAL_COLUMNS)]
        lines += ["  ".join(f"{HUMAN_FMT % v:>12s}" for v in r) for r in rows]
    else:
        lines = [",".join(EVAL_COLUMNS)]
        lines += [",".join([MACHINE_FMT % v for v in r[:6]] + [str(int(r[6]))]) for r in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
@pytest.mark.parametrize("case", range(len(EVAL_CASES)))
def test_eval_output_matches_per_value_emitters(case, fmt, tmp_path):
    space, e, qn, grids = EVAL_CASES[case]
    argv = _eval_argv(space, e, qn, grids, fmt)
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert out == _legacy_eval_text(space, e, qn, grids, fmt)
    target = tmp_path / f"eval.{fmt}"
    rc, empty, _ = run_cli(argv + ["--out", str(target)])
    assert rc == 0 and empty == ""
    assert target.read_bytes() == out.encode()


SPECIAL_PSI = np.array(
    [
        complex(math.nan, 1.0),
        complex(math.inf, -math.inf),
        complex(-0.0, 0.0),
        complex(0.0, -0.0),
        complex(-math.inf, math.nan),
        complex(1e-300, -1e150),
        complex(-2.5, 5e-324),
    ]
)


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
def test_eval_prints_non_finite_and_signed_zero_like_per_value_emitters(fmt, monkeypatch):
    def special(state, chi, theta, phi):
        return np.resize(SPECIAL_PSI, (chi.size, theta.size, phi.size))

    monkeypatch.setattr(cli, "_psi_grid", special)
    case = ("s3", 2.0, (0, 1, 0), ("0.3:2.9:3", "0.2:2.8:3", "0:1:2"))
    rc, out, _ = run_cli(_eval_argv(*case, fmt))
    assert rc == 0
    assert out == _legacy_eval_text(*case, fmt)
    tokens = ("NaN", "Infinity", "-Infinity", "-0.0") if fmt == "json" else ("nan", "inf", "-inf")
    assert all(t in out for t in tokens)


def _value_texts(monkeypatch) -> list:
    """Spy on `cli._texts`: the list it returns gets the count of values of each call after the three axes'."""
    counts, texts = [], cli._texts

    def spy(spec, values):
        counts.append(len(values))
        return texts(spec, values)

    monkeypatch.setattr(cli, "_texts", spy)
    return counts


def _repeating_psi(flip):
    """A `_psi_grid` stand-in whose values repeat along phi, NaNs included; with `flip`, the (-0.0, 0.0) value of
    one (chi, theta) block reads (0.0, 0.0) at its last phi, so that block does not repeat."""

    def psi_grid(state, chi, theta, phi):
        psi = np.repeat(np.resize(SPECIAL_PSI, (chi.size, theta.size, 1)), phi.size, axis=2)
        if flip:
            assert psi[0, 2, -1].real.hex() == "-0x0.0p+0"
            psi[0, 2, -1] = complex(0.0, 0.0)
        return psi

    return psi_grid


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
@pytest.mark.parametrize("flip", [False, True], ids=["nan-repeats", "signed-zero-flip"])
def test_eval_repeats_values_along_phi_by_their_bits(fmt, flip, monkeypatch):
    """A repeated NaN repeats (NaN != NaN, but its bits and text are the same); a -0.0 that reads 0.0 at one phi
    does not (-0.0 == 0.0, but its bits and text differ), so the grid takes the one-`%` path."""
    monkeypatch.setattr(cli, "_psi_grid", _repeating_psi(flip))
    counts = _value_texts(monkeypatch)
    case = ("s3", 2.0, (0, 1, 0), ("0.3:2.9:3", "0.2:2.8:3", "0:1:4"))
    rc, out, _ = run_cli(_eval_argv(*case, fmt))
    assert rc == 0
    assert out == _legacy_eval_text(*case, fmt)
    assert counts[:3] == [3, 3, 4]
    # once per block; or, on the one-`%` path, once per point as JSON text, and in the `%` itself in CSV and human
    assert sum(counts[3:]) == ((3 * 3 * 4 * 3 if fmt == "json" else 0) if flip else 3 * 3 * 3)
    assert ("NaN" if fmt == "json" else "nan") in out


@pytest.mark.parametrize(
    "space, e, qn, fmt, texts",
    [*(("h3", 5.0, (0, 1, 0), fmt, 4800) for fmt in ("csv", "json", "human")),
     ("s3", 2.0, (1, 1, 1), "json", 48000), ("s3", 2.0, (1, 1, 1), "csv", 0), ("s3", 2.0, (1, 1, 1), "human", 0)],
)
def test_eval_formats_a_value_once_per_block_where_psi_repeats_along_phi(space, e, qn, fmt, texts, monkeypatch):
    """On a 40x40x10 grid an m = 0 state formats its three values once per (chi, theta) block: 4,800 texts.  An
    m = 1 state formats them once per point: 48,000 JSON texts, or in CSV and human the one `%` over the grid,
    which takes no `_texts` call."""
    counts = _value_texts(monkeypatch)
    rc, _, _ = run_cli(_eval_argv(space, e, qn, ("0.1:2.95:40", "0.1:3:40", "0:6:10"), fmt))
    assert rc == 0
    assert counts[:3] == [40, 40, 10] and sum(counts[3:]) == texts


@pytest.mark.parametrize("spec", [None, MACHINE_FMT, "%12.6g"])
def test_texts_of_no_values_is_an_empty_list(spec):
    assert cli._texts(spec, []) == []
    assert cli._texts(spec, [0.5]) == [json.dumps(0.5) if spec is None else spec % 0.5]


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
def test_eval_formats_the_grid_without_per_value_calls(fmt, monkeypatch):
    def per_value(x):
        raise AssertionError("eval formatted a value on its own")

    monkeypatch.setattr(cli, "_m", per_value)
    monkeypatch.setattr(cli, "_h", per_value)
    rc, out, _ = run_cli(
        ["eval", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "1", "--m", "0",
         "--grid-chi", "0.1:3:20", "--grid-theta", "0.1:3:20", "--grid-phi", "0:6:5",
         "--format", fmt]
    )
    assert rc == 0
    if fmt == "json":
        assert len(json.loads(out)["rows"]) == 2000
    else:
        assert len(out.splitlines()) == 2001


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--space", "h3"],
        ["state", "--space", "s3", "--n1", "0", "--n2", "0", "--m", "0"],
        ["eval", "--space", "s3", "--n1", "0", "--n2", "0", "--m", "0"],
        ["verify", "hamiltonian", "--space", "s3"],
        ["limit", "--space", "h3"],
    ],
)
def test_non_finite_e_exits_2(argv, value):
    rc, out, err = run_cli(argv + [f"--e={value}"])
    assert rc == 2 and out == ""
    assert "--e" in err and "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("option", ["--perturb-eps"])
def test_non_finite_verify_option_exits_2(option, value):
    """A nan or inf perturbation printed nan reports, which are not valid JSON."""
    rc, out, err = run_cli(["verify", "ode", "--space", "s3", "--e", "2", f"{option}={value}"])
    assert rc == 2 and out == ""
    assert option in err and "finite" in err


@pytest.mark.parametrize("max_k", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--space", "s3", "--e", "2"],
        ["verify", "ode", "--space", "s3", "--e", "2"],
        ["limit", "--space", "h3", "--e", "5"],
    ],
)
def test_max_k_below_one_exits_2(argv, max_k):
    rc, out, err = run_cli(argv + [f"--max-k={max_k}"])
    assert rc == 2 and out == ""
    assert "--max-k" in err


@pytest.mark.parametrize(
    "argv", [["verify", "all"], ["verify", "ode", "--space", "h3", "--e", "10"]]
)
def test_negative_seed_exits_2(argv):
    rc, out, err = run_cli(argv + ["--seed", "-1"])
    assert rc == 2 and out == ""
    assert err == "error: --seed -1 must be >= 0\n"


@pytest.mark.parametrize("argv", [["verify", "ode"], ["spectrum", "--space", "h3", "--e", "10"]])
def test_unwritable_out_path_exits_2(argv, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    rc, out, err = run_cli(argv + ["--out", str(target)])
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot open --out") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("e", ["0.5", "1.0"])
@pytest.mark.parametrize("suite", ["ode", "all"])
def test_verify_h3_without_a_bound_level_exits_2(suite, e):
    rc, out, err = run_cli(["verify", suite, "--space", "h3", "--e", e])
    assert rc == 2 and out == ""
    assert err == f"error: no bound level with k <= 3 on h3 at e={float(e)!r}\n"


@pytest.mark.parametrize("suite", ["metric", "commutators", "constraint", "ode"])
def test_verify_s3_runs_every_suite_at_e_0_and_refuses_a_negative_e(suite):
    """S3 at e = 0 is the free particle, bound at every k: each suite passes.  A negative --e exits 2
    in each, metric and commutators too, though they read no state."""
    rc, out, err = run_cli(["verify", suite, "--space", "s3", "--e", "0", "--max-k", "3"])
    assert (rc, err) == (0, "") and json.loads(out)["passed"]
    rc, out, err = run_cli(["verify", suite, "--space", "s3", "--e", "-1", "--max-k", "3"])
    assert (rc, out, err) == (2, "", "error: --e must be >= 0\n")


def test_spectrum_h3_counts_levels_and_degeneracies_in_closed_form():
    """399 levels at e = 1.6e5: each degeneracy is the k^2 states of
    enumerate_states, and the table takes no state enumeration."""
    start = time.perf_counter()
    rc, out, _ = run_cli(["spectrum", "--space", "h3", "--e", "1.6e5", "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    d = json.loads(out)
    assert d["bound_count"] == len(d["rows"]) == 399
    assert [r["k"] for r in d["rows"]] == list(range(1, 400))
    for r in d["rows"][:4] + d["rows"][-2:]:
        assert r["degeneracy"] == len(enumerate_states(r["k"]))
    assert all(r["degeneracy"] == r["k"] ** 2 and r["admissible"] for r in d["rows"])


def test_missing_required_options_exit_2():
    rc, _, err = run_cli(["spectrum", "--e", "5"])
    assert rc == 2 and "--space" in err
    # quantum numbers are enforced by argparse itself
    with pytest.raises(SystemExit) as ex:
        run_cli(["state", "--space", "h3", "--e", "5"])
    assert ex.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--space", "h3", "--e", "5", "--seed", "3"],
        ["spectrum", "--space", "h3", "--e", "5", "--tol", "1e-3"],
        ["state", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "0", "--m", "0", "--tol", "1e-3"],
        ["state", "--space", "h3", "--e", "5", "--n1", "0", "--n2", "0", "--m", "0", "--max-k", "2"],
        ["eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "0", "--max-k", "2"],
        ["eval", "--space", "s3", "--e", "2", "--n1", "0", "--n2", "0", "--m", "0", "--seed", "1"],
        ["limit", "--space", "h3", "--e", "5", "--seed", "1"],
        ["limit", "--space", "h3", "--e", "5", "--tol", "1e-3"],
        ["verify", "all", "--space", "s3", "--e", "2", "--tol", "1e-3"],
    ],
    ids=lambda argv: " ".join([argv[0], argv[-2]]),
)
def test_each_command_refuses_an_option_it_does_not_read(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2 and out.getvalue() == ""
    assert f"unrecognized arguments: {argv[-2]}" in err.getvalue()


def test_verify_reads_seed_and_max_k():
    """Every report is judged at its own check's named tolerance, which no option changes."""
    rc, out, _ = run_cli(["verify", "all", "--seed", "7", "--max-k", "2"])
    d = json.loads(out)
    assert rc == (0 if d["passed"] else 1)
    assert (d["seed"], d["max_k"]) == (7, 2)
    named = {
        "ode": operators.ODE_TOL,
        "hamiltonian": operators.HAMILTONIAN_TOL,
        "boperator": operators.B_OPERATOR_TOL,
        "rungelenz": operators.RUNGE_LENZ_TOL,
        "metric": geometry.METRIC_PULLBACK_TOL,
        "constraint": geometry.CONSTRAINT_CHECK_TOL,
        "commutators": operators.COMMUTATOR_TOL,
    }
    assert {r["suite"] for r in d["reports"]} == set(named)
    for r in d["reports"]:
        identity = "coupling/cos(theta) identity" in r["label"]
        assert r["tolerance"] == (operators.COUPLING_IDENTITY_TOL if identity else named[r["suite"]]), r["label"]
    assert sum("coupling/cos(theta) identity" in r["label"] for r in d["reports"]) == 1


def test_unknown_command_and_suite_raise_usage():
    with pytest.raises(SystemExit) as ex:
        run_cli([])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run_cli(["verify", "bogus"])
    assert ex.value.code == 2


def test_main_prints_in_one_process_what_fresh_processes_print():
    """main builds its parser once per process; later calls, a refused one between them, print the same bytes and
    exit codes as each call in a fresh process."""
    argvs = [
        ["verify", "commutators", "--space", "h3", "--e", "10", "--format", "csv"],
        ["verify", "bogus"],
        ["verify", "metric", "--format", "human", "--seed", "3"],
    ]

    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    fresh = [subprocess.run([sys.executable, "-m", "curvedkepler", *argv], env=env, capture_output=True, text=True)
             for argv in argvs]
    assert [in_process(argv) for argv in argvs] == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert fresh[1].returncode == 2 and "invalid choice: 'bogus'" in fresh[1].stderr
    assert cli._build_parser() is cli._build_parser()


def test_verify_all_passes_and_is_byte_deterministic(tmp_path):
    f1 = tmp_path / "run1.json"
    f2 = tmp_path / "run2.json"
    rc1, out1, _ = run_cli(["verify", "all", "--out", str(f1)])
    rc2, out2, _ = run_cli(["verify", "all", "--out", str(f2)])
    assert rc1 == 0 and rc2 == 0
    assert out1 == "" and out2 == ""
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    d = json.loads(b1)
    assert d["passed"] is True
    assert d["schema_version"] == SCHEMA_VERSION
    assert d["space"] == "s3" and d["e"] == 2.0 and d["max_k"] == 3 and d["seed"] == 7
    assert len(d["reports"]) > 20
    assert all(r["passed"] for r in d["reports"])


def test_verify_perturbation_fails_with_exit_1():
    rc, out, _ = run_cli(["verify", "ode", "--perturb-eps", "1e-3"])
    assert rc == 1
    d = json.loads(out)
    assert d["passed"] is False
    assert d["perturb_eps"] == 1e-3
    assert any(not r["passed"] for r in d["reports"])


def test_verify_h3_configuration():
    rc, out, _ = run_cli(["verify", "all", "--space", "h3", "--e", "5", "--max-k", "2"])
    assert rc == 0
    d = json.loads(out)
    assert d["space"] == "h3" and d["passed"] is True


def test_verify_csv_format():
    rc, out, _ = run_cli(["verify", "ode", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "suite,label,max_abs,max_rel,mean_rel,n_points,passed"
    assert all(line.split(",")[0] == "ode" for line in lines[1:] if not line.startswith('"'))


def test_out_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    rc, out, _ = run_cli(["verify", "ode", "--out", "report.json"])
    assert rc == 0 and out == ""
    assert (tmp_path / "report.json").exists()
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["suite"] == "ode"


def test_limit_payload():
    rc, out, _ = run_cli(["limit", "--space", "h3", "--e", "5", "--format", "json"])
    assert rc == 0
    d = json.loads(out)
    assert -1.1 < d["slope"] < -0.9
    assert d["rho"] == [100.0, 1000.0, 10000.0]
    rows = d["spectrum_split"]
    assert rows[0] == {
        "admissible": True, "curvature_term": 0.0, "epsilon": -12.5, "k": 1, "rydberg_term": -12.5,
    }
    assert rows[1]["rydberg_term"] == -3.125 and rows[1]["curvature_term"] == -1.5
    assert rows[2]["admissible"] is False
    assert len(d["notes"]) == 2


def test_limit_human_mentions_slope():
    rc, out, _ = run_cli(["limit", "--space", "s3", "--e", "2"])
    assert rc == 0
    assert "slope" in out


def test_limit_rejects_non_positive_radii_at_the_origin():
    argv = ["limit", "--space", "h3", "--e", "5", "--point", "0,0,0", "--rho=-5,0"]
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == ""
    assert "positive" in err


@pytest.mark.parametrize("rho", ["300,20", "20,20"])
def test_limit_rejects_radii_that_do_not_increase(rho):
    rc, out, err = run_cli(["limit", "--space", "h3", "--e", "5", "--rho", rho])
    assert rc == 2 and out == ""
    assert "strictly increasing" in err


@pytest.mark.parametrize(
    "fmt, line",
    [("json", '  "slope": NaN,'), ("csv", "# slope,nan"), ("human", "log-log slope: nan")],
)
def test_limit_slope_of_one_radius_is_nan(fmt, line):
    rc, out, _ = run_cli(["limit", "--space", "h3", "--e", "5", "--rho", "1000", "--format", fmt])
    assert rc == 0
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "fmt, line",
    [("json", '  "slope": NaN,'), ("csv", "# slope,nan"), ("human", "log-log slope: nan")],
)
def test_limit_slope_at_the_rounding_floor_is_nan(fmt, line):
    # both errors sit at about one ulp of the flat limits z + r and z - r
    argv = ["limit", "--space", "h3", "--e", "5", "--rho", "1e300,1e301", "--format", fmt]
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "fmt, line",
    [
        ("json", '  "slope": -0.9999228283363433,'),
        ("csv", "# slope,-0.99992282833634327"),
        ("human", "log-log slope: -0.999923"),
    ],
)
def test_limit_slope_of_measurable_errors_fits_every_radius(fmt, line):
    argv = ["limit", "--space", "h3", "--e", "5", "--rho", "1000,10000,100000", "--format", fmt]
    rc, out, _ = run_cli(argv)
    assert rc == 0
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "option, text",
    [
        ("--rho", "1000,,2000"),
        ("--rho", "1e3,abc"),
        ("--rho", "1000,inf"),
        ("--rho", "nan,1000"),
        ("--point", "a,0,0"),
        ("--point", "nan,0,0"),
        ("--point", "0,inf,0"),
        ("--point", "0,0,-inf"),
    ],
)
def test_limit_rejects_non_numeric_and_non_finite_values(option, text):
    rc, out, err = run_cli(["limit", "--space", "h3", "--e", "5", f"{option}={text}"])
    assert rc == 2 and out == ""
    assert f"{option} {text!r}" in err
