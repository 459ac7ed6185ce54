"""Command-line interface tests: exact payloads, format defaults, exit
codes, grid handling, and byte-level determinism of the verify command.

All invocations go through main(argv) in-process; files are written via
--out into pytest temporary directories.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from curvedkepler import (
    QuantumNumbers,
    S3,
    SphericalPoint,
    assemble_state,
    space_from_name,
    spherical_to_parabolic,
    wavefunction_values,
)
from curvedkepler import cli
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


def test_eval_single_point_matches_library_bits():
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
    p = spherical_to_parabolic(S3, SphericalPoint(0.7, 1.1, 0.4))
    psi = complex(wavefunction_values(st, [p.t1], [p.t2], [0.4])[0])
    assert fields[0] == MACHINE_FMT % 0.7
    assert fields[3] == MACHINE_FMT % psi.real
    assert fields[4] == MACHINE_FMT % psi.imag
    assert fields[5] == MACHINE_FMT % (psi.real**2 + psi.imag**2)
    assert fields[6] == "0"
    assert out.endswith("\n") and "\r" not in out


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


# Byte-identity oracle: rows computed as `eval` computes them and printed by
# the per-value emitters that `eval` used before it formatted whole grids.
EVAL_CASES = [
    ("s3", 2.0, (1, 1, 1), ("0.2:1.2:3", "0.4:2.7:3", "0:5.5:2")),
    ("h3", 5.0, (0, 1, 0), ("0.2:1.2:3", "0.4:2.7:3", "0:5.5:2")),
    ("s3", 2.0, (0, 1, 0), ("0.1:3.0:9", "0:3.14:7", "-1:6:4")),
    ("h3", 5.0, (0, 1, 0), ("0.1:40:9", "0:3.14:7", "0:6:4")),
    ("s3", 2.0, (0, 0, 1), ("0.7:0.7:1", "1.1:1.1:1", "0.4:0.4:1")),
    # chi = 175, theta = 0 lands on t1 == 1 and is skipped
    ("h3", 5.0, (0, 0, 0), ("175:175:1", "0:1:3", "0:1:2")),
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
    tag = space_from_name(space)
    chart = spherical_to_parabolic(tag, (cc, tt, 0.0))
    skip = (chart.t1 == 1.0) | (chart.t2 == 1.0)
    re, im = np.zeros_like(cc), np.zeros_like(cc)
    if not skip.all():
        state = assemble_state(tag, e, QuantumNumbers(*qn))
        psi = cli.wavefunction_values(state, chart.t1[~skip], chart.t2[~skip], pp[~skip])
        re[~skip], im[~skip] = psi.real, psi.imag
    rows = np.column_stack([cc, tt, pp, re, im, re * re + im * im, skip.astype(float)])
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
    def special(state, t1, t2, phi):
        return np.resize(SPECIAL_PSI, t1.shape)

    monkeypatch.setattr(cli, "wavefunction_values", special)
    case = ("s3", 2.0, (0, 1, 0), ("0.3:2.9:3", "0.2:2.8:3", "0:1:2"))
    rc, out, _ = run_cli(_eval_argv(*case, fmt))
    assert rc == 0
    assert out == _legacy_eval_text(*case, fmt)
    tokens = ("NaN", "Infinity", "-Infinity", "-0.0") if fmt == "json" else ("nan", "inf", "-inf")
    assert all(t in out for t in tokens)


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


def test_missing_required_options_exit_2():
    rc, _, err = run_cli(["spectrum", "--e", "5"])
    assert rc == 2 and "--space" in err
    # quantum numbers are enforced by argparse itself
    with pytest.raises(SystemExit) as ex:
        run_cli(["state", "--space", "h3", "--e", "5"])
    assert ex.value.code == 2


def test_unknown_command_and_suite_raise_usage():
    with pytest.raises(SystemExit) as ex:
        run_cli([])
    assert ex.value.code == 2
    with pytest.raises(SystemExit) as ex:
        run_cli(["verify", "bogus"])
    assert ex.value.code == 2


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
