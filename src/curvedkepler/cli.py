"""Command-line surface: spectra, states, grid evaluation, verification.

Subcommands
-----------
spectrum   closed-form energy levels with degeneracies
state      assemble one bound state and print its parameter bundle
eval       evaluate a wavefunction on a (chi, theta, phi) grid as CSV, JSON
           or a human-readable table
verify     run residual-verification suites, exit 0 iff everything passes
limit      flat-space limit study (coordinates plus spectrum split)

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or domain error.  Output is deterministic for a fixed seed:
sample points come from PCG64 streams and all numeric formatting is
fixed (17 significant digits in machine formats, 6 in human ones).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import CurvedKeplerError
from .geometry import flat_limit_coords, spherical_to_parabolic
from .kepler import (
    QuantumNumbers,
    assemble_state,
    bound_count_h3,
    bound_interval_h3,
    energy_split,
    enumerate_states,
    is_admissible,
    wavefunction_values,
)
from .spaces import Model, SpaceTag, space_from_name
from .verify import SUITES, all_passed, run_suites

SCHEMA_VERSION = 1
OUT_DIR_ENV = "CURVEDKEPLER_OUT_DIR"
MACHINE_FMT = "%.17g"
HUMAN_FMT = "%.6g"

EVAL_COLUMNS = ("chi", "theta", "phi", "re_psi", "im_psi", "abs_psi2", "skipped")
VERIFY_COLUMNS = ("suite", "label", "max_abs", "max_rel", "mean_rel", "n_points", "passed")


@dataclass
class RunConfig:
    """Validated bundle of everything a subcommand needs."""

    command: str
    space: SpaceTag | None = None
    e: float | None = None
    n1: int | None = None
    n2: int | None = None
    m: int | None = None
    max_k: int | None = None
    seed: int = 7
    fmt: str = "human"
    tol: float | None = None
    out: str | None = None
    perturb_eps: float = 0.0
    suite: str | None = None
    grid_chi: np.ndarray = field(default_factory=lambda: np.empty(0))
    grid_theta: np.ndarray = field(default_factory=lambda: np.empty(0))
    grid_phi: np.ndarray = field(default_factory=lambda: np.empty(0))
    rho: tuple = ()
    point: tuple = (0.3, 0.2, 0.4)

    def __post_init__(self) -> None:
        if self.tol is not None and not self.tol > 0:
            raise UsageError("--tol must be > 0")
        if self.rho and list(self.rho) != sorted(self.rho):
            raise UsageError("--rho values must be increasing")


class UsageError(CurvedKeplerError, ValueError):
    """Bad command-line input or option combination (exit code 2)."""


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise UsageError(f"grid spec {text!r} is not lo:hi:count") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"grid spec {text!r} needs finite bounds")
    if n < 1:
        raise UsageError("grid count must be >= 1")
    return np.linspace(lo, hi, n)


def _parse_numbers(option: str, text: str) -> tuple:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{option} {text!r} is not a comma-separated list of numbers") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"{option} {text!r} needs finite values")
    return values


def _parse_triple(text: str) -> tuple:
    point = _parse_numbers("--point", text)
    if len(point) != 3:
        raise UsageError(f"point {text!r} is not x,y,z")
    return point


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    target = _resolve_out(out)
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _m(x: float) -> str:
    return MACHINE_FMT % x


def _h(x: float) -> str:
    return HUMAN_FMT % x


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: RunConfig) -> tuple[str, int]:
    space, e = cfg.space, cfg.e
    if space.model is Model.S3 and cfg.max_k is None:
        raise UsageError("--max-k is required with --space s3")
    if cfg.max_k is not None:
        ks = range(1, cfg.max_k + 1)
    else:
        ks = range(1, bound_count_h3(e) + 1)
    rows = []
    for k in ks:
        ryd, curv = energy_split(space, e, k)
        rows.append(
            {
                "k": k,
                "epsilon": ryd + curv,
                "degeneracy": len(enumerate_states(k)),
                "admissible": is_admissible(space, e, k),
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "space": space.model.value,
        "e": e,
        "rows": rows,
    }
    if space.model is Model.H3:
        lo, hi = bound_interval_h3(e)
        payload["bound_count"] = bound_count_h3(e)
        payload["interval"] = [lo, hi]

    if cfg.fmt == "json":
        return _json_text(payload), 0
    if cfg.fmt == "csv":
        lines = ["k,epsilon,degeneracy,admissible"]
        for r in rows:
            lines.append(
                f"{r['k']},{_m(r['epsilon'])},{r['degeneracy']},{int(r['admissible'])}"
            )
        if space.model is Model.H3:
            lines.append(f"# bound_count,{payload['bound_count']}")
            lines.append(f"# interval,{_m(lo)},{_m(hi)}")
        return "\n".join(lines) + "\n", 0
    lines = [f"space {space.model.value}  e = {_h(e)}", "  k   epsilon        degeneracy  admissible"]
    for r in rows:
        lines.append(
            f"  {r['k']:<3d} {_h(r['epsilon']):<14s} {r['degeneracy']:<11d} "
            f"{'yes' if r['admissible'] else 'no'}"
        )
    if space.model is Model.H3:
        lines.append(f"bound_count: {payload['bound_count']}")
        lines.append(f"interval: [{_h(lo)}, {_h(hi)}]")
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# state


def cmd_state(cfg: RunConfig) -> tuple[str, int]:
    state = assemble_state(cfg.space, cfg.e, QuantumNumbers(cfg.n1, cfg.n2, cfg.m))
    body = state.to_json_dict()
    payload = {"schema_version": SCHEMA_VERSION, "command": "state", **body}
    if cfg.fmt == "json":
        return _json_text(payload), 0
    if cfg.fmt == "csv":
        lines = ["field,value"]
        for key in sorted(body):
            val = body[key]
            if isinstance(val, list):
                val = ";".join(_m(v) for v in val)
            elif isinstance(val, float):
                val = _m(val)
            lines.append(f"{key},{val}")
        return "\n".join(lines) + "\n", 0
    lines = [f"bound state {body['space']} e={_h(cfg.e)} (n1,n2,m)=({cfg.n1},{cfg.n2},{cfg.m})"]
    for key in sorted(body):
        if key in ("space", "n1", "n2", "m"):
            continue
        val = body[key]
        if isinstance(val, list):
            lines.append(f"  {key} = {_h(val[0])} {'+' if val[1] >= 0 else '-'} {_h(abs(val[1]))}i")
        elif isinstance(val, float):
            lines.append(f"  {key} = {_h(val)}")
        else:
            lines.append(f"  {key} = {val}")
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(cfg: RunConfig) -> tuple[str, int]:
    state = assemble_state(cfg.space, cfg.e, QuantumNumbers(cfg.n1, cfg.n2, cfg.m))
    if cfg.space.model is Model.S3 and np.any(cfg.grid_chi > math.pi):
        raise UsageError("S3 grid needs chi <= pi")
    if np.any(cfg.grid_chi < 0) or np.any(cfg.grid_chi > 350.0):
        raise UsageError("chi grid must lie in [0, 350]")
    cc, tt, pp = np.meshgrid(cfg.grid_chi, cfg.grid_theta, cfg.grid_phi, indexing="ij")
    cc, tt, pp = cc.ravel(), tt.ravel(), pp.ravel()
    chart = spherical_to_parabolic(cfg.space, (cc, tt, 0.0))
    t1, t2 = chart.t1, chart.t2
    skip = (t1 == 1.0) | (t2 == 1.0)
    re = np.zeros_like(cc)
    im = np.zeros_like(cc)
    good = ~skip
    if good.any():
        psi = wavefunction_values(state, t1[good], t2[good], pp[good])
        re[good] = psi.real
        im[good] = psi.imag
    rows = np.column_stack([cc, tt, pp, re, im, re * re + im * im, skip.astype(float)])
    # One repeated row template per format, filled from the flat value array
    # in a single `%`: the same text as formatting each value on its own.  The
    # value lists stay unnamed temporaries: bound to names, they raised the
    # process's peak RSS.
    if cfg.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "eval",
            "space": cfg.space.model.value,
            "e": cfg.e,
            "n1": cfg.n1,
            "n2": cfg.n2,
            "m": cfg.m,
            "columns": list(EVAL_COLUMNS),
            "rows": None,
        }
        # The C encoder's float text (repr, NaN, Infinity) in the indent=2
        # layout; the comma after the last row is cut.
        row = "\n    [\n" + ",\n".join(["      %s"] * len(EVAL_COLUMNS)) + "\n    ],"
        block = (row * len(rows))[:-1] % tuple(json.dumps(rows.ravel().tolist())[1:-1].split(", "))
        return _json_text(payload).replace('"rows": null', f'"rows": [{block}\n  ]', 1), 0
    if cfg.fmt == "human":
        head = "  ".join(f"{c:>12s}" for c in EVAL_COLUMNS)
        row = "  ".join(["%12.6g"] * len(EVAL_COLUMNS))
    else:
        head = ",".join(EVAL_COLUMNS)
        row = ",".join([MACHINE_FMT] * (len(EVAL_COLUMNS) - 1) + ["%d"])
    return head + "\n" + (row + "\n") * len(rows) % tuple(rows.ravel().tolist()), 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    results = run_suites(
        cfg.suite,
        cfg.space,
        cfg.e,
        cfg.max_k,
        cfg.seed,
        perturb_eps=cfg.perturb_eps,
        tolerance=cfg.tol,
    )
    ok = all_passed(results)
    code = 0 if ok else 1
    if cfg.fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "suite": cfg.suite,
            "space": cfg.space.model.value,
            "e": cfg.e,
            "max_k": cfg.max_k,
            "seed": cfg.seed,
            "perturb_eps": cfg.perturb_eps,
            "passed": ok,
            "reports": [r.to_json_dict() for r in results],
        }
        return _json_text(payload), code
    if cfg.fmt == "csv":
        lines = [",".join(VERIFY_COLUMNS)]
        for r in results:
            rep = r.report
            lines.append(
                ",".join(
                    [
                        r.suite,
                        f'"{r.label}"',
                        _m(rep.max_abs),
                        _m(rep.max_rel),
                        _m(rep.mean_rel),
                        str(rep.n_points),
                        str(int(rep.passed)),
                    ]
                )
            )
        return "\n".join(lines) + "\n", code
    lines = []
    for r in results:
        rep = r.report
        flag = "PASS" if rep.passed else "FAIL"
        line = (
            f"[{flag}] {r.suite:<12s} {r.label:<44s} "
            f"max_rel={_h(rep.max_rel)} (tol {_h(rep.tolerance)}, n={rep.n_points})"
        )
        if rep.note:
            line += f"  [{rep.note}]"
        lines.append(line)
    lines.append(f"verify: {'all passed' if ok else 'FAILURES PRESENT'} ({len(results)} reports)")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# limit


def cmd_limit(cfg: RunConfig) -> tuple[str, int]:
    rhos = list(cfg.rho) if cfg.rho else [1e2, 1e3, 1e4]
    table = flat_limit_coords(cfg.space, rhos, cfg.point)
    max_k = cfg.max_k if cfg.max_k is not None else 3
    split_rows = []
    for k in range(1, max_k + 1):
        ryd, curv = energy_split(cfg.space, cfg.e, k)
        split_rows.append(
            {
                "k": k,
                "epsilon": ryd + curv,
                "rydberg_term": ryd,
                "curvature_term": curv,
                "admissible": is_admissible(cfg.space, cfg.e, k),
            }
        )
    slope = table.slope()
    notes = [
        "rydberg_term is the flat-space -e^2/(2 k^2) exactly; epsilon is its sum "
        "with the curvature term, so the spectrum's flat limit is a closed-form split",
        "the dimensionless spectrum carries no rho dependence",
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "limit",
        "space": cfg.space.model.value,
        "e": cfg.e,
        "point": list(cfg.point),
        "rho": [float(r) for r in table.rho],
        "err_t1": [float(x) for x in table.err_t1],
        "err_t2": [float(x) for x in table.err_t2],
        "slope": slope,
        "degenerate": table.degenerate,
        "spectrum_split": split_rows,
        "notes": notes,
    }
    if cfg.fmt == "json":
        return _json_text(payload), 0
    if cfg.fmt == "csv":
        lines = ["rho,err_t1,err_t2"]
        for r, a, b in zip(table.rho, table.err_t1, table.err_t2):
            lines.append(f"{_m(r)},{_m(a)},{_m(b)}")
        lines.append(f"# slope,{_m(slope)}")
        for row in split_rows:
            lines.append(
                f"# split,{row['k']},{_m(row['epsilon'])},{_m(row['rydberg_term'])},"
                f"{_m(row['curvature_term'])}"
            )
        return "\n".join(lines) + "\n", 0
    lines = [f"flat limit, space {cfg.space.model.value}, base point {cfg.point}"]
    lines.append("  rho          err_t1       err_t2")
    for r, a, b in zip(table.rho, table.err_t1, table.err_t2):
        lines.append(f"  {_h(r):<12s} {_h(a):<12s} {_h(b)}")
    lines.append(f"log-log slope: {_h(slope)}")
    lines.append("  k   epsilon        rydberg_term   curvature_term")
    for row in split_rows:
        lines.append(
            f"  {row['k']:<3d} {_h(row['epsilon']):<14s} {_h(row['rydberg_term']):<14s} "
            f"{_h(row['curvature_term'])}"
        )
    for n in notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedkepler",
        description="Bound states of the Kepler problem on H3 and S3 in parabolic coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, space_default=None, e_default=None):
        sp.add_argument("--space", choices=("h3", "s3"), default=space_default)
        sp.add_argument("--e", type=float, default=e_default, help="coupling strength e > 0")
        sp.add_argument("--max-k", type=int, default=None, dest="max_k")
        sp.add_argument("--seed", type=int, default=7)
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("spectrum", help="energy levels and degeneracies")
    common(sp)
    sp.add_argument("--format", choices=("json", "csv", "human"), default="human")

    sp = sub.add_parser("state", help="assemble one bound state")
    common(sp)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--format", choices=("json", "csv", "human"), default="json")

    sp = sub.add_parser("eval", help="wavefunction values on a (chi,theta,phi) grid")
    common(sp)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--grid-chi", default="0.2:1.2:3", help="lo:hi:count")
    sp.add_argument("--grid-theta", default="0.4:2.7:3", help="lo:hi:count")
    sp.add_argument("--grid-phi", default="0:5.5:2", help="lo:hi:count")
    sp.add_argument("--format", choices=("json", "csv", "human"), default="csv")

    sp = sub.add_parser("verify", help="run residual-verification suites")
    sp.add_argument("suite", choices=SUITES + ("all",))
    common(sp, space_default="s3", e_default=2.0)
    sp.add_argument("--perturb-eps", type=float, default=0.0, dest="perturb_eps")
    sp.add_argument("--format", choices=("json", "csv", "human"), default="json")

    sp = sub.add_parser("limit", help="flat-space limit of coordinates and spectrum")
    common(sp)
    sp.add_argument("--rho", default=None, help="comma-separated increasing radii")
    sp.add_argument("--point", default="0.3,0.2,0.4", help="Euclidean base point x,y,z")
    sp.add_argument("--format", choices=("json", "csv", "human"), default="human")

    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    if ns.command != "verify" and (ns.space is None or ns.e is None):
        raise UsageError(f"{ns.command} requires --space and --e")
    space = space_from_name(ns.space) if ns.space else None
    cfg = RunConfig(command=ns.command, space=space, e=ns.e, seed=ns.seed, tol=ns.tol, out=ns.out)
    cfg.max_k = ns.max_k
    cfg.fmt = ns.format
    for name in ("n1", "n2", "m"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if ns.command == "eval":
        cfg.grid_chi = _parse_grid(ns.grid_chi)
        cfg.grid_theta = _parse_grid(ns.grid_theta)
        cfg.grid_phi = _parse_grid(ns.grid_phi)
    if ns.command == "verify":
        cfg.suite = ns.suite
        cfg.perturb_eps = ns.perturb_eps
        if cfg.max_k is None:
            cfg.max_k = 3
    if ns.command == "limit":
        if ns.rho is not None:
            cfg.rho = _parse_numbers("--rho", ns.rho)
        cfg.point = _parse_triple(ns.point)
    if ns.command in ("spectrum", "state", "eval", "limit") and cfg.e is not None and cfg.e < 0:
        raise UsageError("--e must be >= 0")
    cfg.__post_init__()
    return cfg


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "state": cmd_state,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "limit": cmd_limit,
}


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = _config_from(ns)
        text, code = _DISPATCH[ns.command](cfg)
    except CurvedKeplerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(text, cfg.out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
