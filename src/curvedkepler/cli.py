"""Command-line surface: spectra, states, grid evaluation, verification.

Subcommands
-----------
spectrum   closed-form energy levels with degeneracies
state      assemble one bound state and print its parameter bundle
eval       evaluate a wavefunction on a (chi, theta, phi) grid as CSV, JSON
           or a human-readable table
verify     run residual-verification suites, exit 0 iff everything passes
limit      flat-space limit study (coordinates plus spectrum split)

Each subcommand accepts only the options it reads; argparse refuses any
other.  A command reads the parsed namespace once :func:`_validate` has
checked it and parsed its structured values.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or domain error.  Output is deterministic for a fixed seed:
sample points come from PCG64 streams and all numeric formatting is
fixed (17 significant digits in machine formats, 6 in human ones).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import CurvedKeplerError
from .geometry import flat_limit_coords
from .kepler import (QuantumNumbers, _psi_grid, assemble_state, bound_count_h3, bound_interval_h3, energy_split,
                     is_admissible)
from .spaces import Model, space_from_name
from .verify import SUITES, _check_perturbation, all_passed, run_suites

SCHEMA_VERSION = 1
OUT_DIR_ENV = "CURVEDKEPLER_OUT_DIR"
MACHINE_FMT = "%.17g"
HUMAN_FMT = "%.6g"

EVAL_COLUMNS = ("chi", "theta", "phi", "re_psi", "im_psi", "abs_psi2", "skipped")
VERIFY_COLUMNS = ("suite", "label", "max_abs", "max_rel", "mean_rel", "n_points", "passed")


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
        return
    try:
        fh = open(target, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot open --out {target!r}: {exc.strerror or exc}") from exc
    with fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _m(x: float) -> str:
    return MACHINE_FMT % x


def _h(x: float) -> str:
    return HUMAN_FMT % x


def _csv(header, rows, trailers=()) -> str:
    """The header row, a row of comma-joined cells per row, then a `# key,values` row per trailer."""
    lines = [",".join(header), *(",".join(row) for row in rows), *("# " + ",".join(row) for row in trailers)]
    return "\n".join(lines) + "\n"


def _table(widths, *rows) -> list[str]:
    """Human table lines, indented two spaces: each cell but the last is
    left-justified to its width, and cells are one space apart."""
    return ["  " + " ".join([*(cell.ljust(w) for cell, w in zip(row, widths)), row[-1]]) for row in rows]


def _levels(space, e: float, ks) -> list[dict]:
    """One row per k: epsilon as the sum of its Rydberg and curvature terms, and whether k is a bound level."""
    rows = []
    for k in ks:
        ryd, curv = energy_split(space, e, k)
        rows.append({"k": k, "epsilon": ryd + curv, "rydberg_term": ryd, "curvature_term": curv,
                     "admissible": is_admissible(space, e, k)})
    return rows


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(ns: argparse.Namespace) -> tuple[str, int]:
    space, e = ns.space, ns.e
    if space.model is Model.S3 and ns.max_k is None:
        raise UsageError("--max-k is required with --space s3")
    levels = _levels(space, e, range(1, (bound_count_h3(e) if ns.max_k is None else ns.max_k) + 1))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "space": space.model.value,
        "e": e,
        "rows": [
            {"k": r["k"], "epsilon": r["epsilon"], "degeneracy": r["k"] * r["k"], "admissible": r["admissible"]}
            for r in levels
        ],
    }
    h3 = space.model is Model.H3
    if h3:
        lo, hi = bound_interval_h3(e)
        payload["bound_count"] = bound_count_h3(e)
        payload["interval"] = [lo, hi]
    if ns.format == "json":
        return _json_text(payload), 0
    csv = ns.format == "csv"
    num, flags = (_m, ("0", "1")) if csv else (_h, ("no", "yes"))
    header = ("k", "epsilon", "degeneracy", "admissible")
    rows = [(str(r["k"]), num(r["epsilon"]), str(r["degeneracy"]), flags[r["admissible"]]) for r in payload["rows"]]
    if csv:
        trailers = [("bound_count", str(payload["bound_count"])), ("interval", _m(lo), _m(hi))] if h3 else ()
        return _csv(header, rows, trailers), 0
    lines = [f"space {space.model.value}  e = {_h(e)}", *_table((3, 14, 11), header, *rows)]
    if h3:
        lines += [f"bound_count: {payload['bound_count']}", f"interval: [{_h(lo)}, {_h(hi)}]"]
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# state


def cmd_state(ns: argparse.Namespace) -> tuple[str, int]:
    state = assemble_state(ns.space, ns.e, QuantumNumbers(ns.n1, ns.n2, ns.m))
    body = state.to_json_dict()
    payload = {"schema_version": SCHEMA_VERSION, "command": "state", **body}
    if ns.format == "json":
        return _json_text(payload), 0
    csv = ns.format == "csv"

    def text(value) -> str:
        if isinstance(value, list):  # a complex field, [re, im]
            re, im = value
            return f"{_m(re)};{_m(im)}" if csv else f"{_h(re)} {'+' if im >= 0 else '-'} {_h(abs(im))}i"
        return (_m if csv else _h)(value) if isinstance(value, float) else str(value)

    rows = [(key, text(value)) for key, value in sorted(body.items())]
    if csv:
        return _csv(("field", "value"), rows), 0
    lines = [f"bound state {body['space']} e={_h(ns.e)} (n1,n2,m)=({ns.n1},{ns.n2},{ns.m})"]
    lines += [f"  {key} = {value}" for key, value in rows if key not in ("space", "n1", "n2", "m")]
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(ns: argparse.Namespace) -> tuple[str, int]:
    state = assemble_state(ns.space, ns.e, QuantumNumbers(ns.n1, ns.n2, ns.m))
    if np.any(ns.grid_chi < 0) or np.any(ns.grid_chi > ns.space.chi_max):
        raise UsageError(f"chi grid must lie in [0, {ns.space.chi_max:g}] on {ns.space.name}")
    if np.any(ns.grid_theta < 0) or np.any(ns.grid_theta > math.pi):
        raise UsageError("theta grid must lie in [0, pi]")
    psi = _psi_grid(state, ns.grid_chi, ns.grid_theta, ns.grid_phi).ravel()
    rows = _eval_rows(ns, np.column_stack([psi.real, psi.imag, psi.real**2 + psi.imag**2]))
    if ns.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "eval",
            "space": ns.space.model.value,
            "e": ns.e,
            "n1": ns.n1,
            "n2": ns.n2,
            "m": ns.m,
            "columns": list(EVAL_COLUMNS),
            "rows": None,
        }
        head, _, tail = _json_text(payload).partition('"rows": null')
        return "".join([head, '"rows": [', *rows, "\n  ]", tail]), 0
    if ns.format == "human":
        head = "  ".join(f"{c:>12s}" for c in EVAL_COLUMNS)
    else:
        head = ",".join(EVAL_COLUMNS)
    return "".join([head, "\n", *rows]), 0


# Per format: row start, cell separator, row end, the cell format (None: the
# C encoder's JSON text, as in the indent=2 layout) and the `skipped` text.
_EVAL_LAYOUT = {
    "csv": ("", ",", "\n", MACHINE_FMT, "0"),
    "human": ("", "  ", "\n", "%12.6g", "%12s" % 0),
    "json": ("\n    [\n      ", ",\n      ", "\n    ],", None, "0.0"),
}


def _texts(spec: str | None, values: list) -> list[str]:
    """The text of each value as one cell, from a single `%` (or, for JSON,
    a single `json.dumps`) over all of them."""
    if spec is None:
        return json.dumps(values)[1:-1].split(", ") if values else []
    return ((spec + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _eval_rows(ns: argparse.Namespace, cells: np.ndarray) -> list[str]:
    """The grid's rows in meshgrid `ij` order, as pieces to join; `cells`
    holds one `(re_psi, im_psi, abs_psi2)` row per point.  In JSON the
    comma after the last row is cut.

    The axis text is formatted once per axis entry and written, with the
    constant `skipped` text, into each row as literal text.  Where phi has
    more than one entry and the value cells' bits are the same at every phi
    of each (chi, theta) block (as they are for m = 0), the three value
    cells are formatted once per block and written in as literal text too.
    Otherwise the rows form one template and one `%` fills the value cells
    of every point.
    """
    start, sep, end, spec, skipped = _EVAL_LAYOUT[ns.format]
    axes = (ns.grid_chi, ns.grid_theta, ns.grid_phi)
    chi, theta, phi = (_texts(spec, axis.tolist()) for axis in axes)
    prefixes = (f"{start}{c}{sep}{t}{sep}" for c in chi for t in theta)
    # One (chi, theta) block per row, as bits, not values: -0.0 == 0.0 prints
    # apart, and a NaN that != itself prints alike.  The first block alone
    # turns most grids that do not repeat down.
    bits = cells.view(np.int64).reshape(-1, len(phi) * 3)
    repeats = len(phi) > 1 and (bits[0, 3:] == bits[0, :-3]).all() and (bits[:, 3:] == bits[:, :-3]).all()
    if repeats:
        heads = [f"{p}{sep}" for p in phi]
        values = iter(_texts(spec, cells[:: len(phi)].ravel().tolist()))
        tails = (f"{a}{sep}{b}{sep}{c}{sep}{skipped}{end}" for a, b, c in zip(values, values, values))
        blocks = [prefix + (tail + prefix).join(heads) + tail for prefix, tail in zip(prefixes, tails)]
    else:
        point = sep.join([spec or "%s"] * 3)
        tails = [f"{p}{sep}{point}{sep}{skipped}{end}" for p in phi]
        blocks = [prefix + prefix.join(tails) for prefix in prefixes]
    if ns.format == "json":
        blocks[-1] = blocks[-1][:-1]
    if repeats:
        return blocks
    # The value lists stay unnamed temporaries: bound to names, they raised
    # the process's peak RSS.
    if spec is None:
        return ["".join(blocks) % tuple(_texts(None, cells.ravel().tolist()))]
    return ["".join(blocks) % tuple(cells.ravel().tolist())]


# ---------------------------------------------------------------------------
# verify


def cmd_verify(ns: argparse.Namespace) -> tuple[str, int]:
    results = run_suites(ns.suite, ns.space, ns.e, ns.max_k, ns.seed, perturb_eps=ns.perturb_eps)
    ok = all_passed(results)
    code = 0 if ok else 1
    if ns.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "suite": ns.suite,
            "space": ns.space.model.value,
            "e": ns.e,
            "max_k": ns.max_k,
            "seed": ns.seed,
            "perturb_eps": ns.perturb_eps,
            "passed": ok,
            "reports": [r.to_json_dict() for r in results],
        }
        return _json_text(payload), code
    if ns.format == "csv":
        rows = [
            (r.suite, f'"{r.label}"', _m(r.report.max_abs), _m(r.report.max_rel), _m(r.report.mean_rel),
             str(r.report.n_points), str(int(r.report.passed)))
            for r in results
        ]
        return _csv(VERIFY_COLUMNS, rows), code
    lines = []
    for r in results:
        rep = r.report
        note = f"  [{rep.note}]" if rep.note else ""
        lines.append(
            f"[{'PASS' if rep.passed else 'FAIL'}] {r.suite:<12s} {r.label:<44s} "
            f"max_rel={_h(rep.max_rel)} (tol {_h(rep.tolerance)}, n={rep.n_points}){note}"
        )
    lines.append(f"verify: {'all passed' if ok else 'FAILURES PRESENT'} ({len(results)} reports)")
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# limit


def cmd_limit(ns: argparse.Namespace) -> tuple[str, int]:
    table = flat_limit_coords(ns.space, ns.rho, ns.point)
    levels = _levels(ns.space, ns.e, range(1, ns.max_k + 1))
    slope = table.slope()
    notes = [
        "rydberg_term is the flat-space -e^2/(2 k^2) exactly; epsilon is its sum "
        "with the curvature term, so the spectrum's flat limit is a closed-form split",
        "the dimensionless spectrum carries no rho dependence",
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "limit",
        "space": ns.space.model.value,
        "e": ns.e,
        "point": list(ns.point),
        "rho": [float(r) for r in table.rho],
        "err_t1": [float(x) for x in table.err_t1],
        "err_t2": [float(x) for x in table.err_t2],
        "slope": slope,
        "degenerate": table.degenerate,
        "spectrum_split": levels,
        "notes": notes,
    }
    if ns.format == "json":
        return _json_text(payload), 0
    num = _m if ns.format == "csv" else _h
    header, split_header = ("rho", "err_t1", "err_t2"), ("k", "epsilon", "rydberg_term", "curvature_term")
    rows = [tuple(map(num, row)) for row in zip(table.rho, table.err_t1, table.err_t2)]
    split = [(str(r["k"]), *(num(r[key]) for key in split_header[1:])) for r in levels]
    if ns.format == "csv":
        return _csv(header, rows, [("slope", _m(slope)), *(("split", *row) for row in split)]), 0
    lines = [f"flat limit, space {ns.space.model.value}, base point {ns.point}", *_table((12, 12), header, *rows)]
    lines.append(f"log-log slope: {_h(slope)}")
    lines += _table((3, 14, 14), split_header, *split)
    lines += [f"note: {n}" for n in notes]
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built on the first call and shared by every later one: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedkepler",
        description="Bound states of the Kepler problem on H3 and S3 in parabolic coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text, fmt_default, *, space_default=None, e_default=None):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--space", choices=("h3", "s3"), default=space_default)
        sp.add_argument("--e", type=float, default=e_default, help="coupling strength e >= 0")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=("json", "csv", "human"), default=fmt_default)
        return sp

    def max_k(sp, default):
        sp.add_argument("--max-k", type=int, default=default, dest="max_k")

    def quantum_numbers(sp):
        sp.add_argument("--n1", type=int, required=True)
        sp.add_argument("--n2", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)

    max_k(command("spectrum", "energy levels and degeneracies", "human"), None)

    quantum_numbers(command("state", "assemble one bound state", "json"))

    sp = command("eval", "wavefunction values on a (chi,theta,phi) grid", "csv")
    quantum_numbers(sp)
    sp.add_argument("--grid-chi", default="0.2:1.2:3", help="lo:hi:count")
    sp.add_argument("--grid-theta", default="0.4:2.7:3", help="lo:hi:count")
    sp.add_argument("--grid-phi", default="0:5.5:2", help="lo:hi:count")

    sp = command("verify", "run residual-verification suites", "json", space_default="s3", e_default=2.0)
    sp.add_argument("suite", choices=SUITES + ("all",))
    max_k(sp, 3)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--perturb-eps", type=float, default=0.0, dest="perturb_eps")

    sp = command("limit", "flat-space limit of coordinates and spectrum", "human")
    max_k(sp, 3)
    sp.add_argument("--rho", default="1e2,1e3,1e4", help="comma-separated increasing radii")
    sp.add_argument("--point", default="0.3,0.2,0.4", help="Euclidean base point x,y,z")

    return parser


def _validate(ns: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed options and parse the structured ones, in place."""
    if ns.space is None or ns.e is None:
        raise UsageError(f"{ns.command} requires --space and --e")
    if not math.isfinite(ns.e):
        raise UsageError(f"--e {ns.e!r} must be finite")
    if getattr(ns, "max_k", None) is not None and ns.max_k < 1:
        raise UsageError(f"--max-k {ns.max_k} must be >= 1")
    ns.space = space_from_name(ns.space)
    if ns.command == "eval":
        ns.grid_chi = _parse_grid(ns.grid_chi)
        ns.grid_theta = _parse_grid(ns.grid_theta)
        ns.grid_phi = _parse_grid(ns.grid_phi)
    if ns.command == "verify":
        if ns.seed < 0:
            raise UsageError(f"--seed {ns.seed} must be >= 0")
        _check_perturbation(ns.perturb_eps, "--perturb-eps")
    if ns.e < 0:
        raise UsageError("--e must be >= 0")
    if ns.command == "limit":
        ns.rho = _parse_numbers("--rho", ns.rho)
        ns.point = _parse_triple(ns.point)
    return ns


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
        text, code = _DISPATCH[ns.command](_validate(ns))
        _emit(text, ns.out)
    except CurvedKeplerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
