"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the part
``setup_s`` times in a fresh interpreter) and then runs in chunks:
``run(j)`` does the timed work of chunk ``j`` and ``check(j, out, tally)``
checks its outputs afterwards, outside the timed region.  One pass is
all chunks in order.  The first pass is the reference that later passes
must reproduce exactly, because the program is deterministic for fixed
inputs.

Why these four: each user-facing run has a different bottleneck.

* verify-all      the shipped ``curvedkepler verify all`` runs; polynomial
                  commutators and the finite-difference Runge-Lenz stencil.
* level-scan      every state of a large level, few points per state;
                  the scalar ``parabolic_to_ambient`` loop.  Its H3 level
                  keeps the known precision collapse in view.
* eval-grid       ``curvedkepler eval`` on one state, many points; the
                  scalar chart loop and CSV/JSON formatting, no residuals.
* normalize-level ``normalize()`` over a level; ``pow_arr`` and the
                  Gauss-Legendre nodes, the array-bound ``specfun`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from curvedkepler import cli, kepler, operators, sampling
from curvedkepler.errors import CurvedKeplerError
from curvedkepler.spaces import H3, S3, Model, space_from_name


@dataclass
class Tally:
    """What the checks saw.

    ``failed`` counts operations that raised, exited non-zero or failed
    an output check; ``missed`` counts operations that completed with a
    residual over its tolerance.  Both are misses for ``pass_frac``.
    """

    attempted: int = 0
    failed: int = 0
    missed: int = 0
    states: int = 0
    points: int = 0
    reports: int = 0
    output_bytes: int = 0
    worst_max_rel: float = 0.0
    norm_err_max: float = 0.0
    problems: list = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the console entry point in-process and capture what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _level_states(space, e: float, k: int) -> int:
    return sum(len(kepler.enumerate_states(j)) for j in range(1, k + 1) if kepler.is_admissible(space, e, j))


class VerifyAll:
    """Per pass: ``verify all`` at the default S3 config, then on H3 at e=10."""

    name = "verify-all"
    n_chunks = 1
    CONFIGS = ((S3, 2.0, []), (H3, 10.0, ["--space", "h3", "--e", "10"]))
    MAX_K = 3

    def __init__(self, seed: int) -> None:
        self.argvs = [["verify", "all", *extra, "--seed", str(seed)] for _, _, extra in self.CONFIGS]
        self.states = sum(_level_states(space, e, self.MAX_K) for space, e, _ in self.CONFIGS)
        self.reference: dict[int, tuple[str, int]] = {}

    def ops(self, j: int) -> int:
        return sum(n for _, n in self.reference.values()) or len(self.argvs)

    def run(self, j: int):
        return [call_cli(argv) for argv in self.argvs]

    def check(self, j: int, out, tally: Tally) -> None:
        tally.states += self.states
        for i, (code, text) in enumerate(out):
            digest = _digest(text)
            try:
                reports = json.loads(text)["reports"]
            except (ValueError, KeyError):
                reports = []
            ref_digest, n_ref = self.reference.setdefault(i, (digest, len(reports)))
            n = max(n_ref, len(reports), 1)
            tally.attempted += n
            tally.reports += len(reports)
            tally.output_bytes += len(text.encode())
            tally.points += sum(r["n_points"] for r in reports)
            for r in reports:
                tally.worst_max_rel = max(tally.worst_max_rel, r["max_rel"])
            if code != 0 or not reports:
                tally.fail(n, f"{' '.join(self.argvs[i])}: exit {code}")
            elif digest != ref_digest:
                tally.fail(n, f"{' '.join(self.argvs[i])}: JSON differs from the first pass")

    def summary(self) -> dict:
        return {f"json_sha256_{i}": digest for i, (digest, _) in self.reference.items()}


class LevelScan:
    """Hamiltonian and B-operator residuals for every state of two levels."""

    name = "level-scan"
    LEVELS = ((S3, 2.0, 12), (H3, 900.0, 20))
    CHART_POINTS = 200
    n_chunks = 8

    def __init__(self, seed: int) -> None:
        rng = sampling.make_rng(seed)
        self.chunks = [[] for _ in range(self.n_chunks)]
        for space, e, k in self.LEVELS:
            states = kepler.enumerate_states(k)
            for j in range(self.n_chunks):
                self.chunks[j] += [(space, e, qn) for qn in states[j :: self.n_chunks]]
        self.chunk_seeds = [int(s) for s in rng.integers(0, 2**63, self.n_chunks)]
        self.reference: dict[int, tuple] = {}

    def ops(self, j: int) -> int:
        return 2 * len(self.chunks[j])

    def run(self, j: int):
        rng = sampling.make_rng(self.chunk_seeds[j])
        out = []
        for space, e, qn in self.chunks[j]:
            state = kepler.assemble_state(space, e, qn)
            pts = sampling.chart_points(space, rng, self.CHART_POINTS)
            for residual in (operators.hamiltonian_residual, operators.b_operator_residual):
                try:
                    out.append(residual(state, pts))
                except CurvedKeplerError as exc:
                    out.append(exc)
        return out

    def check(self, j: int, out, tally: Tally) -> None:
        tally.states += len(self.chunks[j])
        tally.attempted += self.ops(j)
        verdicts = tuple(getattr(r, "passed", None) for r in out)
        fingerprint = tuple(getattr(r, "max_rel", None) for r in out)
        ref = self.reference.setdefault(j, (verdicts, fingerprint))
        for r in out:
            if isinstance(r, Exception):
                tally.fail(1, f"level-scan chunk {j}: {type(r).__name__}: {r}")
                continue
            tally.reports += 1
            tally.points += r.n_points
            if not math.isfinite(r.max_rel):
                tally.fail(1, f"level-scan chunk {j}: non-finite residual")
            elif not r.passed:
                tally.missed += 1
            tally.worst_max_rel = max(tally.worst_max_rel, r.max_rel)
        if (verdicts, fingerprint) != ref:
            tally.fail(len(out), f"level-scan chunk {j}: verdicts differ from the first pass")

    def summary(self) -> dict:
        """The reference pass's verdict list, as its digest and its misses."""
        labels, verdicts = [], []
        for j in range(self.n_chunks):
            chunk_verdicts = self.reference[j][0]
            for n, (space, e, qn) in enumerate(self.chunks[j]):
                for kind, ok in zip(("hamiltonian", "boperator"), chunk_verdicts[2 * n : 2 * n + 2]):
                    labels.append(f"{space.name} e={e:g} ({qn.n1},{qn.n2},{qn.m}) {kind}")
                    verdicts.append(ok)
        order = sorted(range(len(labels)), key=labels.__getitem__)
        text = "\n".join(f"{labels[i]} {verdicts[i]}" for i in order)
        return {
            "verdict_digest": _digest(text),
            "verdicts": len(verdicts),
            "over_tolerance": [labels[i] for i in order if verdicts[i] is False],
        }


class EvalGrid:
    """``curvedkepler eval`` on a 40x40x10 grid: S3 as CSV, H3 as JSON."""

    name = "eval-grid"
    n_chunks = 1
    CASES = (("s3", 2.0, (1, 1, 1), "csv"), ("h3", 5.0, (0, 1, 0), "json"))
    GRID = (40, 40, 10)
    CHECK_POINTS = 64
    # Fixed before measuring: the CLI and the reference differ only in how
    # the chart is rounded (scalar math vs numpy), which moves psi by a few
    # ulps times the factors' condition number.
    REL_TOL = 1e-9

    def __init__(self, seed: int) -> None:
        rng = sampling.make_rng(seed)
        n = int(np.prod(self.GRID))
        self.argvs, self.states, self.subsets = [], [], []
        for space, e, (n1, n2, m), fmt in self.CASES:
            chi_hi = rng.uniform(2.9, 3.0)
            spans = (
                (rng.uniform(0.05, 0.15), chi_hi),
                (rng.uniform(0.05, 0.15), rng.uniform(2.95, 3.05)),
                (0.0, rng.uniform(5.8, 6.2)),
            )
            grid = [f"{lo!r}:{hi!r}:{count}" for (lo, hi), count in zip(spans, self.GRID)]
            self.argvs.append(
                ["eval", "--space", space, "--e", repr(e), "--n1", str(n1), "--n2", str(n2),
                 "--m", str(m), "--grid-chi", grid[0], "--grid-theta", grid[1],
                 "--grid-phi", grid[2], "--format", fmt]
            )
            self.states.append(kepler.assemble_state(space_from_name(space), e, kepler.QuantumNumbers(n1, n2, m)))
            self.subsets.append(np.sort(rng.choice(n, self.CHECK_POINTS, replace=False)))
        self.reference: dict[int, str] = {}
        self.checked: set[int] = set()
        self.worst_rel_diff = 0.0

    def ops(self, j: int) -> int:
        return len(self.argvs)

    def run(self, j: int):
        return [call_cli(argv) for argv in self.argvs]

    def summary(self) -> dict:
        return {"worst_rel_diff": self.worst_rel_diff, "rel_tol": self.REL_TOL}

    def _rows(self, text: str, fmt: str, idx: np.ndarray) -> np.ndarray:
        if fmt == "json":
            rows = json.loads(text)["rows"]
            return np.array([rows[i] for i in idx], dtype=float)
        lines = text.split("\n")
        return np.array([lines[i + 1].split(",") for i in idx], dtype=float)

    def _reference(self, state, chi, theta, phi) -> np.ndarray:
        c = np.cos(theta)
        if state.space.model is Model.H3:
            sh = np.sinh(chi)
            t1 = ((1.0 + c) * sh * np.exp(-chi)).astype(complex)
            t2 = (-(1.0 - c) * sh * np.exp(chi)).astype(complex)
        else:
            w = np.sin(chi) * np.exp(1j * (math.pi / 2.0 - chi))
            t1 = (1.0 + c) * w
            t2 = (1.0 - c) * np.conj(w)
        return kepler.wavefunction_values(state, t1, t2, phi)

    def check(self, j: int, out, tally: Tally) -> None:
        n = int(np.prod(self.GRID))
        tally.states += len(self.argvs)
        for i, (code, text) in enumerate(out):
            tally.attempted += 1
            tally.points += n
            tally.output_bytes += len(text.encode())
            fmt = self.CASES[i][3]
            digest = _digest(text)
            if self.reference.setdefault(i, digest) != digest:
                tally.fail(1, f"eval case {i}: output differs from the first pass")
                continue
            if code != 0:
                tally.fail(1, f"eval case {i}: exit {code}")
                continue
            if i in self.checked:
                continue
            try:
                rows = self._rows(text, fmt, self.subsets[i])
            except (ValueError, IndexError, KeyError) as exc:
                tally.fail(1, f"eval case {i}: unreadable output: {exc}")
                continue
            chi, theta, phi, re, im, _, skipped = rows.T
            if skipped.any():
                tally.fail(1, f"eval case {i}: a checked grid point was skipped as singular")
                continue
            ref = self._reference(self.states[i], chi, theta, phi)
            diff = np.abs(re + 1j * im - ref) / np.abs(ref)
            worst = float(diff.max())
            self.worst_rel_diff = max(self.worst_rel_diff, worst)
            self.checked.add(i)
            if not worst <= self.REL_TOL:
                tally.fail(1, f"eval case {i}: relative difference {worst:.3g} from the reference")


class NormalizeLevel:
    """``normalize()`` for every k=5 state, on S3 at e=2 and H3 at e=100."""

    name = "normalize-level"
    CASES = ((S3, 2.0), (H3, 100.0))
    K = 5
    n_chunks = 5

    def __init__(self, seed: int) -> None:
        rng = sampling.make_rng(seed)
        self.chunks = [[] for _ in range(self.n_chunks)]
        for space, e in self.CASES:
            states = [kepler.assemble_state(space, e, qn) for qn in kepler.enumerate_states(self.K)]
            order = rng.permutation(len(states))
            for j in range(self.n_chunks):
                self.chunks[j] += [states[i] for i in order[j :: self.n_chunks]]
        self.reference: dict[int, tuple] = {}

    def ops(self, j: int) -> int:
        return len(self.chunks[j])

    def run(self, j: int):
        out = []
        for state in self.chunks[j]:
            try:
                out.append(kepler.normalize(state))
            except CurvedKeplerError as exc:
                out.append(exc)
        return out

    def check(self, j: int, out, tally: Tally) -> None:
        tally.states += len(out)
        tally.attempted += len(out)
        values = tuple(getattr(r, "constant", None) for r in out)
        if self.reference.setdefault(j, values) != values:
            tally.fail(len(out), f"normalize chunk {j}: constants differ from the first pass")
        for r in out:
            if isinstance(r, Exception):
                tally.fail(1, f"normalize chunk {j}: {type(r).__name__}: {r}")
                continue
            tally.points += 5 * r.n_chi * r.n_theta
            if not (math.isfinite(r.constant) and r.constant > 0 and math.isfinite(r.error_estimate)):
                tally.fail(1, f"normalize chunk {j}: constant {r.constant}, error {r.error_estimate}")
                continue
            tally.norm_err_max = max(tally.norm_err_max, r.error_estimate)

    def summary(self) -> dict:
        constants = repr([self.reference[j] for j in range(self.n_chunks)])
        return {"constants_sha256": _digest(constants)}


WORKLOADS = {w.name: w for w in (VerifyAll, LevelScan, EvalGrid, NormalizeLevel)}
