"""Seeded workloads of the teamsched benchmark.

Each workload turns ``--seed`` into a deterministic list of op inputs, runs
one op through the package's public API, and checks the op's output against
an independent reference. Package functions are always looked up on their
module at call time (``solvers.solve_team_equilibrium``, not a name imported
here), so the traced run's wrappers see every call the benchmark makes.

Op inputs are drawn in blocks. Each block is stratified over the input
properties that set an op's cost (server count, attack strength, machine
mass), so the run-to-run spread comes from the program and the machine rather
than from how many slow draws a seed happens to make.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from teamsched import cli, closed_form, experiments, game, oracle, solvers, stackelberg

#: cost tolerance of the closed-form checks, as in the acceptance suite
COST_TOL = 1e-6
#: lattice checks: the 4-server grid at resolution 1e-2 and verify's 1e-3
#: lattice both sit within this of the exact optimum
LATTICE_TOL = 1e-3
#: the certificate tolerance every solve in the benchmark runs at
SOLVE_TOL = solvers.SolveSettings.tolerance
#: sweep cap of the solver workloads, like a user passing ``--max-iters``.
#: In probes of about 2000 draws, converging draws needed up to ~1800 sweeps
#: (the damping halves after 1000 sweeps without progress); the draws still
#: unconverged at 3000 kept residuals near 1e-3 (poly) or lay in the
#: weak-attack band where a probe did not converge by 10 000 either (linear).
#: The cap bounds what such a stall costs
MAX_SWEEPS = 3000
#: resolution of the 4-server lattice in each pipeline op
GRID_RESOLUTION = 1e-2
#: the attack strengths of the shipped fig4/fig5 grid (0 to 3, step 0.05)
FIGURE_ALPHAS = tuple(3.0 * i / 60 for i in range(61))

OK, STALL, MISMATCH = "ok", "stall", "mismatch"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op's check.

    ``status`` is ``ok``, ``stall`` (the program itself reported
    non-convergence) or ``mismatch`` (the program claimed success but the
    reference disagrees, or an exit code was wrong). Only ``ok`` passes.
    """

    status: str
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]          # seed -> op inputs
    run: Callable[[Any, Path], Any]        # op input, output dir -> result
    check: Callable[[Any, Any], Verdict]   # op input, result -> verdict
    digest: Callable[[Any], str]           # result -> sha256 of its bytes
    record: Callable[[Any, Any], dict]     # op input, result -> per-op record
    setup: Callable[[Path], None]          # writes input files into the output dir
    min_ops: int                           # ops every run measures at least
    tail_pct: float                        # highest percentile with >= 10 ops beyond it at min_ops


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lhs(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    cells = list(range(count))
    rng.shuffle(cells)
    return [lo + (hi - lo) * (c + rng.random()) / count for c in cells]


def _report_digest(report) -> str:
    return _sha(repr((report.cost, report.profile.selfish, report.profile.per_machine,
                      report.selfish_residual, report.machine_residual,
                      report.converged, report.iterations)).encode())


def _report_record(report) -> dict:
    return {"converged": report.converged, "sweeps": report.iterations,
            "selfish_residual": report.selfish_residual,
            "machine_residual": report.machine_residual}


# ---------------------------------------------------------------------------
# team_linear: the paper's core computation on identical unit-slope servers

LINEAR_NS = (2, 3, 5, 10)
LINEAR_PER_N = 10  # draws per server count in one block
#: team_linear draws attack strengths from [LINEAR_ALPHA_MIN, 4]. Below it
#: lies the weak-attack band where the damped best response stalls at a
#: selfish residual of about alpha / 4 (full access, 0 < alpha <~ 4e-3 at the
#: 3000-sweep cap); ``team_linear_weak`` draws from that band and counts each
#: stall as a failed op. At LINEAR_ALPHA_MIN a solve takes at most ~650 sweeps
LINEAR_ALPHA_MIN = 0.01


@dataclass(frozen=True)
class LinearOp:
    n: int
    alpha: float
    r: float
    constrained: bool


def linear_inputs(seed: int, blocks: int = 150,
                  alphas: tuple[float, float] = (LINEAR_ALPHA_MIN, 4.0)) -> list[LinearOp]:
    """Blocks of 40 draws, 10 per server count, with attack strength and
    machine mass each in 10 strata of ``alphas`` and [0, 2].

    Every 10 consecutive blocks are a full factorial per server count: each
    strength stratum meets each mass stratum once, and is drawn once from
    each tenth of itself. The sweep count grows about as 1/alpha at the low
    end, so this keeps the mix of costs a run sees the same from seed to
    seed. A quarter of the n >= 3 draws (alternately 2 and 3 of 10) use the
    constrained family, whose machine mass is fixed at n - 1."""
    rng = random.Random(seed)
    lo, hi = alphas
    k = LINEAR_PER_N
    ops: list[LinearOp] = []
    for b in range(blocks):
        if b % k == 0:
            shifts = {n: rng.sample(range(k), k) for n in LINEAR_NS}
            tenths = {n: [rng.sample(range(k), k) for _ in range(k)] for n in LINEAR_NS}
        block = []
        for n in LINEAR_NS:
            flags = [j < 2 + b % 2 and n >= 3 for j in range(k)]
            rng.shuffle(flags)
            for c, constrained in enumerate(flags):
                alpha = lo + (hi - lo) * (c + (tenths[n][c][b % k] + rng.random()) / k) / k
                r = 2.0 * ((c + shifts[n][b % k]) % k + rng.random()) / k
                block.append(LinearOp(n, alpha, float(n - 1) if constrained else r,
                                      constrained))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def weak_inputs(seed: int) -> list[LinearOp]:
    """team_linear's draws with attack strength in (0, LINEAR_ALPHA_MIN)."""
    return linear_inputs(seed, blocks=10, alphas=(0.0, LINEAR_ALPHA_MIN))


def _linear_population(op: LinearOp):
    if op.constrained:
        return game.SchedulerPopulation.for_instance(
            op.n, ((float(op.n - 1), range(2, op.n + 1)),), (1, 2))
    return game.SchedulerPopulation.full_access(op.n, op.r)


def linear_run(op: LinearOp, out_dir: Path):
    settings = solvers.SolveSettings(max_outer_iterations=MAX_SWEEPS)
    return solvers.solve_team_equilibrium(game.GameInstance.linear(op.n, op.alpha),
                                          _linear_population(op), settings)


def linear_check(op: LinearOp, report) -> Verdict:
    if not report.converged:
        return Verdict(STALL, f"unconverged after {report.iterations} sweeps")
    if op.constrained:
        ref = closed_form.constrained_team_cost(op.n, op.alpha)
    else:
        ref = closed_form.team_cost_linear(op.n, op.r, op.alpha)
    if not abs(report.cost - ref) <= COST_TOL:
        return Verdict(MISMATCH, f"cost {report.cost!r} vs closed form {ref!r}")
    return Verdict(OK)


def linear_record(op: LinearOp, report) -> dict:
    return {"n": op.n, "alpha": op.alpha, "r": op.r, "constrained": op.constrained,
            **_report_record(report)}


# ---------------------------------------------------------------------------
# team_poly: the same solver on heterogeneous quadratic and cubic servers


@dataclass(frozen=True)
class PolyOp:
    n: int
    delays: tuple[tuple[float, ...], ...]
    alpha: float
    machines: tuple[tuple[float, tuple[int, ...]], ...]
    selfish_access: tuple[int, ...]


#: one block of team_poly draws: (degrees, machine access sets, selfish
#: access), in server labels that each draw permutes at random. Every block
#: holds n = 2 and 3 with 1, 2 and 3 machines, so 1 to 3 access groups
POLY_SHAPES = (
    ((2, 3), ((1, 2),), (1, 2)),
    ((2, 3), ((1, 2), (2,)), (1, 2)),
    ((3, 2), ((1, 2), (1,), (2,)), (1, 2)),
    ((2, 2, 3), ((2, 3),), (1, 2)),
    ((3, 2, 2), ((1, 2, 3), (1, 3)), (1, 2, 3)),
    ((2, 3, 2), ((1, 2, 3), (1, 2), (2, 3)), (1, 3)),
)


def poly_inputs(seed: int, blocks: int = 150) -> list[PolyOp]:
    """Blocks of the six :data:`POLY_SHAPES`, server labels permuted at random.

    One server is cubic and the rest quadratic; all share one intercept in
    [0, 1] and have positive coefficients in [0.2, 1.5]. Attack strength is
    stratified over [0, 4] in each block; the machine mass is 20-90% of the
    total, split at random weights.
    """
    rng = random.Random(seed)
    ops: list[PolyOp] = []
    for _ in range(blocks):
        alphas = _lhs(rng, len(POLY_SHAPES), 0.0, 4.0)
        block = []
        for (degrees, machine_access, selfish_access), alpha in zip(POLY_SHAPES, alphas):
            n = len(degrees)
            label = list(range(1, n + 1))
            rng.shuffle(label)
            c0 = rng.uniform(0.0, 1.0)
            delays = [()] * n
            for i, d in enumerate(degrees):
                delays[label[i] - 1] = (c0,) + tuple(rng.uniform(0.2, 1.5) for _ in range(d))
            mass = rng.uniform(0.2, 0.9) * n
            weights = [rng.random() + 0.2 for _ in machine_access]
            machines = tuple((mass * w / sum(weights), tuple(sorted(label[i - 1] for i in a)))
                             for w, a in zip(weights, machine_access))
            selfish = tuple(sorted(label[i - 1] for i in selfish_access))
            block.append(PolyOp(n, tuple(delays), alpha, machines, selfish))
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _poly_game(op: PolyOp):
    instance = game.GameInstance(op.n, op.delays, 1, op.alpha)
    population = game.SchedulerPopulation.for_instance(op.n, op.machines, op.selfish_access)
    return instance, population


def poly_run(op: PolyOp, out_dir: Path):
    instance, population = _poly_game(op)
    settings = solvers.SolveSettings(max_outer_iterations=MAX_SWEEPS)
    return solvers.solve_team_equilibrium(instance, population, settings)


def poly_check(op: PolyOp, report) -> Verdict:
    if not report.converged:
        return Verdict(STALL, f"unconverged after {report.iterations} sweeps, residuals "
                              f"{report.selfish_residual:.3e} / {report.machine_residual:.3e}")
    instance, population = _poly_game(op)
    s_res, m_res = solvers.equilibrium_residuals(instance, population, report.profile)
    if not max(s_res, m_res) <= SOLVE_TOL:
        return Verdict(MISMATCH, f"certificate residuals {s_res:.3e} / {m_res:.3e}")
    blocks = [(report.profile.selfish, population.selfish_mass)]
    blocks += list(zip(report.profile.per_machine, population.machine_masses))
    for block, mass in blocks:
        if any(not v >= 0.0 for v in block):
            return Verdict(MISMATCH, f"negative load in block {block}")
        if not abs(math.fsum(block) - mass) <= 1e-9 * op.n:
            return Verdict(MISMATCH, f"block mass {math.fsum(block)!r} vs {mass!r}")
    if not abs(math.fsum(report.aggregate.loads) - op.n) <= 1e-9 * op.n:
        return Verdict(MISMATCH, "aggregate mass differs from the server count")
    return Verdict(OK)


def poly_record(op: PolyOp, report) -> dict:
    return {"n": op.n, "alpha": op.alpha, "machines": len(op.machines),
            "degrees": [len(d) - 1 for d in op.delays], **_report_record(report)}


# ---------------------------------------------------------------------------
# paper_pipeline: the CLI commands a user runs, at one attack strength per op

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def pipeline_inputs(seed: int, blocks: int = 100) -> list[float]:
    """Blocks of 4 attack strengths from the shipped figure grid, one from
    each quarter of it."""
    rng = random.Random(seed)
    quarters = [FIGURE_ALPHAS[q * 15:(q + 1) * 15 + (q == 3)] for q in range(4)]
    ops: list[float] = []
    for _ in range(blocks):
        block = [rng.choice(q) for q in quarters]
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _scenario_paths(out_dir: Path, alpha: float) -> tuple[Path, Path]:
    tag = f"{alpha:.2f}"
    return out_dir / f"sweep_{tag}.json", out_dir / f"solve_{tag}.json"


def pipeline_setup(out_dir: Path) -> None:
    """Writes one sweep and one solve scenario per grid attack strength."""
    for alpha in FIGURE_ALPHAS:
        sweep_path, solve_path = _scenario_paths(out_dir, alpha)
        sweep_path.write_text(json.dumps({
            "name": "bench-sweep",
            "servers": {"count": 3, "delays": [[0, 1]] * 3},
            "attack": {"target": 1, "strength": alpha},
            "machines": [{"mass": 1.0}],
            "sweep": {"alpha": {"start": alpha, "stop": alpha + 1.0, "points": 2},
                      "r": {"start": 0.5, "stop": 1.5, "points": 2}},
        }))
        solve_path.write_text(json.dumps({
            "name": "bench-solve",
            "servers": {"count": 3, "delays": [[0, 1]] * 3},
            "attack": {"target": 1, "strength": alpha},
            "machines": [{"mass": 2.0, "access": [2, 3]}],
            "selfish": {"access": [1, 2]},
            "stackelberg": True,
        }))


def _cli(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, (out.getvalue() + err.getvalue()).encode()


def pipeline_run(alpha: float, out_dir: Path) -> dict:
    a = repr(alpha)
    sweep_path, solve_path = _scenario_paths(out_dir, alpha)
    commands = {
        "verify_constrained": ["verify", str(SCENARIOS / "constrained_three_servers.json"),
                               "--alpha-list", a],
        "verify_unconstrained": ["verify", str(SCENARIOS / "unconstrained_two_servers.json"),
                                 "--alpha-list", a],
        "fig4": ["figure", "fig4", "--numeric", "--alpha-list", a,
                 "--out", str(out_dir / "fig4.csv")],
        "fig5": ["figure", "fig5", "--numeric", "--alpha-list", a,
                 "--out", str(out_dir / "fig5.csv")],
        "sweep": ["sweep", str(sweep_path), "--out", str(out_dir / "sweep.csv")],
        "solve": ["solve", str(solve_path)],
    }
    result: dict = {}
    for key, argv in commands.items():
        code, stdout = _cli(argv)
        csv = b""
        if "--out" in argv:
            csv_path = Path(argv[argv.index("--out") + 1])
            if code == 0:
                csv = csv_path.read_bytes()
            csv_path.unlink(missing_ok=True)
        result[key] = (code, stdout, csv)
    profile, cost = oracle.grid_search_optimum(game.GameInstance.linear(4, alpha),
                                               GRID_RESOLUTION)
    result["grid"] = (profile.loads, cost)
    return result


def _csv_rows(data: bytes) -> list[list[float]]:
    return [[float(v) if v not in ("true", "false") else float(v == "true")
             for v in line.split(",")] for line in data.decode().splitlines()[1:]]


def _verify_gaps(stdout: bytes) -> dict[str, tuple[bool, float]]:
    """``{"strong": (verdict, gap), "weak": (...)}`` from verify's two lines."""
    found = {}
    for line in stdout.decode().splitlines():
        kind, _, rest = line.partition(" security: ")
        if kind in ("strong", "weak") and " (worst gap " in rest:
            verdict, gap = rest.split(" (worst gap ")
            found[kind] = (verdict == "true", float(gap.split(" at ")[0]))
    return found


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def pipeline_check(alpha: float, result: dict) -> Verdict:
    for key, value in result.items():
        code = value[0]
        if key == "grid" or code == 0:
            continue
        if code == 2:
            return Verdict(STALL, f"{key} exited 2 (non-convergence)")
        return Verdict(MISMATCH, f"{key} exited {code}")

    # verify: worst gaps against the closed-form team, optimal and baseline costs
    refs = {
        "verify_constrained": (3, closed_form.constrained_team_cost(3, alpha)),
        "verify_unconstrained": (2, closed_form.team_cost_linear(2, 1.0, alpha)),
    }
    for key, (n, team) in refs.items():
        gaps = _verify_gaps(result[key][1])
        expect = {"strong": team - closed_form.optimal_cost_linear(n, alpha),
                  "weak": team - closed_form.baseline_cost(n, alpha)}
        for kind, ref in expect.items():
            if kind not in gaps:
                return Verdict(MISMATCH, f"{key}: no {kind} verdict line")
            verdict, gap = gaps[kind]
            if not _close(gap, ref, LATTICE_TOL) or verdict != (gap <= 1e-5):
                return Verdict(MISMATCH, f"{key}: {kind} gap {gap!r} vs {ref!r}")

    # figures: every numeric cell against the closed-form figure at this alpha
    for fig in ("fig4", "fig5"):
        closed = _csv_rows(experiments.figure_data(fig, alphas=[alpha]).encode())
        numeric = _csv_rows(result[fig][2])
        if len(closed) != len(numeric) or any(
                len(c) != len(v) or not all(_close(x, y, COST_TOL) for x, y in zip(c, v))
                for c, v in zip(closed, numeric)):
            return Verdict(MISMATCH, f"{fig} numeric cells differ from the closed form")

    # sweep rows: alpha, r, team, optimal, baseline, selfish, converged, loads
    rows = _csv_rows(result["sweep"][2])
    if len(rows) != 4:
        return Verdict(MISMATCH, f"sweep wrote {len(rows)} rows, expected 4")
    for row in rows:
        a, r = row[0], row[1]
        ref = (closed_form.team_cost_linear(3, r, a), closed_form.optimal_cost_linear(3, a),
               closed_form.baseline_cost(3, a), closed_form.team_cost_linear(3, 0.0, a))
        if row[6] != 1.0 or not all(_close(x, y, COST_TOL) for x, y in zip(row[2:6], ref)):
            return Verdict(MISMATCH, f"sweep row {row[:7]} vs closed forms {ref}")

    # solve: constrained team cost and the numeric Stackelberg cost
    lines = dict(line.split(": ", 1) for line in result["solve"][1].decode().splitlines()
                 if ": " in line)
    team = float(lines.get("team cost", "nan"))
    leader = float(lines.get("stackelberg cost", "nan"))
    if (not lines.get("converged", "").startswith("true")
            or not _close(team, closed_form.constrained_team_cost(3, alpha), COST_TOL)
            or not _close(leader, stackelberg.stackelberg_cost(3, alpha), COST_TOL)):
        return Verdict(MISMATCH, f"solve: team {team!r}, stackelberg {leader!r}")

    _, cost = result["grid"]
    if not _close(cost, closed_form.optimal_cost_linear(4, alpha), LATTICE_TOL):
        return Verdict(MISMATCH, f"4-server lattice cost {cost!r}")
    return Verdict(OK)


def pipeline_digest(result: dict) -> str:
    h = hashlib.sha256()
    for key, value in result.items():
        h.update(repr((key, value)).encode())
    return h.hexdigest()


def pipeline_record(alpha: float, result: dict) -> dict:
    rec: dict = {"alpha": alpha}
    for key, value in result.items():
        if key == "grid":
            rec["grid_cost"] = value[1]
            continue
        code, stdout, csv = value
        rec[key] = {"exit": code, "stdout_sha256": _sha(stdout)}
        if csv:
            rec[key]["csv_sha256"] = _sha(csv)
    return rec


def _no_setup(out_dir: Path) -> None:
    pass


WORKLOADS = {
    w.name: w for w in (
        Workload("team_linear", linear_inputs, linear_run, linear_check, _report_digest,
                 linear_record, _no_setup, min_ops=100, tail_pct=90.0),
        Workload("team_linear_weak", weak_inputs, linear_run, linear_check, _report_digest,
                 linear_record, _no_setup, min_ops=40, tail_pct=75.0),
        Workload("team_poly", poly_inputs, poly_run, poly_check, _report_digest,
                 poly_record, _no_setup, min_ops=50, tail_pct=80.0),
        Workload("paper_pipeline", pipeline_inputs, pipeline_run, pipeline_check,
                 pipeline_digest, pipeline_record, pipeline_setup,
                 min_ops=25, tail_pct=60.0),
    )
}
