"""Command-line entry point.

Subcommands: ``solve`` (one equilibrium, report to stdout), ``sweep``
(scenario grid to CSV), ``figure`` (figure-data CSV), ``verify`` (security
verdicts). Exit codes: 0 success, 1 validation/format error, 2 solver
non-convergence, 3 usage error. ``TEAMSCHED_TOL`` overrides the default
solver tolerance of the commands that take ``--tol``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments, oracle, stackelberg
from .experiments import Scenario, ScenarioError, figure_data, load_scenario, run_sweep, sweep_csv
from .game import ValidationError
from .solvers import SolveSettings, solve_team_equilibrium

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # non-convergence, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_tolerance() -> float:
    raw = os.environ.get("TEAMSCHED_TOL")
    if raw is None:
        return SolveSettings.tolerance
    try:
        return float(raw)
    except ValueError:
        print(f"warning: ignoring bad TEAMSCHED_TOL={raw!r}", file=sys.stderr)
        return SolveSettings.tolerance


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    settings = scenario.settings
    if args.tol is not None:
        settings = replace(settings, tolerance=args.tol)
    if args.max_iters is not None:
        settings = replace(settings, max_outer_iterations=args.max_iters)
    return replace(scenario, settings=settings)


def _alpha_list(raw: str) -> list[float]:
    """``--alpha-list`` as its attack strengths: at least one, each finite and >= 0."""
    try:
        alphas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        alphas = []
    if not alphas:
        raise argparse.ArgumentTypeError(f"expected comma-separated attack strengths, got {raw!r}")
    for alpha in alphas:
        if not 0.0 <= alpha < math.inf:
            raise argparse.ArgumentTypeError(
                f"attack strength must be finite and >= 0, got {alpha}")
    return alphas


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_solve(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    report = solve_team_equilibrium(scenario.instance, scenario.population,
                                    scenario.settings)
    n = scenario.instance.n
    print(f"scenario: {scenario.name}")
    print(f"servers={n} attack_target={scenario.instance.attack_target} "
          f"attack_strength={scenario.instance.attack_strength:g} "
          f"machine_mass={scenario.population.machine_mass_total:g}")
    print(f"converged: {str(report.converged).lower()} (iterations={report.iterations})")
    print(f"team cost: {report.cost:.12g}")
    print(f"selfish residual: {report.selfish_residual:.3e}")
    print(f"machine residual: {report.machine_residual:.3e}")
    loads = " ".join(f"x_{i}={x:.12g}" for i, x in enumerate(report.aggregate.loads, 1))
    print(f"aggregate loads: {loads}")
    if scenario.stackelberg:
        solution = stackelberg.solve_stackelberg_numeric(n, scenario.instance.attack_strength)
        print(f"stackelberg branch: {solution.branch}")
        print(f"stackelberg cost: {solution.cost:.12g}")
        print(f"stackelberg leader x_2: {solution.leader[1]:.12g}")
        closed = stackelberg.stackelberg_cost(n, scenario.instance.attack_strength)
        print(f"stackelberg cost (closed form): {closed:.12g}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    rows = run_sweep(scenario)
    _write_output(sweep_csv(scenario, rows), args.out)
    return EXIT_OK if all(r.converged for r in rows) else EXIT_NO_CONVERGENCE


def _cmd_figure(args) -> int:
    text = figure_data(args.figure, numeric=args.numeric, alphas=args.alpha_list)
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    if args.alpha_list is not None:
        alphas = args.alpha_list
    elif scenario.alpha_grid:
        alphas = list(scenario.alpha_grid)
    else:
        alphas = [scenario.instance.attack_strength]
    strong, weak = oracle.verify_security(
        scenario.instance, scenario.population, alphas,
        settings=scenario.settings, seed=args.seed)
    if strong.inconclusive:
        print(f"verdict: inconclusive (solver did not converge at alpha={strong.worst_alpha:g})")
        return EXIT_NO_CONVERGENCE
    print(f"strong security: {str(strong.strong).lower()} "
          f"(worst gap {strong.gap:.6g} at alpha={strong.worst_alpha:g})")
    print(f"weak security: {str(weak.weak).lower()} "
          f"(worst gap {weak.gap:.6g} at alpha={weak.worst_alpha:g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teamsched",
                     description="Equilibria and attack-response experiments "
                                 "for parallel-server scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    def solver_flags(p):
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance (default from TEAMSCHED_TOL or 1e-10)")
        p.add_argument("--max-iters", type=int, default=None,
                       help="best-response iteration cap")

    p = sub.add_parser("solve", help="solve one scenario and print the report")
    p.add_argument("scenario")
    solver_flags(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="run the scenario's sweep grid to CSV")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    solver_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("figure", help="emit figure-data CSV")
    p.add_argument("figure", choices=experiments.FIGURE_IDS)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--numeric", action="store_true",
                   help="use the iterative/search solvers instead of closed forms")
    p.add_argument("--alpha-list", type=_alpha_list, default=None,
                   help="comma-separated attack strengths overriding the default grid")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("verify", help="run oracle security verdicts on a scenario")
    p.add_argument("scenario")
    p.add_argument("--alpha-list", type=_alpha_list, default=None,
                   help="comma-separated attack strengths (default: scenario sweep grid)")
    solver_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for multi-start equilibrium checks")
    p.set_defaults(fn=_cmd_verify)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it unchanged, so every call reuses it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    if "tol" in args and args.tol is None:
        env_tol = _default_tolerance()
        if env_tol != SolveSettings.tolerance:
            args.tol = env_tol
    try:
        return args.fn(args)
    except (ScenarioError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
