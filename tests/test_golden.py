"""Default CLI output bytes against files written by an earlier release.

``golden/`` holds the ``solve`` stdout and ``sweep`` CSV of the shipped
scenarios and of ``golden/multi_group.json`` (quadratic delays, four machines
on three access sets, selfish jobs on a fourth), the closed-form figures on
their default grids, numeric figure data and the ``verify`` stdout, whose
gaps pin the lattice oracle's winning points, also of
``golden/target_three.json`` (three linear full-access servers, attacked at
server 3). ``golden/solver_reports.sha256`` pins the bits of 200 team solve
reports on linear servers, ``golden/poly_reports.sha256`` those of 60 on
quadratic and cubic servers, whose fills take Newton steps.
A change that moves any of these bytes must explain each moved digit.

``cli.main`` builds its parser once per process; the tests after the golden
cases check that reusing it changes no byte and no exit code.
"""

import hashlib
import random
from pathlib import Path

import pytest

from teamsched import (GameInstance, SchedulerPopulation, SolveSettings, cli,
                       solve_team_equilibrium)

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = {path.stem: path for path in
             sorted((GOLDEN.parent.parent / "scenarios").glob("*.json"))}
SCENARIOS["multi_group"] = GOLDEN / "multi_group.json"

CASES = [(f"{command}_{name}.{ext}", [command, str(path)])
         for name, path in SCENARIOS.items()
         for command, ext in (("solve", "txt"), ("sweep", "csv"))]
CASES += [(f"{fig}_numeric.csv", ["figure", fig, "--numeric", "--alpha-list", "0,0.5,1.3,2.5"])
          for fig in ("fig4", "fig5")]
CASES += [(f"{fig}.csv", ["figure", fig]) for fig in ("fig2", "fig4", "fig5")]
CASES += [("fig2_numeric.csv", ["figure", "fig2", "--numeric", "--alpha-list", "1"])]
CASES += [(f"verify_{name}.txt",
           ["verify", str(path)] + (["--alpha-list", "0.5,2"] if name == "multi_group" else []))
          for name, path in SCENARIOS.items()]
# every shipped scenario attacks server 1: this one pins the walk and the
# per-alpha tail rebuild with the attack on the last server
CASES += [("verify_target_three.txt",
           ["verify", str(GOLDEN / "target_three.json"), "--alpha-list", "0.5,2"])]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_output_bytes(golden, argv, capsys, monkeypatch):
    monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out.encode()


def test_cases_twice_interleaved(capsys, monkeypatch):
    monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
    order = [case for pair in zip(CASES, reversed(CASES)) for case in pair]
    for golden, argv in order:
        assert _run(argv, capsys) == (cli.EXIT_OK, (GOLDEN / golden).read_bytes()), golden


@pytest.mark.parametrize("argv", [["figure", "fig9"], ["verify", "x", "--alpha-list", ","],
                                  ["solve"], []])
def test_usage_error_then_valid_command(argv, capsys, monkeypatch):
    monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: teamsched")
    golden, valid = CASES[0]
    assert _run(valid, capsys) == (cli.EXIT_OK, (GOLDEN / golden).read_bytes())


@pytest.mark.parametrize("command", [[], ["solve"], ["sweep"], ["figure"], ["verify"]])
def test_help_matches_fresh_parser(command, capsys):
    def help_text(parse):
        with pytest.raises(SystemExit) as exc:
            parse(command + ["--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    cli.main(CASES[0][1])  # the shared parser has served a command before
    capsys.readouterr()
    assert help_text(cli.main) == help_text(cli.build_parser().parse_args)


def test_tolerance_env_read_on_every_call(capsys, monkeypatch):
    seen = []
    solve = cli.solve_team_equilibrium
    monkeypatch.setattr(cli, "solve_team_equilibrium",
                        lambda instance, population, settings: seen.append(settings.tolerance)
                        or solve(instance, population, settings))
    argv = ["solve", str(SCENARIOS["unconstrained_two_servers"])]
    for tol in (None, "1e-6", "1e-4", None):
        if tol is None:
            monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
        else:
            monkeypatch.setenv("TEAMSCHED_TOL", tol)
        assert cli.main(argv) == cli.EXIT_OK
    assert seen == [1e-10, 1e-6, 1e-4, 1e-10]


def _solver_report_digest() -> str:
    """sha256 over 200 fixed team solves on identical unit-slope linear servers.

    Each draw takes n from {2, 3, 5, 10} in turn, alpha from [0.01, 4] and r
    from [0, 2]; about a quarter of the n >= 3 draws use the constrained
    family (machines of mass n - 1 on servers 2..n, selfish jobs on {1, 2})
    instead of full access. Each report adds the repr of its cost, profile,
    residuals, ``converged`` and sweep count, so one moved bit moves the digest.
    """
    rng = random.Random(25)
    digest = hashlib.sha256()
    for k in range(200):
        n = (2, 3, 5, 10)[k % 4]
        alpha, r = rng.uniform(0.01, 4.0), rng.uniform(0.0, 2.0)
        if n >= 3 and rng.random() < 0.25:
            population = SchedulerPopulation.for_instance(n, ((n - 1.0, range(2, n + 1)),), (1, 2))
        else:
            population = SchedulerPopulation.full_access(n, r)
        report = solve_team_equilibrium(GameInstance.linear(n, alpha), population)
        digest.update(_report_line(report))
    return digest.hexdigest()


def _report_line(report) -> bytes:
    """The repr of a report's cost, profile, residuals, ``converged`` and sweeps."""
    return repr((report.cost, report.profile.selfish, report.profile.per_machine,
                 report.selfish_residual, report.machine_residual,
                 report.converged, report.iterations)).encode() + b"\n"


def _poly_report_digest() -> str:
    """sha256 over 60 fixed team solves on quadratic and cubic servers.

    Each draw takes n from {2, 3} in turn; one server is cubic and the rest
    quadratic, all sharing one intercept in [0, 1], with coefficients in
    [0.2, 1.5]. 1 to 3 machine groups (in turn) and the selfish jobs each
    reach a random nonempty set of servers, alpha is drawn from [0.01, 4]
    and the machines hold 20-90% of the mass. The sweep cap of 1000 stops
    the one slow draw unconverged, so the digest also pins where a capped
    solve stops.
    """
    rng = random.Random(29)
    settings = SolveSettings(max_outer_iterations=1000)
    digest = hashlib.sha256()
    for k in range(60):
        n = (2, 3)[k % 2]
        c0 = rng.uniform(0.0, 1.0)
        cubic = rng.randrange(n)
        delays = [(c0,) + tuple(rng.uniform(0.2, 1.5) for _ in range(3 if i == cubic else 2))
                  for i in range(n)]
        servers = range(1, n + 1)
        groups = [tuple(sorted(rng.sample(servers, rng.randint(1, n)))) for _ in range(1 + k % 3)]
        mass = rng.uniform(0.2, 0.9) * n
        weights = [rng.random() + 0.2 for _ in groups]
        machines = [(mass * w / sum(weights), access) for w, access in zip(weights, groups)]
        selfish = sorted(rng.sample(servers, rng.randint(1, n)))
        instance = GameInstance(n, delays, 1, rng.uniform(0.01, 4.0))
        population = SchedulerPopulation.for_instance(n, machines, selfish)
        digest.update(_report_line(solve_team_equilibrium(instance, population, settings)))
    return digest.hexdigest()


def test_solver_report_digest():
    assert _solver_report_digest() == (GOLDEN / "solver_reports.sha256").read_text().strip()


def test_poly_report_digest():
    assert _poly_report_digest() == (GOLDEN / "poly_reports.sha256").read_text().strip()
