import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from teamsched import SchedulerPopulation, ValidationError, cli, experiments, oracle
from teamsched.experiments import (
    FIG2_DEFAULT_ALPHAS,
    ScenarioError,
    figure_data,
    load_scenario,
    run_sweep,
    sweep_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def base_doc(**overrides):
    doc = {
        "name": "test",
        "servers": {"count": 2, "delays": [[0, 1], [0, 1]]},
        "attack": {"target": 1, "strength": 1.0},
        "machines": [{"mass": 1.0}],
    }
    doc.update(overrides)
    return doc


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestLoadScenario:
    def test_shipped_scenarios_load(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            scenario = load_scenario(path)
            assert scenario.instance.n >= 2

    def test_unconstrained_fields(self):
        scenario = load_scenario(SCENARIOS / "unconstrained_two_servers.json")
        assert scenario.instance.n == 2
        assert scenario.instance.attack_strength == 1.0
        assert scenario.population.machine_mass_total == 1.0
        assert len(scenario.alpha_grid) == 9
        assert len(scenario.r_grid) == 9

    def test_mass_overflow_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_doc(machines=[{"mass": 2.1}]))
        with pytest.raises(ValidationError, match="mass-overflow"):
            load_scenario(path)

    def test_opposite_infinite_masses_rejected(self, tmp_path):
        # math.fsum once raised a raw ValueError (-inf + inf), which the CLI
        # reported as a usage error, exit 3
        doc = base_doc(machines=[{"mass": math.inf}, {"mass": -math.inf}])
        with pytest.raises(ValidationError, match="nonpositive-machine-mass: machine 2"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_bad_server_index_rejected(self, tmp_path):
        path = write_scenario(tmp_path, base_doc(machines=[{"mass": 1.0, "access": [1, 3]}]))
        with pytest.raises(ValidationError, match="bad-server-index"):
            load_scenario(path)

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  broken\n}')
        with pytest.raises(ScenarioError, match=r":3:"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")

    def test_sweep_needs_two_points(self, tmp_path):
        doc = base_doc(sweep={"alpha": {"start": 0.0, "stop": 1.0, "points": 1}})
        with pytest.raises(ScenarioError, match="points"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_grid_points_capped(self, tmp_path):
        doc = base_doc(sweep={"alpha": {"start": 0.0, "stop": 1.0, "points": 1e9}})
        with pytest.raises(ScenarioError, match=r"sweep\.alpha\.points"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_overflowing_grid_rejected(self, tmp_path):
        # finite and ascending, but (1e308 - 0) * 2 / 2 is inf at the last point
        doc = base_doc(sweep={"alpha": {"start": 0, "stop": 1e308, "points": 3}})
        with pytest.raises(ScenarioError, match=r"'sweep\.alpha' range .* overflows"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_documented_examples_load(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        readme_doc = readme.split("## Scenario files")[1].split("```json")[1].split("```")[0]
        module_doc = experiments.__doc__.split("::")[1].split("\n\n")[1]
        for k, text in enumerate((readme_doc, module_doc)):
            path = tmp_path / f"example{k}.json"
            path.write_text(text)
            assert load_scenario(path).instance.n >= 2

    def test_alphas_default_to_the_attack(self, tmp_path):
        assert load_scenario(write_scenario(tmp_path, base_doc())).alphas == (1.0,)
        doc = base_doc(sweep={"alpha": {"start": 0.0, "stop": 2.0, "points": 3}})
        assert load_scenario(write_scenario(tmp_path, doc)).alphas == (0.0, 1.0, 2.0)

    def test_r_sweep_needs_machines(self, tmp_path):
        doc = base_doc(machines=[], sweep={"r": {"start": 0, "stop": 1, "points": 3}})
        with pytest.raises(ScenarioError, match="machine"):
            load_scenario(write_scenario(tmp_path, doc))


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    doc = base_doc(sweep={
        "alpha": {"start": 0.0, "stop": 2.0, "points": 3},
        "r": {"start": 0.0, "stop": 2.0, "points": 5},
    })
    path = write_scenario(tmp_path_factory.mktemp("sweep"), doc)
    scenario = load_scenario(path)
    return scenario, run_sweep(scenario)


class TestRunSweep:
    def test_grid_shape_and_order(self, rows):
        scenario, result = rows
        assert len(result) == 15
        keys = [(r.alpha, r.r) for r in result]
        assert keys == sorted(keys)

    def test_high_penetration_point(self, rows):
        _, result = rows
        row = next(r for r in result if r.alpha == 1.0 and r.r == 1.0)
        assert row.team_cost == pytest.approx(1.4375, abs=1e-8)
        assert row.converged

    def test_zero_penetration_matches_baseline(self, rows):
        _, result = rows
        row = next(r for r in result if r.alpha == 1.0 and r.r == 0.0)
        assert row.team_cost == pytest.approx(1.5, abs=1e-8)
        assert row.baseline_cost == pytest.approx(1.5, abs=1e-10)
        assert row.team_cost == pytest.approx(row.selfish_cost, abs=1e-8)

    def test_no_attack_row_all_costs_one(self, rows):
        _, result = rows
        for row in result:
            if row.alpha == 0.0:
                for value in (row.team_cost, row.optimal_cost,
                              row.baseline_cost, row.selfish_cost):
                    assert value == pytest.approx(1.0, abs=1e-8)

    def test_team_never_beats_optimum(self, rows):
        _, result = rows
        for row in result:
            if row.converged:
                assert row.team_cost >= row.optimal_cost - 1e-8

    def test_csv_deterministic_across_reruns(self, rows):
        scenario, result = rows
        text1 = sweep_csv(scenario, result)
        text2 = sweep_csv(scenario, run_sweep(scenario))
        text3 = sweep_csv(scenario, run_sweep(scenario))
        assert text1 == text2 == text3

    def test_csv_columns(self, rows):
        scenario, result = rows
        header, body = parse_csv(sweep_csv(scenario, result))
        assert header == ["alpha", "r", "team_cost", "optimal_cost",
                          "baseline_cost", "selfish_cost", "converged", "x_1", "x_2"]
        assert len(body) == len(result)
        assert body[0][6] in ("true", "false")

    def test_mass_grid_without_machines_names_them(self, rows):
        # a scenario built past the loader's 'sweep.r' gate once raised a
        # bare ZeroDivisionError at the first positive mass
        scenario, _ = rows
        bare = replace(scenario, population=SchedulerPopulation.for_instance(2),
                       alpha_grid=(1.0,), r_grid=(0.0, 1.0))
        with pytest.raises(ValueError, match="no machines"):
            run_sweep(bare)


class TestFigureData:
    def test_fig2_curves_nonincreasing(self):
        header, rows = parse_csv(figure_data("fig2"))
        assert header[0] == "r"
        assert len(header) == 1 + len(FIG2_DEFAULT_ALPHAS)
        for col in range(1, len(header)):
            values = [float(r[col]) for r in rows]
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_fig4_reference_rows(self):
        header, rows = parse_csv(figure_data("fig4"))
        assert header == ["alpha", "uninfluenced_cost", "stackelberg_cost", "optimal_cost"]
        at = {float(r[0]): tuple(float(v) for v in r[1:]) for r in rows}
        assert at[0.0] == (1.0, 1.0, 1.0)
        assert at[1.0] == pytest.approx((4 / 3, 95 / 72, 23 / 18), abs=1e-9)

    def test_fig4_ordering(self):
        _, rows = parse_csv(figure_data("fig4"))
        for row in rows:
            _, uninfl, stack, opt = (float(v) for v in row)
            assert opt <= stack + 1e-9
            assert stack <= uninfl + 1e-9

    def test_fig5_reference_loads(self):
        header, rows = parse_csv(figure_data("fig5"))
        at = {float(r[0]): dict(zip(header[1:], map(float, r[1:]))) for r in rows}
        assert at[1.0]["stackelberg_x_2"] == pytest.approx(17 / 12, abs=1e-9)
        assert at[1.0]["optimal_x_1"] == pytest.approx(2 / 3, abs=1e-9)
        assert at[1.0]["uninfluenced_x_1"] == pytest.approx(1 / 3, abs=1e-9)

    def test_fig4_numeric_matches_closed_form(self):
        alphas = [0.0, 0.5, 1.0, 1.75, 2.5]
        closed = figure_data("fig4", alphas=alphas)
        numeric = figure_data("fig4", numeric=True, alphas=alphas)
        _, c_rows = parse_csv(closed)
        _, n_rows = parse_csv(numeric)
        for c_row, n_row in zip(c_rows, n_rows):
            for c_val, n_val in zip(c_row, n_row):
                assert float(n_val) == pytest.approx(float(c_val), abs=1e-6)

    def test_fig4_numeric_bytes_match_closed_form_under_strong_attack(self, capsys):
        # a selfish tail abandoned on the attacked server once cost it the
        # whole attack: 1.6515824503 at 1e12 instead of 1.5
        alphas = ["--alpha-list", "1e4,1e6,1e9,1e12,1e15"]
        assert cli.main(["figure", "fig4"] + alphas) == cli.EXIT_OK
        closed = capsys.readouterr().out
        assert cli.main(["figure", "fig4", "--numeric"] + alphas) == cli.EXIT_OK
        assert capsys.readouterr().out == closed

    def test_fig5_numeric_stackelberg_bytes_match_closed_form(self):
        # the exact piecewise search prints the closed-form commitment
        header, c_rows = parse_csv(figure_data("fig5"))
        _, n_rows = parse_csv(figure_data("fig5", numeric=True))
        cols = [i for i, name in enumerate(header) if name.startswith("stackelberg_")]
        assert len(n_rows) == 61
        for c_row, n_row in zip(c_rows, n_rows):
            assert [n_row[i] for i in cols] == [c_row[i] for i in cols]

    def test_round_trip_formatting_stable(self):
        text = figure_data("fig4")
        header, rows = parse_csv(text)
        rebuilt = "\n".join(
            [",".join(header)] +
            [",".join(format(float(v), ".12g") for v in row) for row in rows]
        ) + "\n"
        assert rebuilt == text

    def test_deterministic_across_reruns(self):
        assert figure_data("fig5") == figure_data("fig5")

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_data("fig9")

    @pytest.mark.parametrize("figure_id", ["fig2", "fig4", "fig5"])
    def test_empty_alphas_rejected(self, figure_id):
        # an empty list once fell back to the default grid
        with pytest.raises(ValueError, match="^alphas must hold at least one attack strength$"):
            figure_data(figure_id, alphas=[])


class TestCli:
    def run_cli(self, *args, env=None):
        return subprocess.run(
            [sys.executable, "-m", "teamsched.cli", *args],
            capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("args", [
        ["verify", str(SCENARIOS / "constrained_three_servers.json"), "--alpha-list", "0.5,1"],
        ["solve", str(SCENARIOS / "missing.json")],
    ], ids=["verify", "missing-file"])
    def test_package_runs_as_module(self, capsys, args):
        proc = subprocess.run([sys.executable, "-m", "teamsched", *args],
                              capture_output=True, text=True)
        code = cli.main(args)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)

    def test_solve_exit_zero(self):
        proc = self.run_cli("solve", str(SCENARIOS / "unconstrained_two_servers.json"))
        assert proc.returncode == 0
        assert "team cost: 1.4375" in proc.stdout
        assert "converged: true" in proc.stdout

    def test_solve_stackelberg_block(self):
        proc = self.run_cli("solve", str(SCENARIOS / "stackelberg_three_servers.json"))
        assert proc.returncode == 0
        assert "stackelberg cost" in proc.stdout

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = self.run_cli("sweep", str(SCENARIOS / "constrained_three_servers.json"),
                            "--out", str(out))
        assert proc.returncode == 0
        header, rows = parse_csv(out.read_text())
        assert header[:2] == ["alpha", "r"]
        assert len(rows) == 9

    def test_figure_to_stdout(self):
        proc = self.run_cli("figure", "fig4", "--alpha-list", "0,1")
        assert proc.returncode == 0
        assert proc.stdout.startswith("alpha,")

    def test_verify_reports_verdicts(self):
        proc = self.run_cli("verify", str(SCENARIOS / "constrained_three_servers.json"),
                            "--alpha-list", "0.5,1.0")
        assert proc.returncode == 0
        assert "strong security: false" in proc.stdout
        assert "weak security: true" in proc.stdout

    def test_verify_five_servers(self, tmp_path):
        # full access: the team answers every attack with the system optimum,
        # which the lattice checks at five servers as at two or three
        doc = base_doc(servers={"count": 5, "delays": [[0, 1]] * 5}, machines=[{"mass": 4.0}])
        proc = self.run_cli("verify", str(write_scenario(tmp_path, doc)),
                            "--alpha-list", "0,0.5,1,2,4")
        assert proc.returncode == 0, proc.stderr
        assert "strong security: true" in proc.stdout
        assert "weak security: true" in proc.stdout

    @pytest.mark.parametrize("n", [10, 31])
    def test_verify_up_to_31_servers(self, tmp_path, capsys, n):
        # the lattice guard admits every server count up to 31 at verify's 1e-3
        doc = base_doc(servers={"count": n, "delays": [[0, 1]] * n}, machines=[{"mass": n - 1.0}])
        argv = ["verify", str(write_scenario(tmp_path, doc)), "--alpha-list", "0.5,1,2"]
        assert cli.main(argv) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "strong security: true" in out
        assert "weak security: true" in out

    def test_verify_32_servers_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # refused by the baseline lattice search, before any team solve
        def no_solve(*args, **kwargs):
            raise AssertionError("team solve before the lattice guard")

        monkeypatch.setattr(oracle, "solve_team_equilibrium", no_solve)
        doc = base_doc(servers={"count": 32, "delays": [[0, 1]] * 32}, machines=[{"mass": 31.0}])
        assert cli.main(["verify", str(write_scenario(tmp_path, doc))]) == cli.EXIT_USAGE
        assert "sorts 1024000 slopes" in capsys.readouterr().err

    def test_verify_inconclusive_names_alpha(self):
        proc = self.run_cli("verify", str(SCENARIOS / "constrained_three_servers.json"),
                            "--alpha-list", "0.5,1.0", "--max-iters", "1")
        assert proc.returncode == 2
        assert proc.stdout == "verdict: inconclusive (solver did not converge at alpha=0.5)\n"

    def test_solve_does_not_load_numpy(self):
        # no command needs numpy: importing the package, solving, sweeping,
        # the numeric figures and verify (the lattice oracle) leave it
        # unloaded, and they all run again with numpy made unimportable (a
        # None entry in sys.modules makes every import of it raise). Each
        # step also loads only the package layers it runs: the package
        # import none, solve and sweep none of the oracle, the Stackelberg
        # search or the closed forms, the figures the latter two
        scenario = str(SCENARIOS / "constrained_three_servers.json")
        two_servers = str(SCENARIOS / "unconstrained_two_servers.json")
        code = (
            "import sys\n"
            "def layers():\n"
            "    return {name.split('.')[1] for name in sys.modules\n"
            "            if name.startswith('teamsched.')}\n"
            "lazy = {'oracle', 'stackelberg', 'closed_form'}\n"
            "import teamsched\n"
            "assert layers() == set(), ('package', layers())\n"
            "from teamsched import cli\n"
            "assert not layers() & lazy, ('cli', layers())\n"
            "assert sys.modules.get('numpy') is None, 'import'\n"
            f"assert cli.main(['solve', {scenario!r}]) == 0\n"
            "assert sys.modules.get('numpy') is None, 'solve'\n"
            "assert not layers() & lazy, ('solve', layers())\n"
            f"assert cli.main(['sweep', {scenario!r}]) == 0\n"
            "assert sys.modules.get('numpy') is None, 'sweep'\n"
            "assert not layers() & lazy, ('sweep', layers())\n"
            "assert cli.main(['figure', 'fig4', '--numeric']) == 0\n"
            "assert cli.main(['figure', 'fig5', '--numeric']) == 0\n"
            "assert sys.modules.get('numpy') is None, 'figure'\n"
            "assert layers() & lazy == {'stackelberg', 'closed_form'}, ('figure', layers())\n"
            f"assert cli.main(['verify', {scenario!r}]) == 0\n"
            f"assert cli.main(['verify', {two_servers!r}]) == 0\n"
            "assert sys.modules.get('numpy') is None, 'verify'\n"
            "assert 'oracle' in layers(), ('verify', layers())\n"
        )
        for prelude in ("", "sys.modules['numpy'] = None\n"):
            script = code.replace("import teamsched\n", prelude + "import teamsched\n", 1)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    def test_verify_infinite_lattice_inconclusive(self, tmp_path):
        # every lattice score overflows: the oracle returns cost inf, and the
        # team solves cannot certify an infinite cost
        doc = base_doc(servers={"count": 3, "delays": [[1e308]] * 3},
                       machines=[{"mass": 2.0, "access": [2, 3]}], selfish={"access": [1, 2]})
        proc = self.run_cli("verify", str(write_scenario(tmp_path, doc)))
        assert proc.returncode == 2
        assert proc.stdout == "verdict: inconclusive (solver did not converge at alpha=1)\n"
        assert proc.stderr == ""

    def test_usage_error_exit_three(self):
        proc = self.run_cli("figure", "fig9")
        assert proc.returncode == 3

    @pytest.mark.parametrize("command", [["figure", "fig4"],
                                         ["verify", str(SCENARIOS / "unconstrained_two_servers.json")]])
    @pytest.mark.parametrize("alphas", [",", " ", "", "abc", "1,x", "nan", "-1"])
    def test_alpha_list_without_numbers_is_usage_error(self, capsys, command, alphas):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--alpha-list", alphas])
        assert exc.value.code == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: teamsched {command[0]}")
        assert "error: argument --alpha-list:" in err

    def test_validation_error_exit_one(self, tmp_path):
        path = write_scenario(tmp_path, base_doc(machines=[{"mass": 5.0}]))
        proc = self.run_cli("solve", str(path))
        assert proc.returncode == 1
        assert "mass-overflow" in proc.stderr

    # two machines of 1e308 once ended every command in a traceback of a
    # raw OverflowError from math.fsum
    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    def test_overflowing_machine_masses_exit_one(self, tmp_path, command):
        path = write_scenario(tmp_path, base_doc(machines=[{"mass": 1e308}, {"mass": 1e308}]))
        proc = self.run_cli(command, str(path))
        assert proc.returncode == 1
        assert "mass-overflow" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_missing_scenario_exit_one(self):
        proc = self.run_cli("solve", "/nonexistent/path.json")
        assert proc.returncode == 1

    @pytest.mark.parametrize("attack, field", [
        ({"target": 1, "strength": float("nan")}, "nonfinite-attack-strength"),
        ({"target": 1, "strength": float("inf")}, "nonfinite-attack-strength"),
        ({"target": 1.7, "strength": 1.0}, "attack.target"),
    ])
    def test_bad_attack_exit_one(self, tmp_path, attack, field):
        path = write_scenario(tmp_path, base_doc(attack=attack))
        proc = self.run_cli("solve", str(path))
        assert proc.returncode == 1
        assert "scenario field 'attack" in proc.stderr
        assert field in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("overrides, field", [
        ({"servers": {"count": 2.5, "delays": [[0, 1], [0, 1]]}}, "servers.count"),
        ({"machines": {"mass": 1.0}}, "machines"),
        ({"machines": [{"mass": "x"}]}, "machines[1].mass"),
        ({"machines": [{"mass": 1.0, "access": 2}]}, "machines[1].access"),
        ({"solver": {"max_outer_iterations": 2.7}}, "solver.max_outer_iterations"),
        # the marginal cost 2 * 1e308 overflows
        ({"servers": {"count": 2, "delays": [[0, 1], [0, 1e308]]}}, "servers.delays[2]"),
        ({"solver": {"tolerance": float("inf")}}, "solver"),
        ({"servers": {"count": -1, "delays": []}}, "servers.count"),
        ({"servers": {"count": 0, "delays": []}}, "servers.count"),
        ({"servers": {"count": 2, "delays": [[0, 1]]}}, "servers.delays"),
        ({"sweep": {"alpha": {"start": 2, "stop": 1, "points": 3}}}, "sweep.alpha"),
        ({"sweep": {"r": {"start": 0, "stop": 3, "points": 3}}}, "sweep.r"),
        # float() of an integer beyond the float range raises OverflowError
        ({"attack": {"target": 1, "strength": 10 ** 400}}, "attack.strength"),
        ({"attack": {"target": 5, "strength": 1.0}}, "attack"),
        ({"attack": {"target": 1, "strength": -1.0}}, "attack"),
        # the paper's servers share one intercept
        ({"servers": {"count": 2, "delays": [[0, 1], [1, 1]]}}, "servers.delays[2]"),
    ])
    def test_bad_field_type_exit_one(self, tmp_path, capsys, overrides, field):
        path = write_scenario(tmp_path, base_doc(**overrides))
        assert cli.main(["solve", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert f"'{field}'" in err
        assert out == ""

    def test_top_level_not_an_object_exit_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, [1, 2])
        assert cli.main(["solve", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "top level must be an object" in err
        assert out == ""

    # the leader-follower model is n >= 3 servers of delay [0, 1] attacked
    # at server 1, the machines on servers 2..n and unit selfish mass on
    # servers 1 and 2; before the check, the first case printed the team
    # report and exited 3, and the others printed a Stackelberg cost for the
    # model's own population, not the file's
    @pytest.mark.parametrize("base, change", [
        ("unconstrained_two_servers", {"stackelberg": True}),
        ("stackelberg_three_servers",
         {"servers": {"count": 3, "delays": [[0, 1, 1], [0, 1, 1], [0, 1, 1]]}}),
        ("stackelberg_three_servers",
         {"servers": {"count": 3, "delays": [[0, 1], [0, 2], [0, 1]]}}),
        ("stackelberg_three_servers", {"attack": {"target": 2, "strength": 1.0}}),
        ("stackelberg_three_servers", {"machines": [{"mass": 0.5}], "selfish": {}}),
        ("stackelberg_three_servers", {"selfish": {"access": [1, 2, 3]}}),
        ("stackelberg_three_servers", {"machines": [{"mass": 2.0, "access": [1, 2, 3]}]}),
        ("stackelberg_three_servers", {"machines": [{"mass": 1.5, "access": [2, 3]}]}),
    ])
    def test_stackelberg_outside_its_model_exit_one(self, tmp_path, capsys, base, change):
        doc = json.loads((SCENARIOS / f"{base}.json").read_text())
        doc.update(change)
        assert cli.main(["solve", str(write_scenario(tmp_path, doc))]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "scenario field 'stackelberg': " in err
        assert out == ""

    @pytest.mark.parametrize("overrides, field", [
        ({"machines": [{"mass": 1.0, "acess": [2]}]}, "machines[1].acess"),
        ({"solver": {"tolerence": 1e-3}}, "solver.tolerence"),
        ({"solver": {"tolerance": 1e-10, "damping": 0.5}}, "solver.damping"),
        ({"stackelburg": True}, "stackelburg"),
        ({"sweep": {"alpha": {"start": 0, "stop": 1, "step": 0.1}}}, "sweep.alpha.step"),
    ])
    def test_unknown_field_exit_one(self, tmp_path, capsys, overrides, field):
        # a misspelt or retired field must not silently fall back to its default
        path = write_scenario(tmp_path, base_doc(**overrides))
        assert cli.main(["solve", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert f"unknown field '{field}'" in err
        assert out == ""

    # the attacked delay 1e308 + 1e308 once gave a sweep row of inf and NaN
    # costs and exit 2 on every command; the last two reach 1e308 only on a
    # sweep grid, which the loader refuses by name (see the next test), or an
    # --alpha-list, past the scenario check, where building the attacked
    # instance refuses it
    @pytest.mark.parametrize("strength, sweep, command, flags", [
        (1e308, {}, "solve", []),
        (1e308, {}, "sweep", []),
        (1e308, {}, "verify", []),
        (1.0, {"alpha": {"start": 1e308, "stop": 1e308, "points": 2}}, "sweep", []),
        (1.0, {}, "verify", ["--alpha-list", "1e308"]),
    ])
    def test_attack_overflow_exit_one(self, tmp_path, capsys, strength, sweep, command, flags):
        doc = base_doc(servers={"count": 2, "delays": [[1e308, 1], [1e308, 1]]},
                       attack={"target": 1, "strength": strength}, sweep=sweep)
        path = write_scenario(tmp_path, doc)
        assert cli.main([command, str(path)] + flags) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert "attack-overflow" in err
        assert ("scenario field 'attack': " in err) == (strength == 1e308)
        assert out == ""

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_sweep_alpha_overflow_names_field(self, tmp_path, capsys, command):
        # the grid's largest point once overflowed only when the run built it,
        # and the message named no field
        doc = base_doc(servers={"count": 2, "delays": [[1e308, 1], [1e308, 1]]},
                       attack={"target": 1, "strength": 1.0},
                       sweep={"alpha": {"start": 0.0, "stop": 1e308, "points": 2}})
        path = write_scenario(tmp_path, doc)
        assert cli.main([command, str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert err.startswith("error: scenario field 'sweep.alpha': attack-overflow: "
                              "strength 1e+308 makes server 1's delay at load 0 infinite")
        assert out == ""

    def test_infinite_cost_not_converged(self, tmp_path, capsys):
        doc = base_doc(servers={"count": 3, "delays": [[0, 8e307]] * 3})
        path = write_scenario(tmp_path, doc)
        assert cli.main(["solve", str(path)]) == cli.EXIT_NO_CONVERGENCE
        out = capsys.readouterr().out
        assert "converged: false" in out
        # the NaN residual stops the loop instead of running all 10000 sweeps
        sweeps = int(out.split("(iterations=")[1].split(")")[0])
        assert sweeps <= 10

    def test_infinite_tolerance_is_usage_error(self, capsys):
        argv = ["solve", str(SCENARIOS / "constrained_three_servers.json"), "--tol", "inf"]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tolerance must be a positive finite number, got inf\n"

    @pytest.mark.parametrize("command", [
        ["figure", "fig4"],
        ["sweep", str(SCENARIOS / "constrained_three_servers.json")],
    ], ids=["figure", "sweep"])
    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-dir", "directory"])
    def test_unwritable_out_exit_one(self, tmp_path, capsys, command, target, reason):
        out = tmp_path / target
        assert cli.main(command + ["--out", str(out)]) == cli.EXIT_VALIDATION
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: cannot write {out}: {reason}\n"

    def test_figure_ignores_tolerance_env(self, monkeypatch, capsys):
        monkeypatch.setenv("TEAMSCHED_TOL", "1e-8")
        assert cli.main(["figure", "fig4", "--alpha-list", "1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("alpha,")

    @pytest.mark.parametrize("env, flag, expected", [
        (None, None, 1e-3),
        ("1e-10", None, 1e-10),  # the built-in default still beats the scenario's
        ("1e-9", "1e-6", 1e-6),
        ("abc", None, 1e-3),
    ])
    def test_tolerance_precedence(self, tmp_path, monkeypatch, capsys, env, flag, expected):
        # --tol, else a parseable TEAMSCHED_TOL, else the scenario's solver.tolerance
        seen = []
        solve = cli.solve_team_equilibrium
        monkeypatch.setattr(cli, "solve_team_equilibrium",
                            lambda instance, population, settings:
                            seen.append(settings.tolerance) or solve(instance, population,
                                                                     settings))
        if env is None:
            monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
        else:
            monkeypatch.setenv("TEAMSCHED_TOL", env)
        doc = json.loads((SCENARIOS / "constrained_three_servers.json").read_text())
        doc["solver"]["tolerance"] = 1e-3
        argv = ["solve", str(write_scenario(tmp_path, doc))]
        assert cli.main(argv + (["--tol", flag] if flag else [])) == cli.EXIT_OK
        assert seen == [expected]
        assert ("warning: ignoring bad TEAMSCHED_TOL" in capsys.readouterr().err) == (env == "abc")

    @pytest.mark.parametrize("figure, r", [("fig2", "0"), ("fig4", "2"), ("fig5", "2")])
    def test_numeric_figure_stall_exits_two(self, tmp_path, monkeypatch, capsys, figure, r):
        solve = experiments.solve_team_equilibrium
        monkeypatch.setattr(experiments, "solve_team_equilibrium",
                            lambda instance, population: replace(
                                solve(instance, population), converged=False))
        out = tmp_path / "figure.csv"
        argv = ["figure", figure, "--numeric", "--alpha-list", "1.3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_NO_CONVERGENCE
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: team solve did not converge at r={r} alpha=1.3\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["figure", "fig4", "--tol", "1e-8"],
        ["sweep", str(SCENARIOS / "constrained_three_servers.json"), "--seed", "1"],
        ["solve", str(SCENARIOS / "constrained_three_servers.json"), "--jobs", "2"],
    ])
    def test_flags_without_effect_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE

    @staticmethod
    def _verify_calls(monkeypatch, capsys, scenario):
        """Lattice searches and team solves of one ``verify --alpha-list 0.5,2``,
        and its stdout."""
        calls = {"grid": 0, "team": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle, "grid_search_optimum",
                            counted("grid", oracle.grid_search_optimum))
        monkeypatch.setattr(oracle, "solve_team_equilibrium",
                            counted("team", oracle.solve_team_equilibrium))
        assert cli.main(["verify", str(scenario), "--alpha-list", "0.5,2"]) == cli.EXIT_OK
        return calls, capsys.readouterr().out

    def test_verify_scans_once(self, monkeypatch, capsys):
        calls, out = self._verify_calls(monkeypatch, capsys,
                                        SCENARIOS / "constrained_three_servers.json")
        assert "weak security: true" in out
        # one baseline lattice plus one per alpha; linear delays have an exact
        # potential, so the default start alone per alpha
        assert calls == {"grid": 1 + 2, "team": 1 * 2}

    def test_verify_keeps_random_starts_without_potential(self, monkeypatch, capsys):
        calls, out = self._verify_calls(monkeypatch, capsys, ROOT / "tests" / "golden" / "multi_group.json")
        assert out.encode() == (ROOT / "tests" / "golden" / "verify_multi_group.txt").read_bytes()
        # mixed degrees have no potential: default plus 5 random starts per alpha
        assert calls == {"grid": 1 + 2, "team": (1 + 5) * 2}
