"""Default CLI output bytes against files written by an earlier release.

``golden/`` holds the ``solve`` stdout and ``sweep`` CSV of the shipped
scenarios and of ``golden/multi_group.json`` (quadratic delays, four machines
on three access sets, selfish jobs on a fourth), numeric figure data and the
``verify`` stdout, whose gaps pin the lattice oracle's winning points.
A change that moves any of these bytes must explain each moved digit.
"""

from pathlib import Path

import pytest

from teamsched import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = {path.stem: path for path in
             sorted((GOLDEN.parent.parent / "scenarios").glob("*.json"))}
SCENARIOS["multi_group"] = GOLDEN / "multi_group.json"

CASES = [(f"{command}_{name}.{ext}", [command, str(path)])
         for name, path in SCENARIOS.items()
         for command, ext in (("solve", "txt"), ("sweep", "csv"))]
CASES += [(f"{fig}_numeric.csv", ["figure", fig, "--numeric", "--alpha-list", "0,0.5,1.3,2.5"])
          for fig in ("fig4", "fig5")]
CASES += [(f"verify_{name}.txt",
           ["verify", str(path)] + (["--alpha-list", "0.5,2"] if name == "multi_group" else []))
          for name, path in SCENARIOS.items()]


@pytest.mark.parametrize("golden, argv", CASES, ids=[name for name, _ in CASES])
def test_output_bytes(golden, argv, capsys, monkeypatch):
    monkeypatch.delenv("TEAMSCHED_TOL", raising=False)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()
