"""Smoke test of the benchmark: each workload at minimal size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()

import workloads  # noqa: E402
from teamsched import closed_form  # noqa: E402


def _bench(monkeypatch, capsys, workload: str, trace: int, ops: int) -> tuple[str, dict]:
    """One run of ``ops`` ops (untraced) or one op (traced); its stdout and result."""
    spec = workloads.WORKLOADS[workload]
    monkeypatch.setitem(workloads.WORKLOADS, workload, dataclasses.replace(spec, min_ops=ops))
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_named_metric_prints_with_its_unit(monkeypatch, capsys, workload, trace):
    out, result = _bench(monkeypatch, capsys, workload, trace, ops=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"  {name} = " in out and out.split(f"  {name} = ")[1].split("\n")[0].endswith(unit)


class _Shifted:
    """Stands in for ``closed_form`` with every value moved by one."""

    def __getattr__(self, name):
        fn = getattr(closed_form, name)
        return lambda *args, **kwargs: fn(*args, **kwargs) + 1.0


def test_reference_mismatch_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "closed_form", _Shifted())
    out, result = _bench(monkeypatch, capsys, "team_linear", 0, ops=3)
    assert result["failed"] == result["attempted"] == 3
    assert "failed_frac=1 " in out
    assert result["metrics"]["passed_frac"]["value"] == 0.0
    assert result["correct"] is False
