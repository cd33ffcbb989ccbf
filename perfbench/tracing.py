"""Per-layer spans for the traced run, recorded from outside the package.

:class:`Tracer` wraps the public functions of each teamsched layer. Every
module attribute that *is* a target function object is rebound to its
wrapper, which covers ``from .solvers import ...`` copies and calls inside a
module alike. A span is ``(name, start, end, parent, op, info)``; spans stay
in memory and are written out when the run ends. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable


def _lattice_points(bound) -> int:
    from teamsched import oracle
    n = bound.arguments["instance"].n
    return oracle.lattice_size(n, round(n / bound.arguments["resolution"]))


def _stackelberg_grid(bound) -> int:
    return int(math.ceil((bound.arguments["n"] - 1) / bound.arguments["grid_resolution"])) + 1


#: (module, function, span name, info from the bound call, info from the result)
TARGETS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("solvers", "solve_wardrop", "solvers.fill", None, None),
    ("solvers", "solve_social_optimum", "solvers.fill", None, None),
    ("solvers", "solve_team_equilibrium", "solvers.team", None,
     lambda report: (report.iterations, report.converged)),
    ("solvers", "equilibrium_residuals", "solvers.certify", None, None),
    ("solvers", "solve_fully_selfish", "solvers.fully_selfish", None, None),
    ("oracle", "grid_search_optimum", "oracle.lattice", _lattice_points, None),
    ("oracle", "verify_strong_security", "oracle.scan", None, None),
    ("oracle", "verify_weak_security", "oracle.scan", None, None),
    ("stackelberg", "solve_stackelberg_numeric", "stackelberg.numeric", _stackelberg_grid, None),
    ("experiments", "load_scenario", "experiments.load", None, None),
    ("experiments", "run_sweep", "experiments.sweep", None, None),
    ("experiments", "sweep_csv", "experiments.sweep", None, lambda text: len(text.encode())),
    ("experiments", "figure_data", "experiments.figure", None, lambda text: len(text.encode())),
    ("cli", "main", "cli", lambda bound: (bound.arguments["argv"] or ["?"])[0], None),
    ("game", "validate", "game.validate", None, None),
]


def _closed_form_targets() -> list[tuple[str, str, str, None, None]]:
    from teamsched import closed_form
    return [("closed_form", name, "closed_form", None, None)
            for name, fn in vars(closed_form).items()
            if inspect.isfunction(fn) and fn.__module__ == closed_form.__name__
            and not name.startswith("_")]


class Tracer:
    """Installs span-recording wrappers on the teamsched layers."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._sites: list[tuple[Any, str, Callable, Callable]] = []
        packages = [m for name, m in sys.modules.items()
                    if name == "teamsched" or name.startswith("teamsched.")]
        for module_name, attr, span, call_info, result_info in TARGETS + _closed_form_targets():
            fn = getattr(sys.modules[f"teamsched.{module_name}"], attr)
            wrapper = self._wrap(fn, span, call_info, result_info)
            for mod in packages:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._sites.append((mod, name, fn, wrapper))

    def _wrap(self, fn, span, call_info, result_info):
        signature = inspect.signature(fn) if call_info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if call_info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = call_info(bound)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span, start, end, parent, self.op, info)
            if result_info:
                self.spans[index] = (span, start, end, parent, self.op, result_info(result))
            return result

        return wrapper

    def install(self) -> None:
        for mod, name, _fn, wrapper in self._sites:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn, _wrapper in self._sites:
            setattr(mod, name, fn)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op", "info")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and self times, as ``{name: (value, unit)}``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        infos: dict[str, list] = defaultdict(list)
        cli_s: dict[str, float] = defaultdict(float)
        scan_solves = 0
        for i, (name, start, end, parent, _op, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if info is not None:
                infos[name].append(info)
            if name == "cli":
                cli_s[info] += end - start
            if name == "solvers.team" and self._has_ancestor(spans, parent, "oracle.scan"):
                scan_solves += 1

        def per(a: float, b: float, scale: float = 1.0) -> float:
            return a / b * scale if b else 0.0

        team = infos["solvers.team"]
        sweeps = [s for s, _ in team]
        lattice_points = sum(infos["oracle.lattice"])
        out = {
            "solvers.fill.calls": (calls["solvers.fill"], "count"),
            "solvers.fill.self_s": (self_s["solvers.fill"], "s"),
            "solvers.fill.us_per_call": (per(self_s["solvers.fill"], calls["solvers.fill"], 1e6), "us"),
            "solvers.fill.calls_per_solve": (per(calls["solvers.fill"], calls["solvers.team"]), "count"),
            "solvers.team.calls": (calls["solvers.team"], "count"),
            "solvers.team.self_s": (self_s["solvers.team"], "s"),
            "solvers.team.sweeps_per_solve": (per(sum(sweeps), len(sweeps)), "count"),
            "solvers.team.sweeps_max": (max(sweeps, default=0), "count"),
            "solvers.unconverged": (sum(1 for _, ok in team if not ok), "count"),
            "solvers.certify.calls": (calls["solvers.certify"], "count"),
            "solvers.certify.self_s": (self_s["solvers.certify"], "s"),
            "solvers.fully_selfish.calls": (calls["solvers.fully_selfish"], "count"),
            "solvers.fully_selfish.self_s": (self_s["solvers.fully_selfish"], "s"),
            "oracle.lattice.calls": (calls["oracle.lattice"], "count"),
            "oracle.lattice.self_s": (self_s["oracle.lattice"], "s"),
            "oracle.lattice.points": (lattice_points, "count"),
            "oracle.lattice.ns_per_point": (per(self_s["oracle.lattice"], lattice_points, 1e9), "ns"),
            "oracle.scan.calls": (calls["oracle.scan"], "count"),
            "oracle.scan.self_s": (self_s["oracle.scan"], "s"),
            "oracle.scan.team_solves": (scan_solves, "count"),
            "stackelberg.numeric.calls": (calls["stackelberg.numeric"], "count"),
            "stackelberg.numeric.self_s": (self_s["stackelberg.numeric"], "s"),
            "stackelberg.numeric.grid_points": (sum(infos["stackelberg.numeric"]), "count"),
            "closed_form.calls": (calls["closed_form"], "count"),
            "closed_form.self_s": (self_s["closed_form"], "s"),
            "experiments.load.self_s": (self_s["experiments.load"], "s"),
            "experiments.sweep.self_s": (self_s["experiments.sweep"], "s"),
            "experiments.figure.self_s": (self_s["experiments.figure"], "s"),
            "experiments.csv_bytes": (sum(infos["experiments.sweep"])
                                      + sum(infos["experiments.figure"]), "bytes"),
            "cli.verify.s": (cli_s["verify"], "s"),
            "cli.figure.s": (cli_s["figure"], "s"),
            "cli.sweep.s": (cli_s["sweep"], "s"),
            "cli.solve.s": (cli_s["solve"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
            "game.validate.calls": (calls["game.validate"], "count"),
            "game.validate.self_s": (self_s["game.validate"], "s"),
        }
        return out

    @staticmethod
    def _has_ancestor(spans, index: int, name: str) -> bool:
        while index >= 0:
            if spans[index][0] == name:
                return True
            index = spans[index][3]
        return False
