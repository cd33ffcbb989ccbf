"""The CLI contract on malformed input: mutated scenarios through every command.

Fifty seeded copies of the shipped scenarios and the ``multi_group`` golden
each have one or two fields (a container, a list item or a leaf) replaced by
a hostile value. ``solve``, ``sweep`` and ``verify`` run on every copy
in-process. Each run exits 0, 1 or 2, never 3 (usage) and never with an
exception; exit 1 reports exactly one ``error:`` line, and exit 0 prints no
NaN or infinity. No draw is filtered out, so a gate that moves an exit code
shows up here as a failing draw.
"""

import copy
import json
import math
import random
import re
from pathlib import Path

from teamsched import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "scenarios").glob("*.json")) + [ROOT / "tests" / "golden" / "multi_group.json"]
MUTATIONS = (math.nan, math.inf, -math.inf, 1e-320, 1e308, 2**70, -1, 0, -0.0, "x", None, [], {},
             True, 2.5)
COMMANDS = (("solve",), ("sweep",), ("verify", "--alpha-list", "0.5,2"))
COPIES = 50
SEED = 14
NONFINITE = re.compile(r"\b-?(nan|inf|infinity)\b", re.IGNORECASE)


def _fields(node, path=()):
    """The path of every field and list item below ``node``, parents first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutants(rng):
    docs = [json.loads(path.read_text()) for path in SOURCES]
    for _ in range(COPIES):
        doc = copy.deepcopy(rng.choice(docs))
        for _ in range(rng.choice((1, 2))):
            *parents, key = rng.choice(list(_fields(doc)))
            node = doc
            for p in parents:
                node = node[p]
            node[key] = rng.choice(MUTATIONS)
        yield doc


def test_mutated_scenarios_keep_the_exit_contract(tmp_path, capsys):
    failures = []
    for k, doc in enumerate(_mutants(random.Random(SEED))):
        path = tmp_path / f"mutant{k}.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = cli.main([*command, str(path)])
            out, err = capsys.readouterr()
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if (code not in (0, 1, 2) or (code == 1 and len(errors) != 1)
                    or (code == 0 and NONFINITE.search(out))):
                failures.append((command[0], code, json.dumps(doc), err, out))
    assert failures == []
