"""The CLI subprocesses the tests start import the package from this
checkout's ``src/``, as the tests do through pytest's ``pythonpath``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
