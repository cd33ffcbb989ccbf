"""``python -m teamsched``: the ``teamsched`` command."""
from .cli import main

raise SystemExit(main())
