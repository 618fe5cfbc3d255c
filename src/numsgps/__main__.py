"""``python -m numsgps``: the command line of :mod:`numsgps.cli`."""

from .cli import main

raise SystemExit(main())
