"""``python -m ratefix``: the ``ratefix`` command."""

from .cli import main

raise SystemExit(main())
