"""``python -m setasp``: the ``setasp`` command line."""

import sys

from .cli import main

sys.exit(main())
