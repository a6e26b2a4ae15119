"""``python -m repro.cli``."""

import sys

from . import main

sys.exit(main())
