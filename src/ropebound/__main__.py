"""`python -m ropebound ...`: the same command line as the `ropebound` script."""

import sys

from .cli import main

sys.exit(main())
