"""``python -m loopcalc``: the command-line interface of :mod:`loopcalc.cli`."""

import sys

from loopcalc.cli import main

sys.exit(main())
