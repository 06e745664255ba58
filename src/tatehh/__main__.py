"""``python -m tatehh``: the ``tatehh`` command line."""

import sys

from .cli_reports import main

if __name__ == "__main__":
    sys.exit(main())
