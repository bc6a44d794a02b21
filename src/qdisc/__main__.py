"""``python -m qdisc``: the command line of ``qdisc.cli``, with its exit code."""

import sys

from .cli import main

if __name__ == "__main__":  # an import, as of every module by the tests, runs nothing
    sys.exit(main())
