"""`python -m birsphere`: the command line of `birsphere.cli`, for a checkout
that is not installed (run it with `src` on PYTHONPATH)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
