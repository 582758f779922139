"""`python -m macsums`: the command-line front end, as the `macsums` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
