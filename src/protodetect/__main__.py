"""`python -m protodetect <command>`: the same command line as the
`protodetect` script (see cli.py)."""

import sys

from .cli import main

sys.exit(main())
