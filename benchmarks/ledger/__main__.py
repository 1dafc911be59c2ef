"""``python -m benchmarks.ledger`` entry point."""

import sys

from benchmarks.ledger.cli import main

if __name__ == "__main__":
    sys.exit(main())
