"""``python -m benchmarks.e2e``: the same program as ``run.py``."""

import sys

from benchmarks.e2e import run

run._bootstrap(sys.argv[1:])
sys.exit(run.main())
