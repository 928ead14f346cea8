"""Traced ``repro serve``: install the layer spans, then run the real CLI.

Usage (from the checkout root, with this directory and ``src`` on
``PYTHONPATH`` and ``PERFBENCH_TRACE_DIR`` naming where spans go)::

    python3 perfbench/tracer/launch.py --snapshot default=PATH --port 0
"""

import sys

import tracing

tracing.install()

from repro.serve.cli import main  # noqa: E402  (after the wrappers)

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
