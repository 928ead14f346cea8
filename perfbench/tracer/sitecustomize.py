"""Installs the benchmark's layer spans in every traced server process.

Python imports ``sitecustomize`` at start-up from the first directory
on ``sys.path`` that has one.  The traced run puts this directory first
on the ``PYTHONPATH`` of the server it launches; pool workers inherit
that ``PYTHONPATH`` through the supervisor, so they are traced too.
Outside a traced run (``PERFBENCH_TRACE_DIR`` unset) it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import tracing

    tracing.install()
