"""Time one set-up of dualreflect in this fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_time.py SUITE_DIR

Prints the seconds taken to import dualreflect, load the suite and load the
prompt templates. Nothing but ``sys`` and ``time`` is imported before the
clock starts, so the whole import chain of dualreflect (``requests``
included) is counted.
"""

import sys
import time

start = time.perf_counter()
from dualreflect import harness, promptkit  # noqa: E402

harness.load_suite(sys.argv[1])
promptkit.default_templates()
elapsed = time.perf_counter() - start
print(repr(elapsed))
