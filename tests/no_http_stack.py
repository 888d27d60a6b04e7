"""Run the dualreflect CLI with the HTTP, TLS and thread-pool modules blocked.

    PYTHONPATH=src python -S tests/no_http_stack.py eval --suite suites/demo --jobs 1

Each blocked module is set to None in ``sys.modules``, so importing it raises
ImportError, even if a site hook loaded it earlier: a scripted ``run``,
``replay`` or ``eval`` that exits 0 here never needed any of them. Importing
the package must not load ``statistics`` or ``dataclasses`` either (the
latter pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, a large share
of a cold start); ``-S`` keeps site hooks from loading them first.
"""

import sys

BLOCKED = ("http.client", "ssl", "email", "socket", "select", "concurrent.futures")

for name in BLOCKED:
    sys.modules[name] = None

import dualreflect  # noqa: E402
import dualreflect.cli  # noqa: E402

for name in ("statistics", "dataclasses"):
    if name in sys.modules:
        sys.exit(f"importing dualreflect loaded {name}")
sys.exit(dualreflect.cli.main(sys.argv[1:]))
