"""Run one ``ratefix`` CLI invocation in this fresh process and time its parts.

Usage: ``python3 bench/child.py RESULT_JSON TRACE -- ARGV...``

Times ``import ratefix.cli`` and ``ratefix.cli.main(ARGV)`` separately; with
TRACE=1 it records spans around ratefix's public functions while ``main``
runs.  RESULT_JSON receives ``import_s``, ``main_s``, ``bookkeeping_s`` and
the spans.  The exit code is ``main``'s.  ``PYTHONPATH`` must point at the
checkout's ``src``.
"""

import json
import sys
from contextlib import nullcontext
from time import perf_counter

from spans import Tracer


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit(__doc__)
    start = perf_counter()
    import ratefix.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    main_s = None
    try:
        with tracer.installed() if trace == "1" else nullcontext():
            start = perf_counter()
            code = ratefix.cli.main(argv)
            main_s = perf_counter() - start
    finally:
        with open(result_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "main_s": main_s,
                       "bookkeeping_s": tracer.bookkeeping_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
