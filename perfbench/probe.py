"""Cold start of `hfhash.cli sum` with its set-up layers timed from outside.

Run as ``python3 perfbench/probe.py`` with the package importable and the
message on standard input.  Prints the CLI's own digest line, then one
JSON line with the seconds spent importing the CLI, loading the
polynomial system (asset read and parse) and compiling its tables.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import hfhash.cli  # noqa: E402
from hfhash import core  # noqa: E402

timings = {"cli.import_s": perf_counter() - t0}


def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[name] = perf_counter() - start
    return wrapper


# default_params() looks both names up in core at call time
core.load_default_system = timed("system.load_system_s", core.load_default_system)
core.compile_system = timed("evaluator.compile_system_s", core.compile_system)
hfhash.cli.main(["sum"], standalone_mode=False)
sys.stdout.write(json.dumps(timings) + "\n")
