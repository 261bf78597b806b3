"""One untraced CLI run in a fresh interpreter.

Usage: python3 perfbench/child.py <result.json> [<cli argument>...]

The parent notes the monotonic clock just before it starts this process;
``ready`` below, taken once ``import smoothcert`` returns, closes the
set-up interval. With no CLI arguments only the set-up is measured.
"""
import time

import smoothcert  # noqa: F401  (the import is what set-up time measures)

ready = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from smoothcert.cli import main  # noqa: E402


def run(result_path: str, argv: list) -> None:
    result = {"ready_monotonic": ready}
    if argv:
        started = time.perf_counter()
        result["exit_code"] = main(argv)
        result["wall_s"] = time.perf_counter() - started
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2:])
