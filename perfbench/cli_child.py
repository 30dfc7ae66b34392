"""`python -m slopelab ARGS` with the tracer installed, for traced cli-cold.

Usage: python3 perfbench/cli_child.py OUT_PREFIX ARGS...

Runs ``slopelab.cli.main(ARGS)`` with the same stdout and exit code, and
writes the call sums and cache counts to OUT_PREFIX.json and the spans to
OUT_PREFIX.jsonl.
"""

import importlib
import json
import sys

import tracer as tracing


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    cli = importlib.import_module("slopelab.cli")
    caches = tracing.discover_caches()
    before = tracing.cache_snapshot(caches)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"trace": tracer.summary(),
                       "caches": tracing.cache_delta(before, tracing.cache_snapshot(caches))},
                      fh)
        tracer.write_spans(prefix + ".jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main())
