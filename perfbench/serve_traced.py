"""Launch ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py SPANS_JSON serve [serve flags...]

Installs the same wrappers as an in-process traced round, enters the
``serve`` CLI, and after the SIGTERM drain writes every span and counter
to ``SPANS_JSON``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    target, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    recorder = spans.Recorder()
    spans.install(recorder)
    code = cli.main(argv)
    with open(target, "w") as handle:
        json.dump({"spans": recorder.spans, "counts": dict(recorder.counts)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
