"""Traced stand-in for ``python -m irgames.cli``.

Usage: python3 perfbench/cli_child.py <irgames cli arguments...>

Runs the CLI with the benchmark's layer tracer installed, then writes one
line ``PERFBENCH_LAYERS {json}`` to standard error: the time to import
``irgames.cli`` and the calls and self time of every layer.  Standard
output and the exit code are the CLI's own.
"""

import json
import sys
import time

start = time.perf_counter()
import irgames.cli  # noqa: E402  (the import is what is being timed)

import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402  (this file's directory is on sys.path)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = irgames.cli.cli_main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        layers = {name: s.as_dict() for name, s in tracer.stats.items()}
        print("PERFBENCH_LAYERS " + json.dumps({"import_s": import_s, "layers": layers}),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
