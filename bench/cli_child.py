"""One coalgkit command-line invocation, run the way the console script runs it.

    python3 bench/cli_child.py -- ARGS...              # coalgkit ARGS...
    python3 bench/cli_child.py --trace OUT.json -- ARGS...
    python3 bench/cli_child.py --import-only           # prints import seconds

The kernel is imported from the `src/` directory next to this benchmark.
With --trace the child times the import of `coalgkit.cli`, installs the
layer wrappers, runs the command and writes its spans to OUT.json.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--import-only"]:
        start = time.perf_counter()
        import coalgkit.cli  # noqa: F401

        print(repr(time.perf_counter() - start))
        return 0
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_path is None:
        from coalgkit.cli import main as cli_main

        return cli_main(argv)
    start = time.perf_counter()
    import coalgkit.cli

    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = coalgkit.cli.main(argv)
    finally:
        tracer.active = False
        tracer.write(trace_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
