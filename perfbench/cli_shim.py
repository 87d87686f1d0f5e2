"""Run the coachplan CLI with spans around its layers (the traced run).

    python3 perfbench/cli_shim.py SPANS_JSON GROUP <coachplan arguments>

Times `import coachplan.cli`, installs the tracer, runs `coachplan.cli.main`
and writes the import time and the spans to SPANS_JSON.
"""
import sys
import time

t = time.perf_counter()
import coachplan.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t

import tracing  # noqa: E402


def main():
    spans_path, group, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.group = group
    tracer.install()
    try:
        code = coachplan.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_s=IMPORT_S)
    return code


if __name__ == "__main__":
    sys.exit(main())
