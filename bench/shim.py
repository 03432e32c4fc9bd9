"""Traced stand-in for ``python -m pspin``, used by the traced cli-cold run.

    python bench/shim.py TRACE_PATH <pspin arguments>

Times the import of ``pspin.cli`` (span ``cli.import``) and the command
``pspin.cli.main(argv)`` (span ``cli.command``) with the layer wrappers
installed, and writes the spans, their per-layer sums and the CLOCK_MONOTONIC
readings at entry and at the end to TRACE_PATH, from which ``run.py`` gets
interpreter start-up and exit time.  Exits with the command's exit code;
stdout is the command's own.
"""

import time

ENTERED = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    trace_path = Path(sys.argv[1])
    tracer = tracing.Tracer(trace_path.stem)
    start = time.perf_counter()
    import pspin.cli

    tracer.add_span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        with tracer.span("cli.command", layer="cli"):
            code = pspin.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(trace_path, layers=tracer.layer_metrics(), caches=tracing.cache_counts(),
                    entered=ENTERED, leaving=time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main())
