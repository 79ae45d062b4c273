"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 e2ebench/serve_traced.py <spans.json> serve [options]``.
Runs the ordinary command line entry point in this process, then writes
every span it recorded to ``<spans.json>`` once the server shuts down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    dump = Path(sys.argv[1])
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return repro_main(sys.argv[2:])
    finally:
        recorder.dump(dump)


if __name__ == "__main__":
    sys.exit(main())
