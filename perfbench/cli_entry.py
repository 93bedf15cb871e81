"""The ``manalyzer`` console command, run from a checkout's ``src/``.

With ``PERFBENCH_TRACE`` set to a file, calls into manalyzer are traced
and the spans are written there when the command exits.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from manalyzer.cli import main  # noqa: E402

if __name__ == "__main__":
    trace_file = os.environ.get("PERFBENCH_TRACE")
    if not trace_file:
        sys.exit(main())
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        sys.exit(main())
    finally:
        tracer.restore()
        tracing.dump_spans(tracer.take(), Path(trace_file))
