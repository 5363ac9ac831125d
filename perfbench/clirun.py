"""Run one mesonbell command the way a user would: ``python3 perfbench/clirun.py curve --preset fig3``.

The package is not installed, so ``src`` goes on the path and
``mesonbell.cli.main`` is called with the arguments.  With PERFBENCH_TRACE set
to a file name, the call runs under a Tracer (import excluded) and its spans
are written to that file as JSON.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mesonbell.cli import main  # noqa: E402

trace_path = os.environ.get("PERFBENCH_TRACE")
if not trace_path:
    raise SystemExit(main(sys.argv[1:]))

from tracer import Tracer  # noqa: E402

tracer = Tracer(tag=f"p{os.getpid()}.")
tracer.install()
name = "cli." + (sys.argv[1] if len(sys.argv) > 1 else "none")
try:
    code = tracer.call(name, main, sys.argv[1:])
finally:
    tracer.uninstall()
    Path(trace_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
raise SystemExit(code)
