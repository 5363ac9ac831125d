"""Hash the CLI's and the demos' output, one line per probe.

    python3 tools/output_probes.py [ROOT]

runs each probe below against the checkout at ROOT (default: the one this
file lives in), with ROOT/src first on PYTHONPATH, and prints

    <sha256 of stdout and stderr>  <exit code>  <probe>

So two checkouts give the same output exactly when every probe printed the
same bytes and exit code, and a before/after check is one diff:

    diff <(python3 tools/output_probes.py /path/to/before) <(python3 tools/output_probes.py)

Byte identity holds per numpy build and CPU SIMD level (README), so compare
runs made on one host.  Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig1", "fig2-text", "fig2-caption", "fig3", "fig4")

# A config with a tabulated rho, written to a temporary file for each run; the
# probes name it by this file name, so labels do not depend on where it lives.
CONFIG = "tabulated_rho.json"
TABULATED_RHO = {"preset": "fig3", "rho": {"kind": "tabulated",
                                           "knots": [[0.0, 0.0], [1e-10, 1e-3], [5e-10, 0.0]]}}

PROBES = (
    *(("curve", "--preset", p) for p in PRESETS),
    *(("curve", "--preset", p, "--grid", "0.2:5:100000") for p in ("fig1", "fig4")),
    *(("curve", "--preset", p, "--tb-rule", "0.5*t_a") for p in ("fig3", "fig4")),
    ("curve", "--preset", "fig3", "--time-unit", "seconds"),
    *(("fit", "--preset", p, "--eta", "0.3", "--objective", o, "--out", "-")
      for p in ("fig3", "fig4") for o in ("match_qm", "underbound_qm")),
    ("fit", "--preset", "fig4", "--eta", "0.3", "--tb-rule", "0.5*t_a", "--out", "-"),
    # two chunks: the fit's tables are built with a helper thread, and its CSV comes from them
    ("fit", "--preset", "fig3", "--eta", "0.3", "--grid", "0.2:5:20000", "--out", "-"),
    ("curve", "--config", CONFIG),
    ("mc", "--grid", "1:1:1", "--config", CONFIG),
    *(("mc", "--preset", p, "--seed", s) for p in ("fig1", "fig3", "fig4") for s in ("42", "7")),
    ("thresholds",),
    # error lines: an inadmissible rho at the first grid time, one inside a curve, bad weights
    ("mc", "--grid", "0:0:1", "--rho", "saturate_lower_short"),
    ("curve", "--species", "bmeson", "--rho", "saturate_upper_short"),
    # the same error raised from the second of 7 chunks, with a helper thread on a multi-core host
    ("curve", "--species", "bmeson", "--rho", "saturate_upper_short", "--grid", "0.2:5:100000"),
    ("curve", "--weights", "nan,1,1,1"),
)


def run(root: Path, argv: list[str]) -> tuple[str, int]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                                      os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True)
    digest = hashlib.sha256(b"stdout\0" + done.stdout + b"\0stderr\0" + done.stderr).hexdigest()
    return digest, done.returncode


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / CONFIG
        config.write_text(json.dumps(TABULATED_RHO))
        probes = [(["-m", "mesonbell.cli", *(str(config) if a == CONFIG else a for a in probe)],
                   "mesonbell " + " ".join(probe)) for probe in PROBES]
        probes += [([str(demo.relative_to(root))], str(demo.relative_to(root)))
                   for demo in sorted((root / "demos").glob("*.py"))]
        for argv, label in probes:
            digest, code = run(root, argv)
            print(f"{digest}  {code}  {label}", flush=True)


if __name__ == "__main__":
    main()
