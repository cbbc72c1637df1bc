"""Child process of ``fleet_http``: ``invarnetx serve`` as users run it.

Usage::

    python3 perfbench/serve_child.py [--trace-out FILE --mark FILE] -- \
        serve <registry> --port 0

Runs ``repro.cli.main`` with the arguments after ``--``.  With
``--trace-out`` the per-layer wrappers of perfbench/tracing.py are
installed first; SIGUSR1 then closes the set-up phase (counters are
snapshotted and reset, and ``--mark`` is written once that is done), and
when the server stops on SIGINT both phases are written to the trace
file.  Without it the child is the plain CLI.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    trace_out = mark = None
    if "--trace-out" in own:
        trace_out = Path(own[own.index("--trace-out") + 1])
        mark = Path(own[own.index("--mark") + 1])

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import common

    common.import_program()
    from repro import cli

    if trace_out is None:
        return cli.main(cli_args)

    import tracing

    rec = tracing.Recorder()
    tracing.install(rec)
    phases: dict = {}

    def close_setup(signum, frame):
        phases["setup"] = rec.snapshot()
        rec.reset()
        mark.write_text("ok", encoding="ascii")

    signal.signal(signal.SIGUSR1, close_setup)
    try:
        return cli.main(cli_args)
    finally:
        phases["timed"] = rec.snapshot()
        phases["wrapper_cost_s"] = tracing.wrapper_cost_s()
        trace_out.write_text(json.dumps(phases), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
