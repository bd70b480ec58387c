"""Run ``repro.netserver`` with the ``ctl_mixed`` layer spans installed.

    python3 perfbench/traced_server.py TRACE_OUT [netserver arguments...]

SIGUSR1 opens the measured window and SIGUSR2 closes it.  After the
server drains (SIGTERM), the window's span statistics and the
per-request ``handle_dict`` durations are written to ``TRACE_OUT``.
"""

from __future__ import annotations

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import require_program, write_json  # noqa: E402
from layers import install_ctl  # noqa: E402
from tracing import Tracer, window  # noqa: E402


def main(argv) -> int:
    out_path, server_args = argv[0], argv[1:]
    require_program()
    tracer = Tracer()
    install_ctl(tracer)
    marks = {}

    def mark(name):
        def handler(signum, frame):
            snap = tracer.snapshot()
            snap["cpu_s"] = time.process_time()
            marks[name] = snap
        return handler

    signal.signal(signal.SIGUSR1, mark("start"))
    signal.signal(signal.SIGUSR2, mark("end"))
    from repro.netserver.__main__ import main as serve

    code = serve(server_args)
    if "start" in marks and "end" in marks:
        trace = window(marks["start"], marks["end"])
        trace["cpu_s"] = marks["end"]["cpu_s"] - marks["start"]["cpu_s"]
        write_json(out_path, {"window": trace, "keyed": tracer.keyed})
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
