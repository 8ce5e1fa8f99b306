"""Run one dimspectra config in this fresh process, the way a user runs it:
`dimspectra.cli.main([config])`.

    python3 perfbench/child.py MODE CONFIG RESULT_JSON

MODE is `run` (whole command) or `trace` (whole command with every public
function wrapped by `tracer.py`).  Command dispatch is the moment `cli.build_potential_from`
returns: by then the package is imported, the config parsed and the map
and potential built, and what follows is the command itself.

The record written to RESULT_JSON holds `time.monotonic()` at dispatch and
after `main` returned (CSV and manifest written), main's exit code, and the
process's peak RSS and minor page faults.  The parent takes
set-up time from its own clock at spawn, which is comparable because
CLOCK_MONOTONIC is system-wide.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    mode, config, result_path = sys.argv[1:4]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from dimspectra import cli

    marks: dict[str, float] = {}
    build_potential_from = cli.build_potential_from

    def dispatched(cfg, m):
        phi = build_potential_from(cfg, m)
        marks["dispatch"] = time.monotonic()
        return phi

    record: dict = {}
    tracer = None
    if mode == "trace":
        import tracer as tracing  # beside this file, so already on sys.path

        tracer = tracing.Tracer()
        record["wrapped_functions"] = tracing.install(tracer)
        build_potential_from = cli.build_potential_from
    cli.build_potential_from = dispatched
    code = cli.main([config])
    marks["end"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(
        exit=code,
        dispatch=marks.get("dispatch"),
        end=marks["end"],
        maxrss_kb=usage.ru_maxrss,
        minflt=usage.ru_minflt,
    )
    if tracer is not None:
        record.update(
            calls=tracer.calls,
            total=tracer.total,
            self_time=tracer.self_time,
            counters=tracer.counters,
            spans=tracer.spans,
        )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
