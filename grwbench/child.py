"""One `grwsim run` invocation, as a user's shell would start it, with timestamps.

    python3 child.py TIMING_JSON [--setup-only] [--trace SPANS_NPZ] -- <grwsim argv>

The process imports ``grwsim``, parses the config named by ``--config`` and
stamps the end of set-up; it then calls ``grwsim.cli.main`` with the given
arguments, exactly what the ``grwsim`` console script does, and stamps the
end of the run.  Both stamps use CLOCK_MONOTONIC, which the parent shares,
so the parent can take set-up time from the moment it started this process.
With ``--trace`` the span tracer is installed after set-up and its spans
are written when the run ends.  TIMING_JSON receives the stamps, the exit
code of ``main``, the peak resident memory and, when traced, whether every
wrapped function was restored and which targets no longer exist.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, grwsim_argv = argv[:split], argv[split + 1 :]
    timing_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    import grwsim.cli as cli

    cli.parse_scenario_file(grwsim_argv[grwsim_argv.index("--config") + 1])
    timing = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if "--setup-only" not in own:
        tracer = None
        if trace_path is not None:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            timing["rc"] = cli.main(grwsim_argv)
        finally:
            timing["run_done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            if tracer is not None:
                tracer.uninstall()
                timing["restored"] = tracer.restored()
                timing["not_traced"] = tracer.missing
                tracer.dump(trace_path)
        timing["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(timing_path, "w") as fh:
        json.dump(timing, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
