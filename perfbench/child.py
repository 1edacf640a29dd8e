"""Run one fracvar CLI command in this fresh process and record how it went.

    python3 perfbench/child.py RESULT_JSON RUN_ID TRACE -- <fracvar args>

TRACE 1 wraps every public function of fracvar's layers (tracing.py);
TRACE 0 records only the few spans the end-to-end metrics and checks need.
The result file holds the timings (measured from this process's start,
before fracvar is imported), the exit status, ru_maxrss and the spans.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv) -> int:
    result_path, run_id, trace = argv[0], argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]

    import fracvar.cli

    t_import = time.perf_counter()
    from tracing import IMPORT_SPAN, Tracer, install

    tracer = Tracer(run_id)
    tracer.add_span(IMPORT_SPAN, T0, t_import)
    install(tracer, full=trace)
    status = fracvar.cli.main(cli_args)
    t_end = time.perf_counter()

    spans_path = result_path + ".spans.json"
    tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"run_id": run_id, "t0": T0, "t_import": t_import, "t_end": t_end,
                   "status": status, "spans": spans_path,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
