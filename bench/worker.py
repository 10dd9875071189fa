"""One measured cbilab invocation in a fresh, single-threaded process.

    python3 bench/worker.py RESULT_JSON [DOCUMENT OUT_DIR [SPANS_JSON]]

With only RESULT_JSON the process times the library import and exits; this
is a set-up sample.  With a document it then runs
``cbilab.cli.main(["verify", DOCUMENT, "--out", OUT_DIR])`` and records wall
time, CPU time and peak resident memory.  With SPANS_JSON the call runs
under the tracer, whose spans are written there and whose per-layer metrics
join the result.  The parent (run.py) sets the thread-count variables.
"""

import time

_IMPORT_START = time.perf_counter()
import numpy  # noqa: E402  (timed: every CLI invocation pays these imports)
import scipy  # noqa: E402
from cbilab import cli  # noqa: E402

SETUP_S = time.perf_counter() - _IMPORT_START

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run_verify(document: str, out_dir: str, spans_path: str | None) -> dict:
    tracer = None
    if spans_path is not None:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    with (tracer or contextlib.nullcontext()), open(os.devnull, "w") as sink, \
            contextlib.redirect_stdout(sink):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(["verify", document, "--out", out_dir])
        except Exception:  # an uncaught library error fails every row; keep the timing
            traceback.print_exc()
            code = -1
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
    result = {"exit_code": code, "verify_s": wall, "verify_cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
        result["layers"] = layer_metrics(tracer.spans, tracer.counters)
    return result


def main(argv) -> int:
    result = {"setup_s": SETUP_S, "numpy": numpy.__version__, "scipy": scipy.__version__}
    if len(argv) > 1:
        result.update(run_verify(argv[1], argv[2], argv[3] if len(argv) > 3 else None))
    with open(argv[0], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
