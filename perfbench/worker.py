"""One fresh interpreter serving one workload's request sequence.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR

MODE is ``setup`` (import the package, build the inputs, stop), ``run`` (then
serve the sequence untraced) or ``trace`` (serve it with spans recorded, and
write them to DIR).  The
last line of stdout is one JSON object; ``ready_at`` is a CLOCK_MONOTONIC
reading, comparable with the parent's clock, taken when the first request is
ready.  ``run.py`` starts this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def serve(requests, tracer=None):
    """Serve the requests in order, one client, and check every answer.

    Returns one record per request.  A request fails when it raises, or when
    its check (run untimed, outside any trace) raises.
    """
    from workloads import CheckFailed

    records = []
    for req in requests:
        if tracer is not None:
            tracer.begin(req.name)
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            out, error = req.run(), None
        except Exception as exc:  # a request that raises is a failed request
            out, error = None, f"raised {exc!r}"
        seconds, cpu = time.perf_counter() - t0, _cpu() - cpu0
        if tracer is not None:
            tracer.end()
            if hasattr(out, "stdout"):
                tracer.measured["cli.stdout_bytes"] += len(out.stdout.encode())
        if error is None:
            try:
                req.check(out)
            except CheckFailed as exc:
                error = str(exc)
            except Exception as exc:  # a check that cannot read the answer fails it
                error = f"check raised {exc!r}"
        records.append(
            {"name": req.name, "seconds": seconds, "cpu_s": cpu, "cold": req.cold, "error": error}
        )
    return records


def blas_threads():
    """Thread count of each OpenBLAS that numpy and scipy ship, or {}."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[pkg.__name__] = {"library": lib.name, "threads": getter()}
                    break
    return found


def library_record():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}).get("name"),
        "lapack": deps.get("lapack", {}).get("name"),
        "blas_threads": blas_threads(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import rih.cli  # noqa: F401  (the package import is part of set-up)

    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    requests = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"ready_at": _clock(), "import_s": import_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        result["records"] = serve(requests, tracer)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["libraries"] = library_record()
        if tracer is not None:
            counts, measured = tracer.metrics()
            measured["cli.import_s"] = import_s
            result["counts"], result["measured"] = counts, measured
            tracer.write_spans(Path(args.workdir) / f"spans-{args.workload}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
