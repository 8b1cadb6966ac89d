"""One pass of the `geometry` workload in a fresh interpreter: a closed loop
with a single client, each operation sent after the previous one returned.

    python3 bench/worker.py SEED K [--trace PATH]

Imports rotagraph first and records the moment it is ready, then runs the
first K operations of ``workloads.schedule``, each after one
``hostspeed.reference()``, and prints one JSON object: ``ready_at``
(``time.perf_counter()`` after the import; it reads the system-wide
monotonic clock, so the parent can subtract its own spawn time),
per-operation (kind, seconds, ok, error), the reference times, peak RSS,
the `polys` cache counters and, when traced, the per-span aggregates (raw
spans go to PATH).
"""

import time

import workloads

runner = workloads.Runner()
ready_at = time.perf_counter()

import argparse   # noqa: E402
import itertools  # noqa: E402
import json       # noqa: E402
import resource   # noqa: E402
import sys        # noqa: E402

import hostspeed  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("seed", type=int)
    ap.add_argument("ops", type=int)
    ap.add_argument("--trace", metavar="PATH")
    args = ap.parse_args()

    call = runner.run
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

        def call(kind, op_args):
            return tracer.run_span("op." + kind, runner.run, kind, op_args)

    ops, refs = [], []
    for kind, op_args in itertools.islice(workloads.schedule(args.seed), args.ops):
        refs.append(hostspeed.reference())
        error = None
        t0 = time.perf_counter()
        try:
            ok = bool(call(kind, op_args))
        except Exception as e:   # a failed operation is scored, never fatal
            ok, error = False, f"{type(e).__name__}: {e}"
        ops.append((kind, time.perf_counter() - t0, ok, error))

    from tracer import polys_cache_info
    out = {
        "ready_at": ready_at,
        "ops": ops,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "polys_cache": polys_cache_info(),
    }
    if tracer is not None:
        out["spans"] = tracer.aggregate()
        out["observed"] = tracer.observed
        tracer.dump(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
