"""One traced CLI call: ``rotagraph.cli.main(argv)`` in this fresh process
with the benchmark's tracer installed after import.

    python3 bench/cli_child.py OUT.json ARGV...

Stdout, stderr and the exit code are the CLI's own.  OUT.json receives the
compute time (wall time after the import), the span aggregates and the
`polys` cache counters; the raw spans go next to it as OUT.npz.
"""

import json
import sys
import time

import rotagraph.cli

import tracer as tracing

t_import = time.perf_counter()


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        return tr.run_span("op.cli", rotagraph.cli.main, argv)
    finally:
        done = time.perf_counter()
        with open(out_path, "w") as f:
            json.dump({"compute_s": done - t_import,
                       "spans": tr.aggregate(),
                       "observed": tr.observed,
                       "polys_cache": tracing.polys_cache_info()}, f)
        tr.dump(out_path[:-len(".json")] + ".npz")


if __name__ == "__main__":
    sys.exit(main())
