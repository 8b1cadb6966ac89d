"""Benchmark of rotagraph: one workload, one run, every result checked exactly.

    python3 bench/run.py --workload {geometry,cli} --seed N \
        --seconds S --trace {0,1}

Workloads (the reasons are in BENCHMARK.json):

* ``geometry``: equidistant points, edge preservation under rational
  rotations, fixed points and witness paths, in one fresh interpreter per
  pass (bench/workloads.py, bench/worker.py).
* ``cli``: one ``python -m rotagraph.cli`` process per call
  (bench/cli_mix.py).

Each run is a closed loop with one client: an operation is sent only after
the previous one returned; no threads, no pools.  The seed only drives the
inputs.

A run is a fixed list of operations sized from S (see OPS_PER_S), so it
measures for about S seconds at the commit that introduced the benchmark.
``--trace 0`` times the list in several passes (see PASSES), scales every
time to the reference speed (bench/hostspeed.py) and prints the end-to-end
metrics.  ``--trace 1`` runs the list twice, untraced and then
with every layer's public functions wrapped (bench/tracer.py), and prints
the per-layer metrics, whose counts repeat at a fixed seed; the difference
in ops_per_s between the two is the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, per-kind
latencies, named operations, failures) goes to bench/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata, util
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOADS = ("geometry", "cli")
IMPORT_PROBES = 5
# A timed run makes PASSES passes over one fixed list of operations, each
# pass in fresh processes (same inputs, same cache state), and times every
# operation by its median over the passes, at the reference speed (see
# hostspeed).
PASSES = {"geometry": 8, "cli": 3}
# Operations per second of a timed run, counting every pass and process
# start, at the commit that introduced the benchmark (2-core Xeon VM).  The
# list holds seconds * rate / passes operations, so a run takes about
# --seconds there; fixing the count rather than the time makes both commits
# of a comparison do identical work.
OPS_PER_S = {"geometry": 4.8, "cli": 0.78}
CHILD_TIMEOUT_S = 150
CLI_CALL_TIMEOUT_S = 60


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=timeout)


def fatal(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


# -- environment -------------------------------------------------------------

def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
        "gmpy2": util.find_spec("gmpy2") is not None,
        "SYMPY_GROUND_TYPES": os.environ.get("SYMPY_GROUND_TYPES"),
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- probes --------------------------------------------------------------------

def setup_probe():
    """Wall time of ``python -m rotagraph.cli --help`` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = run_child([sys.executable, "-m", "rotagraph.cli", "--help"])
    if proc.returncode != 0:
        fatal(f"set-up probe failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def import_seconds():
    """Median (sympy import, rotagraph.cli import including sympy) times."""
    code = ("import time; t0 = time.perf_counter(); import sympy; "
            "t1 = time.perf_counter(); import rotagraph.cli; "
            "print(t1 - t0, time.perf_counter() - t0)")
    sympy_s, cli_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = run_child([sys.executable, "-c", code])
        if proc.returncode != 0:
            fatal(f"import probe failed:\n{proc.stderr}")
        a, b = map(float, proc.stdout.split())
        sympy_s.append(a)
        cli_s.append(b)
    return statistics.median(sympy_s), statistics.median(cli_s)


# -- geometry --------------------------------------------------------------------

def operations(workload, seconds):
    return max(1, round(seconds * OPS_PER_S[workload] / PASSES[workload]))


def geometry_pass(seed, ops, trace=None):
    """One worker process; its ``setup_s`` is the time from spawning it until
    rotagraph was imported in it."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(seed), str(ops)]
    if trace:
        cmd += ["--trace", str(trace)]
    try:
        spawned = time.perf_counter()
        proc = run_child(cmd)
    except subprocess.TimeoutExpired:
        fatal(f"worker did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fatal(f"worker failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned
    out["ops"] = [{"kind": k, "s": s, "ok": ok, "error": e, "ref_s": ref}
                  for (k, s, ok, e), ref in zip(out["ops"], out["reference_s"])]
    return out


# -- cli workload ------------------------------------------------------------------

def _cli_call(call, trace_json=None):
    if trace_json is None:
        cmd = [sys.executable, "-m", "rotagraph.cli", *call.argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_json), *call.argv]
    t0 = time.perf_counter()
    try:
        proc = run_child(cmd, timeout=CLI_CALL_TIMEOUT_S)
        rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stdout, stderr = None, "", "timeout"
    return {"kind": call.kind, "s": time.perf_counter() - t0, "rc": rc,
            "stdout": stdout, "stderr": stderr, "call": call}


def cli_loop(seed, ops, trace_dir=None):
    """The first `ops` calls, each after one hostspeed.process_reference()
    (``ref_s``)."""
    import cli_mix
    stream = cli_mix.calls(seed)
    done = []
    while len(done) < ops:
        trace_json = None if trace_dir is None else trace_dir / f"call{len(done)}.json"
        ref = hostspeed.process_reference()
        done.append(dict(_cli_call(next(stream), trace_json), ref_s=ref))
    return done


def check_cli(records, checker):
    """Score each CLI call: contract first, then the exact answer."""
    import cli_mix
    for r in records:
        call = r.pop("call")
        err = "timeout" if r["rc"] is None else \
            cli_mix.contract_error(call, r["rc"], r["stdout"], r["stderr"])
        r["contract_ok"] = err is None
        if err is None:
            try:
                if not checker.check(call, json.loads(r["stdout"])):
                    err = "wrong answer"
            except Exception as e:    # a crash in the check scores a failure
                err = f"check raised {type(e).__name__}: {e}"
        r["ok"] = err is None
        r["error"] = err
        r["argv"] = call.argv
        if r["ok"]:
            del r["stderr"]
    return records


# -- metrics -------------------------------------------------------------------------

def latency_summary(samples):
    """Median and tail latency of every timed execution.  The tail is the
    highest sample with ten samples beyond it; with fewer than 21 samples
    (tiny runs only) that would not lie above the median, and the tail is
    the maximum."""
    lat = sorted(samples)
    n = len(lat)
    rank = n - 11 if n >= 21 else n - 1
    return {"p50_ms": 1e3 * statistics.median(lat), "tail_ms": 1e3 * lat[rank],
            "tail_percentile": 100.0 * (rank + 1) / n, "samples": n,
            "samples_beyond_tail": n - 1 - rank}


def by_kind(ops):
    out = {}
    for o in ops:
        out.setdefault(o["kind"], []).append(o["s"])
    return {k: {"count": len(v), "median_ms": 1e3 * statistics.median(v),
                "max_ms": 1e3 * max(v)} for k, v in sorted(out.items())}


def ops_per_s(ops, nominal):
    """Verified operations per second of one pass, at the reference speed."""
    ops = scaled([ops], nominal)[0]
    return sum(o["ok"] for o in ops) / sum(o["s"] for o in ops)


def median_of(passes):
    """Per operation, the median of its times over several passes over the
    same operations in fresh processes (same inputs, same cache state); an
    operation is ok only when it passed its check in every pass."""
    out = []
    for recs in zip(*passes):
        bad = [r for r in recs if not r["ok"]]
        out.append(dict(recs[0], s=statistics.median(r["s"] for r in recs),
                        ok=not bad, error=bad[0]["error"] if bad else None))
    return out


def scaled(passes, nominal):
    """Each operation's time at the reference speed (see hostspeed)."""
    out = []
    for ops in passes:
        factors = hostspeed.local_factors([o["ref_s"] for o in ops], nominal)
        out.append([dict(o, s=o["s"] * f) for o, f in zip(ops, factors)])
    return out


def summarise(passes, setups, peak_rss):
    """End-to-end metrics from per-pass operation records and set-up times:
    throughput from each operation's median time, latency over every
    execution in every pass."""
    ops = median_of(passes)
    lat = latency_summary(o["s"] for p in passes for o in p)
    attempted, ok = len(ops), sum(o["ok"] for o in ops)
    metrics = {
        "ops_per_s": ok / sum(o["s"] for o in ops),
        "latency_p50_ms": lat["p50_ms"],
        "latency_tail_ms": lat["tail_ms"],
        "setup_s": statistics.median(setups),
        "ok_ratio": ok / attempted,
        "peak_rss_mb": peak_rss,
    }
    return metrics, ops, lat


def timed_run(workload, seed, seconds):
    """End-to-end metrics at the reference speed, from several passes.  The
    record keeps the same metrics from the unscaled times."""
    n_ops = operations(workload, seconds)
    n_passes = PASSES[workload]
    record = {"operations": n_ops, "passes": n_passes}
    if workload == "cli":
        import cli_mix

        nominal = hostspeed.PROCESS_REFERENCE_S

        def probe():
            refs = [hostspeed.process_reference() for _ in range(3)]
            return setup_probe(), hostspeed.factor(refs, nominal)

        # a set-up probe before each pass and after the last, so that the
        # probes sample the whole run
        setups, passes = [probe()], []
        for _ in range(n_passes):
            passes.append(cli_loop(seed, n_ops))
            setups.append(probe())
        first, *others = passes
        peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        defects = [(name, _cli_call(call)) for name, call in cli_mix.defect_calls()]
        sys.path.insert(0, str(SRC))
        checker = cli_mix.Checker()
        check_cli(first, checker)
        check_cli([r for _, r in defects], checker)
        for again in others:
            # the CLI is deterministic: a repeat must print the same bytes
            for a, r in zip(first, again):
                r["ok"] = a["ok"] and (r["rc"], r["stdout"]) == (a["rc"], a["stdout"])
                r["error"] = a["error"] if not a["ok"] else \
                    None if r["ok"] else "output differs between passes"
                del r["call"]
        for r in [r for p in passes for r in p] + [r for _, r in defects]:
            r.pop("stdout", None)
            r.pop("stderr", None)
    else:
        nominal = hostspeed.REFERENCE_S
        passes, setups, peak_rss = [], [], 0.0
        for _ in range(n_passes):
            out = geometry_pass(seed, n_ops)
            passes.append(out["ops"])
            # the worker's set-up precedes its first operations
            setups.append((out["setup_s"], hostspeed.factor(out["reference_s"][:3])))
            peak_rss = max(peak_rss, out["peak_rss_mb"])
            record["polys_cache"] = out["polys_cache"]
    metrics, ops, lat = summarise(scaled(passes, nominal), [s * f for s, f in setups],
                                  peak_rss)
    record["unscaled_metrics"] = summarise(passes, [s for s, _ in setups], peak_rss)[0]
    if workload == "cli":
        named = {"eval_deg25": next(o for o in ops if o["kind"] == "eval_deg25")}
        # the defect calls run right after the last probe
        named.update((name, dict(r, s=r["s"] * setups[-1][1])) for name, r in defects)
        record["named_operations"] = {
            name: {"ms": 1e3 * r["s"], "ok": r["ok"], "error": r["error"]}
            for name, r in named.items()}
    record.update(latency=lat, by_kind=by_kind(ops),
                  ops_ms=[(o["kind"], 1e3 * o["s"]) for o in ops],
                  failures=[o for o in ops if not o["ok"]])
    attempted = len(ops)
    return metrics, attempted, attempted - sum(o["ok"] for o in ops), record


def traced_run(workload, seed, seconds, names):
    import tracer
    n_ops = operations(workload, seconds)
    tag = f"{workload}-seed{seed}-trace"
    record = {"operations": n_ops}
    sympy_s, cli_s = import_seconds()
    extra = {"cli.import_s": cli_s, "cli.import_sympy_s": sympy_s,
             "cli.compute_s": 0.0, "cli.contract_violations": 0}
    if workload == "cli":
        import cli_mix
        trace_dir = RESULTS / tag
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        nominal = hostspeed.PROCESS_REFERENCE_S
        plain = cli_loop(seed, n_ops)
        ops = cli_loop(seed, n_ops, trace_dir=trace_dir)
        defects = [_cli_call(call, trace_dir / f"defect{i}.json")
                   for i, (_, call) in enumerate(cli_mix.defect_calls())]
        sys.path.insert(0, str(SRC))
        checker = cli_mix.Checker()
        for batch in (plain, ops, defects):
            check_cli(batch, checker)
        spans, observed = {}, {}
        cache = {"hits": 0, "misses": 0, "entries": 0}
        for path in sorted(trace_dir.glob("*.json")):
            child = json.loads(path.read_text())
            tracer.merge(spans, {k: tuple(v) for k, v in child["spans"].items()})
            for k, v in child["observed"].items():
                observed[k] = max(observed.get(k, 0), v) if k.endswith("_max") \
                    else observed.get(k, 0) + v
            for k in cache:
                cache[k] += child["polys_cache"][k]
            extra["cli.compute_s"] += child["compute_s"]
        extra["cli.contract_violations"] = sum(not r["contract_ok"] for r in ops + defects)
        record["defects"] = {name: r["error"] for (name, _), r
                             in zip(cli_mix.defect_calls(), defects)}
    else:
        RESULTS.mkdir(parents=True, exist_ok=True)
        nominal = hostspeed.REFERENCE_S
        plain = geometry_pass(seed, n_ops)["ops"]
        out = geometry_pass(seed, n_ops, trace=RESULTS / f"{tag}.npz")
        ops = out["ops"]
        spans = {k: tuple(v) for k, v in out["spans"].items()}
        observed, cache = out["observed"], out["polys_cache"]
    metrics = tracer.layer_metrics(names, spans, observed, cache)
    untraced, traced = ops_per_s(plain, nominal), ops_per_s(ops, nominal)
    extra["trace.overhead_ops_per_s"] = untraced - traced
    metrics.update({k: v for k, v in extra.items() if k in names})
    missing = [n for n in names if n not in metrics]
    if missing:
        fatal(f"no rule for per-layer metrics {missing}")
    all_ops = plain + ops
    record.update(untraced_ops_per_s=untraced, traced_ops_per_s=traced, polys_cache=cache,
                  spans=spans, failures=[o for o in all_ops if not o["ok"]])
    failed = sum(not o["ok"] for o in all_ops)
    return metrics, len(all_ops), failed, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "rotagraph" / "__init__.py").is_file():
        fatal(f"no rotagraph sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fatal(f"cannot read BENCHMARK.json: {e}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    if args.trace:
        metrics, attempted, failed, record = traced_run(
            args.workload, args.seed, args.seconds, list(units))
    else:
        metrics, attempted, failed, record = timed_run(
            args.workload, args.seed, args.seconds)

    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed), metrics=metrics)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))

    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:34s} {value:14.6g} {units[name]}")
    if "latency" in record:
        lat = record["latency"]
        print(f"{args.workload:9s} latency_tail_ms is p{lat['tail_percentile']:.1f} "
              f"of {lat['samples']} samples ({lat['samples_beyond_tail']} beyond)")
    for name, r in record.get("named_operations", {}).items():
        print(f"{args.workload:9s} {name}: {r['ms']:.0f} ms, "
              f"{'ok' if r['ok'] else 'FAILED: ' + str(r['error'])}")
    print(f"{args.workload:9s} failed {failed} of {attempted}; record in "
          f"{out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
