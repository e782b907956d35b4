"""Request-latency benchmark of ``repro.api.induce`` on four routes.

Run from the repository root::

    python3 perfbench/run.py --workload inproc_cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list          # every metric, unit, direction

One caller sends a seeded region family (``family.py``) closed loop
through one route (``routes.py``) for ``--seconds``, in whole passes, and
checks every reply with the benchmark's own checker (``check.py``).  With
``--trace 0`` the run is unwrapped and untraced and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
(``layers.py``) from a traced second half, after an untraced first half
that gives the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The
per-layer self-time table goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

WORKLOADS = ("inproc_cold", "deadline_cold", "node_repeat", "router_repeat")
#: Each run measures at least this many requests of each kind (first sends
#: and repeats), so ten samples lie beyond every p90 reported.
MIN_SAMPLES = 100
SETUP_PROBES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quantile_ms(samples, q: float) -> float:
    """Nearest-rank ``q`` quantile of latency, in ms, with jitter taken out.

    Each request's latency is replaced by the median latency of the same
    region's requests of the same kind (first send or repeat) in the run;
    those copies do identical work in different passes.  Taken on the raw
    latencies, p90 on the cold routes falls exactly where the family's
    fast regions end and its slow ones begin, and swung by half its value
    between identical runs.
    """
    groups = {}
    for sample in samples:
        key = (sample.request.slot, sample.request.first)
        groups.setdefault(key, []).append(sample.latency_s)
    ranked = sorted((statistics.median(v), len(v)) for v in groups.values())
    target = math.ceil(q * len(samples))
    seen = 0
    for median, count in ranked:
        seen += count
        if seen >= target:
            return median * 1e3
    return ranked[-1][0] * 1e3


class Sample:
    __slots__ = ("request", "latency_s", "result", "error")

    def __init__(self, request, latency_s, result, error) -> None:
        self.request = request
        self.latency_s = latency_s
        self.result = result
        self.error = error


def run_passes(route, seed, family, seconds, min_passes, tracer=None):
    """Whole passes until the next one would overrun ``seconds``.

    Returns ``(samples, pass_walls)``: every request, and each pass's wall
    time in seconds.
    """
    from family import stream
    from layers import ROOT
    from repro.obs import span

    samples = []
    walls = []
    while True:
        requests = stream(seed, family, len(walls), route.repeats)
        started = time.perf_counter()
        for request in requests:
            t0 = time.perf_counter()
            result = error = None
            try:
                if tracer is None:
                    result = route.submit(request.region)
                else:
                    with span(ROOT, tracer):
                        result = route.submit(request.region, tracer)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            samples.append(Sample(request, time.perf_counter() - t0,
                                  result, error))
        walls.append(time.perf_counter() - started)
        if len(walls) >= min_passes and sum(walls) + walls[-1] > seconds:
            return samples, walls


def check_samples(samples, pool) -> int:
    """Run the output check on every sample; returns the failure count."""
    from check import check_result
    from repro.core.costmodel import maspar_cost_model

    model = maspar_cost_model()
    failed = 0
    for sample in samples:
        if sample.error is None:
            problems = check_result(
                sample.request.region, model, sample.result,
                pool[sample.request.pool_index]["cost"])
            if problems:
                sample.error = "; ".join(problems[:3])
        if sample.error is not None:
            failed += 1
            print(f"FAILED pool region {sample.request.pool_index}: "
                  f"{sample.error}", file=sys.stderr)
    return failed


def min_passes(route, family) -> int:
    return math.ceil(MIN_SAMPLES / (len(family) * route.repeats))


def warm_up(route) -> None:
    from family import warmup_regions

    for region in warmup_regions():
        route.submit(region)


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh processes booting the route until ready."""
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            line = probe.stdout.readline()
            ready = time.perf_counter() - started
        finally:
            probe.stdin.close()
            probe.wait(timeout=60)
            probe.stdout.close()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed")
        times.append(ready)
    return statistics.median(times)


def setup_probe(workload: str) -> int:
    from routes import ROUTES

    route = ROUTES[workload]()
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        route.close()
    return 0


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_run(workload, seed, seconds, pool, family):
    from routes import ROUTES

    route = ROUTES[workload]()
    try:
        warm_up(route)
        samples, walls = run_passes(route, seed, family, seconds,
                                    min_passes(route, family))
    finally:
        route.close()
    rss = peak_rss_mb()
    failed = check_samples(samples, pool)
    ok = [s for s in samples if s.error is None]
    first = [s for s in samples if s.request.first]
    repeat = [s for s in samples if not s.request.first]
    unique = [s.result for s in ok if s.request.first]
    metrics = {
        "lat_p50_ms": quantile_ms(samples, 0.5),
        "lat_p90_ms": quantile_ms(samples, 0.9),
        "req_per_s": len(samples) / sum(walls),
        "first_p50_ms": quantile_ms(first, 0.5),
        "repeat_p50_ms": quantile_ms(repeat, 0.5),
        "repeat_p90_ms": quantile_ms(repeat, 0.9),
        "speedup_geo": math.exp(statistics.fmean(
            math.log(r.speedup_vs_serial) for r in unique)) if unique else 0.0,
        "optimal_frac": sum(r.optimal for r in unique) / len(unique)
        if unique else 0.0,
        "ok_frac": 1 - failed / len(samples),
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(workload),
    }
    print(f"{workload} seed={seed}: {len(samples)} requests in passes of "
          f"{', '.join(f'{w:.2f}' for w in walls)} s", file=sys.stderr)
    return len(samples), failed, metrics


def traced_run(workload, seed, seconds, pool, family):
    import layers
    from routes import ROUTES

    route = ROUTES[workload]()
    try:
        warm_up(route)
        plain, _ = run_passes(route, seed, family, seconds / 2, 1)
    finally:
        route.close()
    layers.install()
    route = ROUTES[workload]()
    try:
        warm_up(route)
        sink = layers.STATE.sink
        sink.events.clear()
        layers.STATE.outside.clear()
        traced, walls = run_passes(route, seed, family, seconds / 2, 1,
                                   tracer=sink)
    finally:
        route.close()
    samples = plain + traced
    failed = check_samples(samples, pool)
    requests = layers.requests_from(sink.events)
    if len(requests) != len(traced):
        raise RuntimeError(f"{len(traced)} traced requests but "
                           f"{len(requests)} request traces")
    values = layers.layer_metrics(
        requests, [s.result for s in traced], len(walls),
        quantile_ms(traced, 0.5), quantile_ms(plain, 0.5))
    print(f"{workload} seed={seed}: per-layer self time over "
          f"{len(requests)} traced requests\n"
          f"{layers.self_time_table(requests)}", file=sys.stderr)
    return len(samples), failed, values


def list_metrics() -> int:
    spec = load_spec()
    print(f"command: {' '.join(spec['command'])} --workload NAME --seed N "
          f"--seconds {spec['run_seconds']} --trace 0|1")
    for w in spec["workloads"]:
        print(f"workload {w['name']:14s} {w['why']}")
    for m in spec["end_to_end"]:
        print(f"end-to-end {m['name']:22s} {m['unit']:6s} {m['better']} is "
              f"better, bound {m['bound']}")
    for m in spec["per_layer"]:
        print(f"per-layer  {m['name']:40s} {m['unit']:6s} {m['better']} "
              f"is better")
    print("What each per-layer metric should move: perfbench/README.md")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.list:
        return list_metrics()
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"imported the program from {repro.__file__}, not from "
              f"{ROOT}/src", file=sys.stderr)
        return 2
    from family import choose_family, load_pool
    from routes import remove_run_dir

    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    pool = load_pool()
    family = choose_family(args.seed, pool)
    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, values = run(args.workload, args.seed,
                                        args.seconds, pool, family)
    finally:
        remove_run_dir()
    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in spec})}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
