"""Seeded benchmark of suitgraph campaigns and teach rounds.

Usage, from the repository root:

    python3 benchmarks/run.py --workload household --seed 0 --seconds 20 --trace 0

The benchmark imports the package from ``src/`` (nothing needs installing),
generates the workload's inputs from the seed, and repeats fixed-size units
of work (a campaign per strategy, or a teach session) until ``--seconds``
have passed and the workload's minimum number of units has run. Every unit
is checked: posterior mass, outcome counts, the store's export/import round
trip, and the SHA-256 of each artifact against ``golden.json`` (seed 0) or
against the run's first unit (other seeds).

``--trace 0`` measures the end-to-end metrics with no tracing, on the
``refclock.RefClock``: every time is scaled to a reference host speed
measured right next to it, and the first unit only warms up. ``--trace 1``
alternates untraced and traced units, reports per-layer metrics from the
traced ones and the tracing overhead, and writes the spans to
``.bench_out/``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the error ratio and the artifact digests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# min_units timed units keep at least 10 round samples beyond the tail
# percentile. household reports p95: its p99 is set by host pauses that
# land inside a 0.1 ms round, and moved by 0.19 between runs
WORKLOADS = {
    "household": {"min_units": 3, "tail": 95.0},
    "wide": {"min_units": 4, "tail": 90.0},
    "teach10k": {"min_units": 5, "tail": 90.0},
}

# at least this many fresh processes are timed for setup_s, one after each
# unit and the rest at the end, so that they sample the whole run
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "campaign_s": "s",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "suitability.update_posteriors_self_us": "us",
    "suitability.beta_us": "us",
    "suitability.beta_calls_per_round": "count",
    "suitability.graph_from_store_self_us": "us",
    "ontology.wup_us": "us",
    "ontology.wup_calls_per_round": "count",
    "ontology.wup_reuse_ratio": "ratio",
    "store.query_us": "us",
    "store.queries_per_candidate_round": "count",
    "store.write_us": "us",
    "store.writes_per_outcome": "count",
    "suitability.round_self_us": "us",
    "simulate.campaign_self_us_per_round": "us",
    "suitability.select_us": "us",
    "simulate.execute_us": "us",
    "simulate.trial_log_mb": "MB",
    "simulate.to_json_s_per_mb": "s/MB",
    "canonical.dumps_s_per_mb": "s/MB",
    "simulate.summarize_s": "s",
    "store.save_ms": "ms",
    "store.export_s_per_mb": "s/MB",
    "store.bytes_per_save": "bytes",
    "ontology.load_s": "s",
    "ontology.checksum_s": "s",
    "store.load_s": "s",
    "ontology.object_cluster_us": "us",
    "ontology.self_us_per_round": "us",
    "suitability.self_us_per_round": "us",
    "store.self_us_per_round": "us",
    "simulate.self_us_per_round": "us",
    "canonical.self_us_per_round": "us",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def setup_probe(inp) -> tuple[float, float]:
    """Set-up of one fresh process, as it measures it: reference and raw seconds."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(inp.taxonomy),
            str(inp.gt_path or "-"), str(inp.kb_path or "-")]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    ref_s, raw_s = done.stdout.strip().splitlines()[-1].split()
    return float(ref_s), float(raw_s)


def percentile_ms(samples_ns, q: float) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) / 1e6


def layer_metrics(tracer, setup_tracer, overhead: float) -> dict:
    """Per-layer metrics of the traced units; ``*_us`` are microseconds per round."""
    import tracing

    t = tracer.totals()
    setup = setup_tracer.totals()

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def own(name):
        return t.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    rounds = tracer.rounds
    per_round_us = lambda seconds: ratio(seconds * 1e6, rounds)  # noqa: E731
    mb = lambda name: tracer.out_bytes.get(name, 0) / 1e6  # noqa: E731
    campaigns = calls("simulate.campaign")
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, row in t.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    writes = calls("store.append") + calls("store.set_posterior")
    m = {
        "suitability.update_posteriors_self_us": per_round_us(own("suitability.update_posteriors")),
        "suitability.beta_us": per_round_us(total("suitability.beta")),
        "suitability.beta_calls_per_round": ratio(calls("suitability.beta"), rounds),
        "suitability.graph_from_store_self_us": per_round_us(own("suitability.graph_from_store")),
        "ontology.wup_us": per_round_us(total("ontology.wup")),
        "ontology.wup_calls_per_round": ratio(calls("ontology.wup"), rounds),
        "ontology.wup_reuse_ratio": ratio(tracer.wup_distinct, calls("ontology.wup")),
        "store.query_us": per_round_us(total("store.query")),
        "store.queries_per_candidate_round": ratio(calls("store.query"), tracer.graph_candidates),
        "store.write_us": per_round_us(total("store.append") + total("store.set_posterior")),
        "store.writes_per_outcome": ratio(writes, calls("store.append")),
        "suitability.round_self_us": per_round_us(own("suitability.round")),
        "simulate.campaign_self_us_per_round": per_round_us(own("simulate.campaign")),
        "suitability.select_us": per_round_us(total("suitability.select") + total("simulate.baseline_select")),
        "simulate.execute_us": per_round_us(total("simulate.execute")),
        "simulate.trial_log_mb": ratio(mb("simulate.to_json"), campaigns),
        "simulate.to_json_s_per_mb": ratio(total("simulate.to_json"), mb("simulate.to_json")),
        "canonical.dumps_s_per_mb": ratio(total("canonical.dumps"), mb("canonical.dumps")),
        "simulate.summarize_s": ratio(total("simulate.summarize"), calls("simulate.summarize")),
        "store.save_ms": ratio(total("store.save") * 1e3, calls("store.save")),
        "store.export_s_per_mb": ratio(total("store.export_json"), mb("store.export_json")),
        "store.bytes_per_save": ratio(tracer.saved_bytes, calls("store.save")),
        "ontology.load_s": setup.get("ontology.load", {}).get("total_s", 0.0),
        "ontology.checksum_s": setup.get("ontology.checksum", {}).get("total_s", 0.0),
        "store.load_s": setup.get("store.load", {}).get("total_s", 0.0),
        "ontology.object_cluster_us": per_round_us(total("ontology.object_cluster")),
        "trace.overhead_ratio": overhead,
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_us_per_round"] = per_round_us(seconds)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "suitgraph" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import refclock
    import tracing
    import workloads

    spec = WORKLOADS[args.workload]
    min_units = spec["min_units"] if args.scale == "full" else 2
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    pinned = golden.get(args.scale, {}).get(args.workload) if args.seed == 0 else None

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        inp = workloads.build_inputs(args.workload, args.seed, args.scale, work / "inputs")
        setup_times = []
        if not args.trace:
            setup_probe(inp)  # untimed warm-up: fills the bytecode cache

        setup_tracer = tracing.Tracer()
        if args.trace:
            setup_tracer.install()
        try:
            workloads.setup_inputs(inp, setup_tracer if args.trace else tracing.NullTracer())
        finally:
            setup_tracer.uninstall()

        tracer = tracing.Tracer()
        units, unit_s, host_ratio = [], [], []
        # an untraced run times every unit after the first, which warms up
        need = 2 if args.trace else min_units + 1
        deadline = time.perf_counter() + args.seconds
        while len(units) < need or time.perf_counter() < deadline:
            # a traced run alternates untraced and traced units, so that both
            # halves of the overhead ratio see the same host conditions
            traced = bool(args.trace and len(units) % 2)
            clock = refclock.RawClock() if args.trace else refclock.RefClock()
            # teach sessions time their own rounds, which include the save
            timer = None if traced or args.workload == "teach10k" else tracing.RoundTimer(clock)
            hook = tracer if traced else timer
            if hook is not None:
                hook.install()
            t0 = time.perf_counter()
            try:
                units.append(workloads.run_unit(
                    inp, work / "out", tracer if traced else tracing.NullTracer(), clock))
            finally:
                if hook is not None:
                    hook.uninstall()
            unit_s.append(time.perf_counter() - t0)
            host_ratio.append(clock.raw_ns / 1e9 / clock.total_s)
            if traced:
                tracer.end_unit()
            if not args.trace:
                t0 = time.perf_counter()
                setup_times.append(setup_probe(inp))
                deadline += time.perf_counter() - t0
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(inp))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    reference = pinned if pinned is not None else units[0].digests
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for i, u in enumerate(units):
        if pinned is None and i == 0:
            continue
        for name in sorted(set(reference) | set(u.digests)):
            attempted += 1
            failed += 0 if u.digests.get(name) == reference.get(name) else 1

    if args.trace:
        overhead = statistics.median(unit_s[1::2]) / statistics.median(unit_s[::2])
        metrics = layer_metrics(tracer, setup_tracer, overhead)
        units_note = f"{len(unit_s[::2])} untraced + {len(unit_s[1::2])} traced units"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.npz")
        units_list = PER_LAYER
    else:
        # times are in reference seconds (refclock.py); the first unit warms up
        timed = units[1:]
        samples = [ns for u in timed for ns in u.round_ns]
        metrics = {
            "setup_s": statistics.median(ref for ref, _ in setup_times),
            "rounds_per_s": statistics.median(u.rounds / u.busy_s for u in timed),
            "campaign_s": statistics.median(w for u in timed for w in u.wall_s),
            "round_ms_p50": percentile_ms(samples, 50.0),
            "round_ms_tail": percentile_ms(samples, spec["tail"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units_note = (f"{len(timed)} timed units after 1 warm-up, {len(samples)} round samples, "
                      f"tail = p{spec['tail']:g}")
        print("per-unit rounds_per_s: " + " ".join(f"{u.rounds / u.busy_s:.6g}" for u in timed))
        print("per-unit raw/reference time: " + " ".join(f"{r:.3f}" for r in host_ratio[1:]))
        print("raw setup_s (median): " + f"{statistics.median(raw for _, raw in setup_times):.6g}")
        units_list = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, {units_note}")
    for name, unit in units_list.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  error_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} checks)")
    print("digests: " + json.dumps(units[0].digests, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_list.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
