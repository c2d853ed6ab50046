"""Live end-to-end benchmark of the AdOC stack.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload bulk-lan100 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it untraced, then traced and as the plain
reference for half as long each, times the codecs on its inputs, writes
a Chrome trace under ``e2ebench/out/`` and prints the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Every result is verified: a wrong
result, an exception or a timeout is counted in ``failed`` and makes the
exit status 1.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Hard stop: a hung operation must not keep the process alive.
WATCHDOG_S = 170.0
#: Trace ring size; larger than any traced run records.
TRACE_CAPACITY = 1 << 18
#: The traced and the reference runs last this share of --seconds, which
#: bounds the spans kept in memory.
SIDE_RUN_SHARE = 0.5
#: What each workload's bytes cross.
LINK_KIND = {
    "bulk-lan100": "shaped in-memory pipe (LAN100: 94 Mbit/s, 64 KB buffer)",
    "rpc-loopback": "loopback TCP",
    "depot-paced": "paced loopback TCP (80 Mbit/s each way, 16 KB burst)",
}


def _watchdog() -> None:
    print(f"e2ebench: no result after {WATCHDOG_S:.0f}s, aborting", file=sys.stderr, flush=True)
    os._exit(3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("e2ebench: run from a checkout holding src/repro and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    timer = threading.Timer(WATCHDOG_S, _watchdog)
    timer.daemon = True
    timer.start()

    import numpy
    from repro.obs.tracer import EventTracer

    from measure import codec_bench, end_to_end, per_layer
    from probes import Spans
    from workloads import WORKLOADS, make_corpus

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "link": LINK_KIND[args.workload],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    print("provenance: " + json.dumps(provenance))
    corpus = make_corpus(args.workload, args.seed)

    def run(spans: Spans, seconds: float, reference: bool = False):
        return WORKLOADS[args.workload](corpus, seconds, spans, reference, args.seed)

    untraced = run(Spans(None), args.seconds)
    outcomes = [untraced]
    attempted, errors = 0, []
    if args.trace:
        spans = Spans(EventTracer(capacity=TRACE_CAPACITY))
        traced = run(spans, args.seconds * SIDE_RUN_SHARE)
        reference = run(Spans(None), args.seconds * SIDE_RUN_SHARE, reference=True)
        outcomes += [traced, reference]
        codec, attempted, errors = codec_bench(corpus, spans)
    for out in outcomes:
        attempted += out.attempted
        errors += out.errors
    for line in errors:
        print(f"e2ebench: FAILED {line}", file=sys.stderr)

    metrics: dict[str, float] = {}
    if all(out.ops for out in outcomes):
        if args.trace:
            metrics = per_layer(args.workload, traced, spans, untraced, reference, codec)
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
            trace = spans.tracer.to_chrome_trace(f"e2ebench {args.workload}")
            trace["otherData"]["provenance"] = provenance
            with open(trace_path, "w") as f:
                json.dump(trace, f)
            print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(untraced)
    names = [d["name"] for d in declared]
    if metrics and set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        print(f"e2ebench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 2

    print(f"samples: {len(untraced.ops)} operations, "
          f"{len(untraced.ops) // untraced.latency_group} latencies, "
          f"{len(untraced.windows)} windows (rates), {len(untraced.setup_s)} setups, "
          f"{len(untraced.teardown_s)} client closes")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
            for d in declared if metrics
        },
    }
    for name, entry in result["metrics"].items():
        print(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    # The watchdog stays armed: a library thread that outlives main()
    # would otherwise hold the process open.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
