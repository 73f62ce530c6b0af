#!/usr/bin/env python3
"""Per-layer self time from a traced run's span file.

A span is [id, parent, name, start_ns, end_ns, thread]; its layer is the
part of its name before the first dot. A span's self time is its duration
minus the part of its interval that its child spans cover (children may run
on other threads, e.g. a pipeline's producer and worker spans). Summed over
spans, self time is thread time, so layer shares of a parallel run add up
over all of its threads.

    python3 perfbench/trace_report.py SPANS.json

prints each layer's self time per pass and its share of the program's
layers (stream, runtime, core, serve). "bench" is the
benchmark's own time (pacing, bookkeeping) and is left out of the shares.
"""

import json
import sys
from collections import defaultdict

# Layers with spans. sketch and hash run inside core's spans; the traced
# run splits them out with probes (see perfbench/probes.cc), not spans.
PROGRAM_LAYERS = ("stream", "runtime", "core", "serve")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_self_seconds(spans):
    """Returns ({layer: self seconds per pass}, number of passes)."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _thread in spans:
        children[parent].append((start, end))
    totals = defaultdict(float)
    passes = 0
    for sid, _parent, name, start, end, _thread in spans:
        if name == "bench.pass":
            passes += 1
        self_ns = (end - start) - _covered(children.get(sid, ()), start, end)
        totals[name.split(".", 1)[0]] += max(self_ns, 0) * 1e-9
    passes = max(passes, 1)
    return {k: v / passes for k, v in totals.items()}, passes


def shares(per_layer):
    """Each program layer's share of the program layers' total."""
    total = sum(per_layer.get(k, 0.0) for k in PROGRAM_LAYERS)
    return {k: (per_layer.get(k, 0.0) / total if total > 0 else 0.0)
            for k in PROGRAM_LAYERS}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        spans = json.load(f)["spans"]
    per_layer, passes = layer_self_seconds(spans)
    print(f"{len(spans)} spans over {passes} traced passes")
    for layer, share in shares(per_layer).items():
        print(f"  {layer:8s} {per_layer.get(layer, 0.0):10.4f} s/pass "
              f"{100 * share:6.2f}%")
    print(f"  {'bench':8s} {per_layer.get('bench', 0.0):10.4f} s/pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
