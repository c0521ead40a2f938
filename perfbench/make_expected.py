"""Regenerate `expected.json`, the exact answers of every pooled benchmark op.

Run from the repository root when a pool in `pools.py` or a CLI command in
`workloads.py` changes (about six minutes on two cores):

    python3 perfbench/make_expected.py

The answers come from the package itself; `tests/test_expected.py`
cross-checks every one against HiGHS on the unreduced LPs built in `oracle`.
Per-op seconds go to stderr, for sizing the workload mixes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pools
import workloads


def _timed(label, fn):
    start = time.perf_counter()
    out = fn()
    print(f"{label}\t{time.perf_counter() - start:.4f}", file=sys.stderr, flush=True)
    return out


def main() -> int:
    ns = workloads.import_package()
    fmt = ns.format_rational
    pool2 = []
    for i in range(pools.POOL2):
        g = pools.pool2_game(ns, i)
        rep, thr = ns.repeat_game(g, 2), ns.threshold_game(g, 1, 2)
        pool2.append(
            {
                "ns_rep2": fmt(_timed("ns_rep2", lambda: ns.value_ns(rep, rounds=2)).value),
                "snos_rep2": fmt(_timed("snos_rep2", lambda: ns.value_snos(rep, rounds=2)).value),
                "ns_thr": fmt(_timed("ns_thr", lambda: ns.value_ns(thr, rounds=2)).value),
                "snos_thr": fmt(_timed("snos_thr", lambda: ns.value_snos(thr, rounds=2)).value),
            }
        )
    pool3 = []
    for i in range(pools.POOL3):
        g = pools.pool3_game(ns, i)
        pool3.append(
            {
                "ns": fmt(_timed("ns_g3", lambda: ns.value_ns(g)).value),
                "snos": fmt(_timed("snos_g3", lambda: ns.value_snos(g)).value),
                "classical": fmt(_timed("classical", lambda: ns.value_classical(g)).value),
            }
        )
    boxes = []
    for i in range(pools.BOXES):
        target, dens = pools.box(i)
        corr = ns.Correlation(pools.TWO, pools.TWO, dens)
        _, dist = _timed("nearest_ns", lambda: ns.nearest_ns(target, corr))
        boxes.append({"distance": fmt(dist)})
    a3sq = ns.repeat_game(pools.a3_game(ns), 2)
    a3sq_snos = fmt(_timed("snos_a3sq", lambda: ns.value_snos(a3sq, rounds=2)).value)

    workloads.write_game_files(ns, range(pools.CLI_GAMES))
    cli = []
    for i in range(pools.CLI_GAMES):
        reports = {}
        for name in workloads.CLI_COMMANDS:
            code, text = _timed(f"cli_{name}", lambda: workloads.run_cli(ns, name, i))
            reports[name] = {"exit": code, "report": text}
        cli.append(reports)

    expected = {
        "pool2": pool2,
        "pool3": pool3,
        "boxes": boxes,
        "a3sq_snos": a3sq_snos,
        "cli": cli,
    }
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
