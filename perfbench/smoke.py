"""Smoke configuration of the benchmark: all four workloads at toy sizes.

Checks, in one process and in a few seconds:

* the result object of every workload, with and without tracing, has
  exactly the fields and metrics (with units) that BENCHMARK.json names;
* a deliberately wrong reference is reported as a failure;
* the per-document ceiling turns an overrun into a failure and the run
  still ends (no thread or process is started: the ceiling is a timer
  signal in this process, and the overrunning document is a toy spec held
  in a loop, so the check does not depend on how fast the program is).

Run from the root of the repository::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import sys
import time

import run
from reference import DEFAULT_SEED
from workloads import WIDE_G, WORKLOADS

SMOKE = {"size": "smoke", "setup_repeats": 1}
SMOKE_WIDE_G_DOCS = WIDE_G["smoke"][0]


class SlowFirst(WORKLOADS["monoid-wide-g"]):
    name = "smoke-slow-first"

    def run_one(self, spec):
        if spec is self.docs[0]:
            deadline = time.perf_counter() + 1.0
            while time.perf_counter() < deadline:
                pass
        return super().run_one(spec)


class SmokeFailure(Exception):
    pass


def check(condition: bool, detail) -> None:
    if not condition:
        raise SmokeFailure(detail)


def check_schema(result: dict, metrics: list[dict]) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, result["attempted"])
    check(isinstance(result["failed"], int), result["failed"])
    want = {m["name"]: m["unit"] for m in metrics}
    got = result["metrics"]
    check(set(got) == set(want), sorted(set(got) ^ set(want)))
    for name, m in got.items():
        check(set(m) == {"value", "unit"}, (name, m))
        check(m["unit"] == want[name], (name, m["unit"], want[name]))
        check(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name)


def main() -> int:
    spec = run.spec()
    for name in WORKLOADS:
        for trace, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, summary = run.run(name, DEFAULT_SEED, 0.2, trace, **SMOKE)
            check_schema(result, metrics)
            check(result["correct"] and result["failed"] == 0, summary)
        print(f"ok   {name}: schema with and without tracing, no failures")

        result, summary = run.run(name, DEFAULT_SEED, 0.2, False, corrupt_reference=True, **SMOKE)
        check(not result["correct"] and result["failed"] >= 1, summary)
        print(f"ok   {name}: a wrong reference is reported ({result['failed']} failed)")

    # A 50 ms ceiling over toy monoid-wide-g specs, the first of which is
    # held in a pure-Python loop for a second, as the O(g) scan of rule R4
    # holds a large g: it must fail once per pass, the rest pass, and the
    # run must end.
    WORKLOADS[SlowFirst.name] = SlowFirst
    t0 = time.perf_counter()
    result, summary = run.run(SlowFirst.name, DEFAULT_SEED, 0.2, False, ceiling=0.05, **SMOKE)
    wall = time.perf_counter() - t0
    passes = -(-result["attempted"] // SMOKE_WIDE_G_DOCS)  # the last pass may be cut short
    check(result["failed"] == passes >= 1, summary)
    check("DocumentTimeout" in summary, summary)
    check(wall < 10, wall)
    print(f"ok   ceiling: {result['failed']} of {result['attempted']} documents overran "
          f"50 ms and failed; the run took {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
