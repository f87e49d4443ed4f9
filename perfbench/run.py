"""Closed-loop benchmark of the verdict path.

One process, no threads: each document is submitted only after the
previous verdict returns.  Usage, from the root of the repository::

    python3 perfbench/run.py --workload monoid-k4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, a table of metrics
    python3 perfbench/run.py --calibrate      # rewrite control/scale.json

The timed loop runs passes over the workload's seeded documents until
``--seconds`` have been measured; the first pass is always whole.  Every
output is checked after its pass, with the clock stopped.  Each document
has a wall-clock ceiling; an overrun counts as a failure and the run goes
on.

With ``--trace 0`` every document goes through the program and, right
next to it, through the control: a frozen copy of the program in
``control/``.  Each end-to-end figure is reported as the program's figure
over the control's, times the control's figure at calibration
(``control/scale.json``), so that a change in the host's speed, which
slows both alike, cancels.  The summary line gives both figures as
measured.

With ``--trace 1`` untraced and traced passes of the program alternate,
and the last line holds the per-layer metrics of the traced passes, as
measured, plus the ratio of traced to untraced time; the spans are
written to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CONTROL = HERE / "control"
CONTROL_PACKAGE = "evansk_control"
SCALE = CONTROL / "scale.json"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
CALIBRATION_SEEDS = range(1, 6)
DOC_CEILING_S = 10.0
# A run starts no new document once this long past --seconds, so that it
# ends within the three minutes a run is allowed even if the program slows.
OVERRUN_S = 60.0
LIBRARY_MODULES = ("intmat", "kgraph", "documents", "corpus", "complexes", "snf",
                   "homology", "spectral", "cli")
TIMED = ("docs_per_s", "doc_p50_ms", "doc_p99_ms", "setup_s")


class DocumentTimeout(BaseException):
    """A document ran past its ceiling.  A BaseException, so that no
    ``except Exception`` in the program can swallow it."""


class Library:
    """The modules of one copy of the program, freshly imported."""

    def __init__(self, package: str):
        for name in LIBRARY_MODULES:
            setattr(self, name, importlib.import_module(f"{package}.{name}"))


def import_library(package: str = "evansk", path: Path = ROOT / "src") -> Library:
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    return Library(package)


def import_control() -> Library:
    return import_library(CONTROL_PACKAGE, CONTROL)


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, *, size: str = "full",
                 ceiling: float = DOC_CEILING_S, setup_repeats: int = SETUP_REPEATS,
                 corrupt_reference: bool = False):
        self.cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.ceiling = ceiling
        self.setup_repeats = setup_repeats
        self.corrupt_reference = corrupt_reference
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.in_document = False
        self.expected = None

    def on_alarm(self, signum, frame) -> None:
        # An alarm that lands after the document returned is ignored.
        if self.in_document:
            raise DocumentTimeout()

    # -- set-up ------------------------------------------------------------

    def set_up_once(self, control: bool):
        """Import, generate and warm up one copy of the program; the
        workload and the seconds it took.

        Writing the documents to files is left out of the time: creating a
        file on the benchmark machine's disk took 0.1 to 1.4 ms and drifted
        from run to run, which would make set-up time measure the disk.
        """
        gc.collect()
        t0 = time.perf_counter()
        lib = import_control() if control else import_library()
        w = self.cls(lib, self.seed, self.size, self.workdir)
        w.generate()
        t1 = time.perf_counter()
        w.write()
        t2 = time.perf_counter()
        w.warm_up()
        return w, t1 - t0 + time.perf_counter() - t2

    def set_up(self, paired: bool) -> list[tuple[float, float]]:
        """Set up ``setup_repeats`` times, the program and (if ``paired``)
        the control in turn, in alternating order; the seconds of each
        repeat as ``(program, control)``.

        The control then takes the program's documents, so that both run
        the same inputs even if the program's generator changes."""
        remove_tree(self.workdir)
        times, control_lib = [], None
        for r in range(self.setup_repeats):
            seconds = {}
            copies = [False, True] if paired else [False]
            if r % 2:
                copies.reverse()
            for control in copies:
                w, seconds[control] = self.set_up_once(control)
                if control:
                    control_lib = w.lib
                else:
                    self.w = w
            times.append((seconds[False], seconds.get(True, 0.0)))
        self.control = None
        if paired:
            self.control = self.w.twin(control_lib)
            self.control.warm_up()
        return times

    # -- the timed loop ----------------------------------------------------

    def call(self, w, doc, tracer: Tracer | None):
        """One document through one copy of the program: its output (or
        the exception it raised) and its seconds."""
        clock = time.perf_counter
        t0 = clock()
        try:
            self.in_document = True
            signal.setitimer(signal.ITIMER_REAL, self.ceiling)
            try:
                if tracer is None:
                    out = w.run_one(doc)
                else:
                    with tracer.document(self.attempted):
                        out = w.run_one(doc)
            finally:
                self.in_document = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (DocumentTimeout, Exception) as exc:  # a failure; the run goes on
            out = exc
        return out, clock() - t0

    def one_pass(self, index: int, budget: float, hard_stop: float,
                 tracer: Tracer | None = None, paired: bool = False) -> list[list[float]]:
        """The documents in order, until ``budget`` seconds of them are
        used; per-document seconds of the program and, if ``paired``, of
        the control, which runs each document right after the program in
        even passes and right before it in odd ones."""
        copies = [self.w, self.control] if paired else [self.w]
        outputs: list[list] = [[] for _ in copies]
        times: list[list[float]] = [[] for _ in copies]
        order = list(range(len(copies)))
        if index % 2:
            order.reverse()
        gc.collect()
        used = 0.0
        for i in range(len(self.w.docs)):
            if used >= budget or time.perf_counter() > hard_stop:
                break
            self.attempted += 1
            for c in order:
                out, t = self.call(copies[c], copies[c].docs[i], tracer)
                outputs[c].append(out)
                times[c].append(t)
                used += t
        self.check(outputs)
        return times

    def check(self, outputs: list[list]) -> None:
        """Count each document whose output, from either copy, is wrong."""
        if self.expected is None:
            self.expected = self.w.expected()
            if self.corrupt_reference:
                self.expected[0] = ["not", "a", "verdict"]
        for i, outs in enumerate(zip(*outputs)):
            for out in outs:
                message = self.mismatch(i, out)
                if message:
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"document {i}: {message}")
                    break

    def mismatch(self, i: int, out) -> str | None:
        if isinstance(out, BaseException):
            return f"{type(out).__name__}: {out}"
        try:
            got = self.w.key_of(out)
        except Exception as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        if got != self.expected[i]:
            return f"got {got}, expected {self.expected[i]}"
        return None

    def measure(self, trace: bool) -> dict[str, dict[int, list[float]]]:
        """Passes until ``seconds`` are measured; per-document seconds of
        the program (``plain``), the control (``control``, untraced runs)
        and the traced program (``traced``, traced runs).

        The first pass of each kind is whole; later ones stop when the
        time is used up.
        """
        tracer = Tracer(self.lib) if trace else None
        samples: dict[str, dict[int, list[float]]] = {"plain": {}, "control": {}, "traced": {}}
        passes = {"plain": 0, "traced": 0}
        measured = 0.0
        hard_stop = time.perf_counter() + self.seconds + OVERRUN_S
        while True:
            kind = "traced" if trace and passes["traced"] < passes["plain"] else "plain"
            if passes[kind] and measured >= self.seconds:
                break
            budget = self.seconds - measured if passes[kind] else float("inf")
            if kind == "traced":
                tracer.install()
                try:
                    times = self.one_pass(passes[kind], budget, hard_stop, tracer)
                finally:
                    tracer.remove()
                names = ["traced"]
            else:
                times = self.one_pass(passes[kind], budget, hard_stop, paired=not trace)
                names = ["plain", "control"]
            passes[kind] += 1
            for name, ts in zip(names, times):
                for i, t in enumerate(ts):
                    samples[name].setdefault(i, []).append(t)
                measured += sum(ts)
            if time.perf_counter() > hard_stop:
                break
        self.tracer, self.passes = tracer, passes
        return samples

    @property
    def lib(self):
        return self.w.lib


def doc_medians(samples: dict[int, list[float]]) -> list[float]:
    """Each document's median run."""
    return [statistics.median(ts) for ts in samples.values()]


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    return max(1, -(-n * q // 100))


def percentile(values: list[float], q: int) -> float:
    return sorted(values)[rank(len(values), q) - 1]


def paired_medians(program: dict[int, list[float]], control: dict[int, list[float]]) -> list[float]:
    """Each document's program time, as its control time (the median of its
    runs) times the median ratio of its pairs of runs.

    The host switches between a fast and a slow state that last seconds
    (one document's consecutive runs took 0.63 s and 0.97 s), so the two
    runs of a pair, seconds apart at most, nearly always share a state,
    and the median ratio passes over the few pairs that straddle a switch.
    """
    return [statistics.median(ctl) * statistics.median(p / c for p, c in zip(program[i], ctl))
            for i, ctl in control.items()]


def figures(per_doc: list[float]) -> dict[str, float]:
    """The per-document end-to-end figures, from each document's time."""
    return {
        "docs_per_s": len(per_doc) / sum(per_doc),
        "doc_p50_ms": statistics.median(per_doc) * 1e3,
        "doc_p99_ms": percentile(per_doc, 99) * 1e3,
    }


def control_scale(workload: str) -> dict[str, float]:
    """The control's figures at calibration; empty for an uncalibrated
    workload, whose figures are then reported as measured."""
    if not SCALE.exists():
        return {}
    return json.loads(SCALE.read_text(encoding="utf-8"))["workloads"].get(workload, {})


def run(workload: str, seed: int, seconds: float, trace: bool, **options) -> tuple[dict, str]:
    """One benchmark run; the result object and a human-readable summary."""
    r = Run(workload, seed, seconds, **options)
    previous = signal.signal(signal.SIGALRM, r.on_alarm)
    try:
        setup = r.set_up(paired=not trace)
        samples = r.measure(trace)
        plain = doc_medians(samples["plain"])
        if trace:
            tracer = r.tracer
            WORK.mkdir(exist_ok=True)
            spans_path = WORK / f"spans-{workload}-seed{seed}.csv"
            tracer.write_spans(spans_path)
            traced = doc_medians(samples["traced"])
            metrics = tracer.layer_metrics(max(sum(len(ts) for ts in samples["traced"].values()), 1))
            metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
            summary = (f"{workload} seed {seed}: {r.passes['traced']} traced and "
                       f"{r.passes['plain']} untraced passes over {len(plain)} documents, "
                       f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        else:
            program = figures(plain) | {"setup_s": statistics.median(p for p, _ in setup)}
            control = (figures(doc_medians(samples["control"]))
                       | {"setup_s": statistics.median(c for _, c in setup)})
            paired = figures(paired_medians(samples["plain"], samples["control"]))
            ratios = {k: paired[k] / control[k] for k in paired}
            ratios["setup_s"] = statistics.median(p / c for p, c in setup)
            scale = control_scale(workload)
            metrics = {k: scale.get(k, control[k]) * ratios[k] for k in TIMED}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            runs = sum(len(ts) for ts in samples["plain"].values())
            summary = (f"{workload} seed {seed}: {r.passes['plain']} passes over "
                       f"{len(plain)} documents, {runs} timed runs of each copy; p99 over the "
                       f"{len(plain)} documents, "
                       f"{len(plain) - rank(len(plain), 99)} above it"
                       f"\n  program / control: "
                       + ", ".join(f"{k} {ratios[k]:.4f}" for k in TIMED)
                       + "\n  program, as measured: " + json.dumps(program)
                       + "\n  control, as measured: " + json.dumps(control))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        remove_tree(r.workdir)
    summary += f"\n  fail_ratio {r.failed}/{r.attempted}"
    for e in r.errors:
        summary += f"\n  failure: {e}"
    bench = spec()
    units = {m_["name"]: m_["unit"] for m_ in bench["end_to_end"] + bench["per_layer"]}
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, summary


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float) -> tuple[list[str], dict | None]:
    """One untraced run in a fresh process: its summary lines and result."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def calibrate(seconds: float) -> int:
    """Write the control's figures, the median over ``CALIBRATION_SEEDS``
    of each workload, to ``control/scale.json``."""
    prefix = "  control, as measured: "
    out = {}
    for wl in spec()["workloads"]:
        runs = []
        for seed in CALIBRATION_SEEDS:
            lines, result = run_workload(wl["name"], seed, seconds)
            if result is None or not result["correct"]:
                return 1
            runs.append(json.loads(next(x for x in lines if x.startswith(prefix))[len(prefix):]))
        out[wl["name"]] = {k: statistics.median(r[k] for r in runs) for k in TIMED}
        print(wl["name"], out[wl["name"]])
    doc = {"seeds": list(CALIBRATION_SEEDS), "seconds": seconds, "workloads": out}
    SCALE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process; one table of the end-to-end metrics."""
    bench = spec()
    rows = []
    status = 0
    for wl in bench["workloads"]:
        lines, result = run_workload(wl["name"], seed, seconds)
        print(*lines, sep="\n")
        if result is None:
            status = 1
            continue
        rows.append((wl["name"], result))
    names = [m["name"] for m in bench["end_to_end"]]
    print(f"\n{'workload':<15}" + "".join(f"{n:>14}" for n in names) + f"{'failed':>10}")
    for name, res in rows:
        cells = "".join(
            f"{res['metrics'][n]['value']:>10.4g} {res['metrics'][n]['unit']:<3}" for n in names
        )
        print(f"{name:<15}{cells}{res['failed']:>6}/{res['attempted']}")
        status |= 0 if res["correct"] else 1
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--calibrate", action="store_true",
                    help="measure the control and rewrite control/scale.json")
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds)
    if args.calibrate:
        return calibrate(seconds)
    if args.workload is None:
        ap.error("one of --workload or --all is required")
    if not (ROOT / "src" / "evansk" / "__init__.py").exists():
        print(f"error: no evansk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, summary = run(args.workload, args.seed, seconds, bool(args.trace))
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
