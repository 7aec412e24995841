#!/usr/bin/env python3
"""Layered benchmark for hfhash.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: stream-long, short-msgs, avalanche, schedule (see NOTES.md).
The package is imported, unchanged, from the checkout's ``src``
directory.  One process, one closed-loop caller: each operation starts
when the previous one has returned.

``--trace 0`` measures the end-to-end metrics, with times scaled to a
nominal host speed (see reference.py).  ``--trace 1`` runs the
same operations twice, untraced and then traced through shims around
the package's public functions, and reports per-layer metrics.  Every
output is checked outside the timed region.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment, and
in a traced run the spans, are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from math import ceil, isnan, nan
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
KAT_FILE = HERE / "kat.json"

# canonical regression digest of "a" (the README's value, not a published vector)
ANCHOR = "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d"
SETUP_STARTS = 9        # measured cold starts per run; setup_s is their scaled median
PROBE_STARTS = 3        # traced cold starts per traced run
CHILD_TIMEOUT_S = 60
REFERENCE_SPAN = "bench.reference"


def load_package() -> bool:
    """Put the checkout's ``src`` first on the import path."""
    if not (SRC / "hfhash" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def environment() -> dict:
    import numpy

    commit = dirty = None
    # stop git at the checkout, which need not be a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "dirty": dirty,
    }


def cold_start(cmd: list[str]) -> tuple[float, bool, str]:
    """Launch `cmd` with stdin "a": seconds to its first output line,
    whether that line is the anchor digest, and the rest of stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the shipped asset, and cached bytecode after the first start, as
    # an installed program has
    env.pop("HFHASH_POLYNOMIALS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.stdin.write(b"a")
        proc.stdin.close()
        first = proc.stdout.readline()
        seconds = perf_counter() - t0
        rest = proc.stdout.read()
        err = proc.stderr.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ok = code == 0 and first.decode() == f"{ANCHOR}  -\n"
    if not ok:
        print(f"perfbench: cold start {cmd[1:]} exited {code}: {first!r} {err[-500:]!r}",
              file=sys.stderr)
    return seconds, ok, rest.decode()


def timed_starts(cmd: list[str], count: int, reference) -> list[tuple[float, bool, str, float]]:
    """`count` cold starts after one discarded start, which may compile
    bytecode: (scaled seconds, ok, rest of stdout, scale) each, the
    scale taken from the reference kernel run around the start."""
    cold_start(cmd)
    starts = []
    before = reference.mean_seconds()
    for _ in range(count):
        seconds, ok, rest = cold_start(cmd)
        after = reference.mean_seconds(seconds)
        factor = reference.scale(before, after)
        starts.append((seconds * factor, ok, rest, factor))
        before = after
    return starts


class Ops:
    """Runs a workload's operation and keeps what its checks need.

    Per-op records live in arrays, so memory does not grow with objects
    per operation and a faster program does not read as a larger one.
    """

    def __init__(self, workload, inputs, reference):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.first: dict[int, object] = {}     # input -> its first output
        self.fps: dict[int, bytes] = {}        # input -> fingerprint of that output
        self.bad: set[int] = set()             # inputs whose output failed a check
        self.notes: list[str] = []
        self.input_of = array("l")             # per op: input index
        self.seconds = array("d")              # per op: duration, NaN if it raised
        self.scale = array("d")                # per op: host scale, NaN if not timed

    def once(self, i: int, params) -> None:
        """Run the operation on input `i`, timing only the call."""
        self.input_of.append(i)
        self.scale.append(nan)
        try:
            t0 = perf_counter()
            out = self.workload.run(self.inputs[i], params)
            t1 = perf_counter()
        except Exception:
            self.seconds.append(nan)
            if not any(n.startswith("raised") for n in self.notes):
                self.notes.append("raised: " + traceback.format_exc())
            return
        self.seconds.append(t1 - t0)
        fp = self.workload.fingerprint(out)
        if i not in self.fps:
            self.fps[i] = fp
            self.first[i] = out
        elif fp != self.fps[i]:
            self.bad.add(i)
            self.notes.append(f"input {i}: output differs between repeats")

    def _timed(self, params, order) -> range:
        """Run the inputs in `order`, the reference kernel between ops.

        Returns the ops run, as positions in the per-op arrays."""
        start = len(self.seconds)
        before = self.reference.mean_seconds()
        for i in order:
            self.once(i, params)
            op = self.seconds[-1]
            after = self.reference.mean_seconds(0.0 if isnan(op) else op)
            self.scale[-1] = self.reference.scale(before, after)
            before = after
        return range(start, len(self.seconds))

    def loop(self, params, seconds: float, min_ops: int = 1) -> range:
        """Cycle through the inputs until `seconds` passed and `min_ops` ran."""
        deadline = perf_counter() + seconds

        def order():
            n = 0
            while n < min_ops or perf_counter() < deadline:
                yield n % len(self.inputs)
                n += 1

        return self._timed(params, order())

    def replay(self, params, ops: range) -> range:
        """Run the inputs of `ops` again, in the same order."""
        return self._timed(params, [self.input_of[k] for k in ops])

    def completed(self, ops: range) -> list[tuple[int, float, float]]:
        """(input, seconds, scale) of the ops in `ops` that did not raise."""
        return [(self.input_of[k], self.seconds[k], self.scale[k])
                for k in ops if not isnan(self.seconds[k])]

    def check(self, params, oracle, seed, expected_kat) -> None:
        """Cover inputs no timed op reached, then run every output check."""
        for i in range(len(self.inputs)):
            if i not in self.fps:
                self.once(i, params)
        missing = [i for i in range(len(self.inputs)) if i not in self.fps]
        if missing:
            self.bad.update(missing)
            self.notes.append(f"no output for inputs {missing[:10]}")
            return
        pinned = expected_kat is not None
        if pinned and self.workload.kat([self.fps[i] for i in range(len(self.inputs))]) \
                != expected_kat:
            # the pinned value covers every input, so none can be trusted
            self.bad.update(range(len(self.inputs)))
            self.notes.append("known answer differs from the pinned value")
        bad, notes = self.workload.verify(self.inputs, self.first, self.fps, params,
                                          oracle, seed, pinned)
        self.bad |= bad
        self.notes += notes

    def failed(self) -> int:
        return sum(1 for i, s in zip(self.input_of, self.seconds) if isnan(s) or i in self.bad)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rank(values, q: float) -> float:
    """Nearest-rank quantile `q` of `values`; 0.0 when there are none."""
    if not values:
        return 0.0
    return sorted(values)[max(ceil(q * len(values)), 1) - 1]


def end_to_end(workload, inputs, ops, setup, latencies) -> tuple[dict, dict]:
    """Gated metrics, and the workload's own metrics with sample counts.

    `ops` holds (input, seconds, scale) of the timed operations.  The
    gated times are medians of host-scaled times (see reference.py);
    the workload's own metrics are raw wall times of this run, printed
    with the host's slowdown against the nominal host.
    """
    times = [s for _, s, _ in ops]
    nbytes = statistics.mean(workload.message_bytes(inputs[i]) for i, _, _ in ops) if ops else 0
    p50 = _median(times)
    metrics = {
        "op_ms": (_median([s * k for _, s, k in ops]) * 1e3, "ms"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    n = len(times)
    named = {
        "op_ms": (metrics["op_ms"][0], "ms", f"median of n={n} ops, host-scaled"),
        "setup_s": (metrics["setup_s"][0], "s", f"median of n={len(setup)} cold starts, "
                                               "host-scaled"),
        "host_slowdown": (_median([1 / k for _, _, k in ops]), "x",
                          "kernel time over its nominal time, median over ops"),
    }
    if workload.name == "stream-long":
        named["stream_mbps"] = (nbytes / p50 / 1e6 if p50 else 0.0, "MB/s",
                                f"median of n={n} messages")
    elif workload.name == "short-msgs":
        m = len(latencies)
        named["msgs_per_s"] = (m / sum(latencies) if m else 0.0, "1/s", f"n={m} messages")
        named["latency_p50_ms"] = (_rank(latencies, 0.5) * 1e3, "ms", f"n={m}")
        named["latency_p99_ms"] = (_rank(latencies, 0.99) * 1e3, "ms",
                                   f"n={m}, {m - ceil(0.99 * m)} above")
    elif workload.name == "avalanche":
        named["avalanche_s"] = (p50, "s", f"median of n={n} reports")
    elif workload.name == "schedule":
        named["diffusion_s"] = (p50, "s", f"median of n={n} sets of six reports")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"][0], "MB", "whole process")
    return metrics, named


def per_layer(layers, root_s, scale, overhead, probes) -> dict:
    """Per-layer metrics of a traced run; times are scaled by `scale`.

    Shares are of the traced wall time outside the reference kernel."""
    from spans import EVAL

    def per_call(name, key="self_s", unit=1e6):
        layer = layers.get(name)
        return layer[key] / layer["calls"] * unit * scale if layer else 0.0

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    package_s = root_s - layers.get(REFERENCE_SPAN, {}).get("total_s", 0.0)

    metrics = {
        name: (_median([p[name] for p in probes]), "s")
        for name in ("cli.import_s", "system.load_system_s", "evaluator.compile_system_s")
    }
    metrics.update({
        "evaluator.eval_word_us": (per_call(EVAL), "us"),
        "evaluator.eval_word_calls": (calls(EVAL), "count"),
        "evaluator.eval_word_share": (layers.get(EVAL, {}).get("self_s", 0.0) / package_s,
                                      "ratio"),
        "core.compress_self_us": (per_call("core.compress"), "us"),
        "core.compress_calls": (calls("core.compress"), "count"),
        "core.expand_us": (per_call("core.expand", "total_s"), "us"),
        "core.hash_bytes_self_us": (per_call("core.hash_bytes"), "us"),
        "core.pad_us": (per_call("core.pad", "total_s"), "us"),
        "core.parse_blocks_us": (per_call("core.parse_blocks", "total_s"), "us"),
        "core.Hasher.update_self_us": (per_call("core.Hasher.update"), "us"),
        "core.Hasher.finalize_us": (per_call("core.Hasher.finalize", "total_s"), "us"),
        "analysis.avalanche_self_s": (per_call("analysis.avalanche", unit=1), "s"),
        "analysis.diffusion_report_s": (per_call("analysis.diffusion", "total_s", 1), "s"),
        "tracing_overhead": (overhead, "ratio"),
    })
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stream-long", "short-msgs", "avalanche", "schedule"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_package():
        print(f"perfbench: no hfhash package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from hfhash import core
    from hfhash.evaluator import TermSumEvaluator
    from hfhash.system import load_default_system

    from reference import Reference
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    kat = json.loads(KAT_FILE.read_text(encoding="utf-8"))
    expected = (kat["seeded"].get(str(args.seed), {}).get(workload.name)
                if workload.seeded else kat[workload.name])
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))

    # set-up: fresh interpreters, outside the workload's timed region
    reference = Reference()
    if args.trace:
        cmd, count = [sys.executable, str(HERE / "probe.py")], PROBE_STARTS
    else:
        cmd, count = [sys.executable, "-m", "hfhash.cli", "sum"], SETUP_STARTS
    starts = timed_starts(cmd, count, reference)
    setup = [s for s, ok, _, _ in starts if ok]
    setup_failed = len(starts) - len(setup)

    params = core.default_params()
    inputs = workload.inputs(args.seed)
    ops = Ops(workload, inputs, reference)
    self_checks = []
    if not args.trace:
        timed = ops.loop(params, args.seconds, workload.min_ops)
        latencies = list(getattr(workload, "latencies", ()))
        metrics, named = end_to_end(workload, inputs, ops.completed(timed), setup, latencies)
    else:
        untraced = ops.loop(params, args.seconds / 2)
        tracer = Tracer()
        kernel = ((reference, "mean_seconds", REFERENCE_SPAN),)
        with tracer.installed(params, kernel) as traced_params:
            traced = ops.replay(traced_params, untraced)
        root_s = tracer.spans[0][3] - tracer.spans[0][2]
        layers = tracer.layers()
        done, base = ops.completed(traced), ops.completed(untraced)
        overhead = (sum(s * k for _, s, k in done) / sum(s * k for _, s, k in base)
                    if done and base else 0.0)
        probes = [{k: v * factor for k, v in json.loads(rest).items()}
                  for _, ok, rest, factor in starts if ok]
        metrics = per_layer(layers, root_s, _median([k for _, _, k in done]), overhead, probes)
        named = {}
        compress_calls = metrics["core.compress_calls"][0]
        blocks = sum(workload.blocks(inputs[i]) for i, _, _ in done)
        self_checks = [
            ("eval_word calls == 2 x rounds x compress calls",
             metrics["evaluator.eval_word_calls"][0] == 2 * params.rounds * compress_calls),
            (f"compress calls == padded blocks hashed ({blocks})", compress_calls == blocks),
            ("layer self times add up to the traced wall time",
             abs(sum(layer["self_s"] for layer in layers.values()) - root_s) < 1e-6),
        ]

    oracle = core.HfParams(system=TermSumEvaluator(load_default_system()))
    ops.check(params, oracle, args.seed, expected)

    attempted = len(ops.seconds) + len(starts)
    failed = ops.failed() + setup_failed
    correct = failed == 0 and all(ok for _, ok in self_checks) and not ops.notes

    for name, (value, unit, *detail) in {**metrics, **named}.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {' '.join(detail)}")
    print(f"  {'failed_ratio':<30} {failed / attempted:>14.6g} {'':<6} "
          f"{failed} failed of {attempted} attempted ({len(starts)} cold starts)")
    if args.trace:
        print("  layer                           calls      total_s       self_s  self/wall")
        for name, layer in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<28} {layer['calls']:>8} {layer['total_s']:>12.6f} "
                  f"{layer['self_s']:>12.6f} {layer['self_s'] / root_s:>10.4f}")
        for what, ok in self_checks:
            print(f"  self-check {'ok  ' if ok else 'FAIL'} {what}")
    for note in ops.notes:
        print(f"  check FAILED: {note}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, *_) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "env": env, "result": result, "notes": ops.notes,
              "named": {k: list(v) for k, v in named.items()}}
    if args.trace:
        record["layers"] = layers
        record["self_checks"] = self_checks
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
