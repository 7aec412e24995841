"""Spans recorded around calls into hfhash, from outside the package.

Shims replace the package's public functions by module (or class)
attribute and restore them afterwards; nothing under ``src/`` changes.
Each call becomes a span ``[name, parent, start, end, eval_calls,
eval_s]``.  `eval_word` runs 128 times per block, so its calls are not
spans: they are summed into the span that made them, which keeps
memory bounded by the number of blocks rather than rounds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

from hfhash import analysis, core

EVAL = "evaluator.eval_word"
ROOT = "bench.run"

# (owner, attribute, span name); `analysis` imports hash_bytes by name,
# so its alias is replaced as well
SHIMS = (
    (core, "hash_bytes", "core.hash_bytes"),
    (analysis, "hash_bytes", "core.hash_bytes"),
    (core, "pad", "core.pad"),
    (core, "parse_blocks", "core.parse_blocks"),
    (core, "compress", "core.compress"),
    (core, "expand", "core.expand"),
    (core.Hasher, "update", "core.Hasher.update"),
    (core.Hasher, "finalize", "core.Hasher.finalize"),
    (analysis, "avalanche", "analysis.avalanche"),
    (analysis, "diffusion", "analysis.diffusion"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def _eval_proxy(self, system):
        spans, stack, inner = self.spans, self.stack, system.eval_word

        class EvalWordProxy:
            constant_word = system.constant_word

            @staticmethod
            def eval_word(x):
                t0 = perf_counter()
                y = inner(x)
                t1 = perf_counter()
                span = spans[stack[-1]]
                span[4] += 1
                span[5] += t1 - t0
                return y

        return EvalWordProxy()

    @contextmanager
    def installed(self, params, extra=()):
        """Shim the package, and the (owner, attribute, span name) triples
        in `extra`, and open the root span; yields traced params."""
        shims = SHIMS + tuple(extra)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in shims]
        for (owner, attr, name), (_, _, original) in zip(shims, saved):
            setattr(owner, attr, self._wrap(name, original))
        root = [ROOT, None, perf_counter(), 0.0, 0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield replace(params, system=self._eval_proxy(params.system))
        finally:
            root[3] = perf_counter()
            self.stack.pop()
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, total seconds and self seconds.

        Self time is a span's duration minus its child spans and the
        `eval_word` time summed into it; the self times of all layers
        add up to the root span's duration.
        """
        children = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, _, start, end, eval_calls, eval_s) in enumerate(self.spans):
            layer = out[name]
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - children[i] - eval_s
            if eval_calls:
                ev = out[EVAL]
                ev["calls"] += eval_calls
                ev["total_s"] += eval_s
                ev["self_s"] += eval_s
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, eval_calls, eval_s in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start,
                                     "end": end, "eval_word_calls": eval_calls,
                                     "eval_word_s": eval_s}) + "\n")
