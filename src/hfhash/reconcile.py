"""Layout sweep: the self test run under every encoding convention.

Four encoding details of the hash are under-determined by its prose
definition (length-field endianness, order of the two length halves,
last-block word placement, padding-bit position).  This module enumerates
all 16 combinations, runs ``core.self_test`` (the one check of the three
reference digests) under each, and reports which combinations, if any,
reproduce the published digests.  A layout that cannot run makes
``self_test`` raise ``LayoutError``; its entry keeps the error text.

The sweep that froze ``CANONICAL_LAYOUT`` found no matching combination
(see README); the canonical choice is therefore the documented default
rather than an empirically confirmed one, and this module stays in the
package so the enumeration remains reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .core import (
    CANONICAL_LAYOUT,
    LAYOUT_CHOICES,
    HfParams,
    LayoutConfig,
    LayoutError,
    SelfTestReport,
    TEST_VECTORS,
    default_params,
    self_test,
)


def all_layouts() -> tuple[LayoutConfig, ...]:
    """All 16 candidate layouts, in a fixed deterministic order."""
    return tuple(LayoutConfig(**dict(zip(LAYOUT_CHOICES, values)))
                 for values in itertools.product(*LAYOUT_CHOICES.values()))


@dataclass(frozen=True)
class SweepEntry:
    """One candidate layout with its self-test report, or why it cannot run."""

    layout: LayoutConfig
    report: SelfTestReport | None
    error: str | None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of the self test under every layout."""

    entries: tuple[SweepEntry, ...]
    canonical = CANONICAL_LAYOUT

    @property
    def matching_layouts(self) -> tuple[LayoutConfig, ...]:
        return tuple(e.layout for e in self.entries if e.report is not None and e.report.all_ok)

    def format_text(self) -> str:
        names = " ".join(m.decode("ascii", "replace") or '""' for m, _ in TEST_VECTORS)
        lines = [f"layout sweep over {len(self.entries)} candidate "
                 f"configurations, messages: {names}"]
        for e in self.entries:
            tag = " (canonical)" if e.layout == self.canonical else ""
            lines.append(f"  {e.layout.describe()}{tag}")
            if e.report is None:
                lines.append(f"    unusable: {e.error}")
                continue
            for c in e.report.checks:
                mark = "MATCH" if c.ok else "differs"
                lines.append(f"    {c.message.decode('ascii', 'replace')!r}: "
                             f"{c.actual}  [{mark}]")
        matching = self.matching_layouts
        if matching:
            lines.append(f"matching layouts: {len(matching)}")
            for layout in matching:
                lines.append(f"  {layout.describe()}")
        else:
            lines.append("matching layouts: none; the canonical layout is "
                         "the documented default")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "messages": [m.decode("ascii", "replace") for m, _ in TEST_VECTORS],
            "expected": [e for _, e in TEST_VECTORS],
            "canonical": self.canonical.describe(),
            "entries": [
                {
                    "layout": e.layout.describe(),
                    "usable": e.report is not None,
                    "error": e.error,
                    "digests": [c.actual for c in e.report.checks] if e.report else [],
                    "matches": ([c.ok for c in e.report.checks] if e.report
                                else [False] * len(TEST_VECTORS)),
                }
                for e in self.entries
            ],
            "matching_layouts": [l.describe() for l in self.matching_layouts],
        }


def sweep(params: HfParams | None = None) -> SweepReport:
    """Run the self test under all 16 layouts of `params` (default: the
    shipped system)."""
    base = params if params is not None else default_params()
    entries = []
    for layout in all_layouts():
        try:
            report, error = self_test(replace(base, layout=layout)), None
        except LayoutError as exc:
            report, error = None, str(exc)
        entries.append(SweepEntry(layout=layout, report=report, error=error))
    return SweepReport(entries=tuple(entries))
