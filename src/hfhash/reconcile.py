"""Layout sweep: every encoding convention tried against the reference digests.

Four encoding details of the hash are under-determined by its prose
definition (length-field endianness, order of the two length halves,
last-block word placement, padding-bit position).  This module enumerates
all 16 combinations, hashes the three reference messages under each, and
reports which combinations, if any, reproduce the published digests.

The sweep that froze ``CANONICAL_LAYOUT`` found no matching combination
(see README); the canonical choice is therefore the documented default
rather than an empirically confirmed one, and this module stays in the
package so the enumeration remains reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    CANONICAL_LAYOUT,
    LAYOUT_CHOICES,
    HfParams,
    LayoutConfig,
    LayoutError,
    TEST_VECTORS,
    default_params,
    hash_bytes,
    params_with,
)


def all_layouts() -> tuple[LayoutConfig, ...]:
    """All 16 candidate layouts, in a fixed deterministic order."""
    return tuple(LayoutConfig(**dict(zip(LAYOUT_CHOICES, values)))
                 for values in itertools.product(*LAYOUT_CHOICES.values()))


@dataclass(frozen=True)
class SweepEntry:
    """One candidate layout with its three digests (or its failure)."""

    layout: LayoutConfig
    digests: tuple[str, ...]
    error: str | None

    @property
    def usable(self) -> bool:
        return self.error is None

    def matches(self, expected: tuple[str, ...]) -> tuple[bool, ...]:
        if not self.usable:
            return tuple(False for _ in expected)
        return tuple(d == e for d, e in zip(self.digests, expected))

    def full_match(self, expected: tuple[str, ...]) -> bool:
        return all(self.matches(expected))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of hashing the reference messages under every layout."""

    messages: tuple[bytes, ...]
    expected: tuple[str, ...]
    entries: tuple[SweepEntry, ...]
    canonical: LayoutConfig

    @property
    def matching_layouts(self) -> tuple[LayoutConfig, ...]:
        return tuple(e.layout for e in self.entries
                     if e.full_match(self.expected))

    @property
    def canonical_entry(self) -> SweepEntry:
        for e in self.entries:
            if e.layout == self.canonical:
                return e
        raise LookupError("canonical layout missing from sweep")

    def format_text(self) -> str:
        names = " ".join(m.decode("ascii", "replace") or '""'
                         for m in self.messages)
        lines = [f"layout sweep over {len(self.entries)} candidate "
                 f"configurations, messages: {names}"]
        for e in self.entries:
            tag = " (canonical)" if e.layout == self.canonical else ""
            lines.append(f"  {e.layout.describe()}{tag}")
            if not e.usable:
                lines.append(f"    unusable: {e.error}")
                continue
            for msg, digest, ok in zip(self.messages, e.digests,
                                       e.matches(self.expected)):
                mark = "MATCH" if ok else "differs"
                lines.append(f"    {msg.decode('ascii', 'replace')!r}: "
                             f"{digest}  [{mark}]")
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
            "messages": [m.decode("ascii", "replace") for m in self.messages],
            "expected": list(self.expected),
            "canonical": self.canonical.describe(),
            "entries": [
                {
                    "layout": e.layout.describe(),
                    "usable": e.usable,
                    "error": e.error,
                    "digests": list(e.digests),
                    "matches": list(e.matches(self.expected)),
                }
                for e in self.entries
            ],
            "matching_layouts": [l.describe() for l in self.matching_layouts],
        }


def sweep(params: HfParams | None = None) -> SweepReport:
    """Hash the reference messages under all 16 layouts and compare."""
    if params is None:
        params = default_params()
    messages = tuple(m for m, _ in TEST_VECTORS)
    expected = tuple(e for _, e in TEST_VECTORS)
    entries = []
    for layout in all_layouts():
        trial = params_with(layout=layout, base=params)
        try:
            digests = tuple(hash_bytes(m, trial).hex() for m in messages)
            error = None
        except LayoutError as exc:
            digests = ()
            error = str(exc)
        entries.append(SweepEntry(layout=layout, digests=digests, error=error))
    return SweepReport(messages=messages, expected=expected,
                       entries=tuple(entries), canonical=CANONICAL_LAYOUT)
