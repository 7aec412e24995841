import hashlib
import json
from dataclasses import replace

import pytest

from hfhash.core import (
    CANONICAL_LAYOUT,
    LayoutConfig,
    LayoutError,
    TEST_VECTORS,
    self_test,
)
from hfhash.reconcile import all_layouts, sweep

# fingerprint over the 24 digests of the 8 usable layouts, frozen so the
# enumeration itself is pinned, not just its shape
USABLE_FINGERPRINT = "ad2d0695f2cfe5248be44cd3623960ce41b4a01e6be11d20de247f47f18cf009"

# SHA-256 of the 16 `describe()` lines, newline-joined, in enumeration order
LAYOUT_ORDER_SHA256 = "4fbe21d9e91e9be37f83e9b6dd2af34fd9a9000fa1d42caf651b4f01df8ad049"

# SHA-256 of the sweep's and the self test's text and sorted-key JSON,
# pinned so that any change to either report shows
SWEEP_DICT_SHA256 = "ec382084e1ee26aada9ba77ac8b8a5ea2e4f96bdb0a8f19638451cff7ea9bf33"
SWEEP_TEXT_SHA256 = "98b29a3de1eebd08a6bd392276c59483404e88021f97aaa9874fe1453b2629e4"
SELF_TEST_TEXT_SHA256 = "32a434dfd10bb2e774b441f98fb81dc7752652432b656cc504bd61c6be602e23"
SELF_TEST_DICT_SHA256 = "b4c20bbd0351ac862acb7c386a08c22b1c94c3a72d390c0d18643a17a548a07b"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(entry):
    return tuple(c.actual for c in entry.report.checks)


def test_sixteen_distinct_layouts():
    layouts = all_layouts()
    assert len(layouts) == 16
    assert len(set(layouts)) == 16
    assert CANONICAL_LAYOUT in layouts


def test_layout_order_is_pinned():
    text = "\n".join(layout.describe() for layout in all_layouts())
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_ORDER_SHA256


def test_half_of_the_layouts_are_usable(params):
    report = sweep(params)
    assert len(report.entries) == 16
    usable = [e for e in report.entries if e.report is not None]
    assert len(usable) == 8
    assert all(e.layout.last_block_map == "shifted" for e in usable)
    for entry in report.entries:
        if entry.report is None:
            assert entry.layout.last_block_map == "literal"
            assert "M_1..M_14" in entry.error


def test_usable_digests_are_frozen(params):
    report = sweep(params)
    blob = "".join("".join(_digests(e)) for e in report.entries if e.report is not None)
    assert hashlib.sha256(blob.encode()).hexdigest() == USABLE_FINGERPRINT


def test_no_layout_reproduces_the_published_digests(params):
    report = sweep(params)
    assert report.matching_layouts == ()
    for entry in report.entries:
        if entry.report is not None:
            assert entry.report.passed == 0
            assert [(c.message, c.expected) for c in entry.report.checks] == list(TEST_VECTORS)


def test_sweep_is_reproducible(params):
    assert sweep(params) == sweep(params)


def test_all_usable_layouts_disagree_pairwise(params):
    # each encoding choice must actually change the digests
    report = sweep(params)
    first = [_digests(e)[0] for e in report.entries if e.report is not None]
    assert len(set(first)) == 8


def test_flipped_length_endianness_entry(params):
    report = sweep(params)
    flipped = LayoutConfig(length_endian="big")
    entry = next(e for e in report.entries if e.layout == flipped)
    canonical = next(e for e in report.entries if e.layout == report.canonical)
    assert entry.report is not None
    assert [c.ok for c in entry.report.checks] == [False, False, False]
    assert _digests(entry)[0] != _digests(canonical)[0]


def test_report_text_and_dict(params):
    report = sweep(params)
    text = report.format_text()
    assert "16 candidate configurations" in text
    assert "matching layouts: none" in text
    assert "(canonical)" in text
    d = report.to_dict()
    assert len(d["entries"]) == 16
    assert d["matching_layouts"] == []
    assert d["canonical"] == CANONICAL_LAYOUT.describe()
    assert sum(e["usable"] for e in d["entries"]) == 8


def test_sweep_outputs_are_pinned(params):
    report = sweep(params)
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == SWEEP_DICT_SHA256
    assert _sha256(report.format_text()) == SWEEP_TEXT_SHA256


def test_self_test_outputs_are_pinned(params):
    report = self_test(params)
    assert _sha256(report.format_text()) == SELF_TEST_TEXT_SHA256
    assert _sha256(json.dumps(report.to_dict(), sort_keys=True)) == SELF_TEST_DICT_SHA256


def test_sweep_runs_the_self_test_under_each_layout(params):
    report = sweep(params)
    assert sum(e.report is None for e in report.entries) == 8
    for entry in report.entries:
        trial = replace(params, layout=entry.layout)
        if entry.report is not None:
            assert entry.error is None
            assert entry.report == self_test(trial)
        else:
            assert entry.report is None
            with pytest.raises(LayoutError) as err:
                self_test(trial)
            assert entry.error == str(err.value)
