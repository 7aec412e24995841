import hashlib

from hfhash.core import CANONICAL_LAYOUT, LayoutConfig, TEST_VECTORS
from hfhash.reconcile import all_layouts, sweep

# fingerprint over the 24 digests of the 8 usable layouts, frozen so the
# enumeration itself is pinned, not just its shape
USABLE_FINGERPRINT = "ad2d0695f2cfe5248be44cd3623960ce41b4a01e6be11d20de247f47f18cf009"

# SHA-256 of the 16 `describe()` lines, newline-joined, in enumeration order
LAYOUT_ORDER_SHA256 = "4fbe21d9e91e9be37f83e9b6dd2af34fd9a9000fa1d42caf651b4f01df8ad049"


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
    usable = [e for e in report.entries if e.usable]
    assert len(usable) == 8
    assert all(e.layout.last_block_map == "shifted" for e in usable)
    for entry in report.entries:
        if not entry.usable:
            assert entry.layout.last_block_map == "literal"
            assert "M_1..M_14" in entry.error
            assert entry.digests == ()


def test_usable_digests_are_frozen(params):
    report = sweep(params)
    blob = "".join("".join(e.digests) for e in report.entries if e.usable)
    assert hashlib.sha256(blob.encode()).hexdigest() == USABLE_FINGERPRINT


def test_no_layout_reproduces_the_published_digests(params):
    report = sweep(params)
    assert report.matching_layouts == ()
    assert not report.canonical_entry.full_match(report.expected)
    assert report.expected == tuple(e for _, e in TEST_VECTORS)


def test_sweep_is_reproducible(params):
    assert sweep(params) == sweep(params)


def test_all_usable_layouts_disagree_pairwise(params):
    # each encoding choice must actually change the digests
    report = sweep(params)
    first = [e.digests[0] for e in report.entries if e.usable]
    assert len(set(first)) == 8


def test_flipped_length_endianness_entry(params):
    report = sweep(params)
    flipped = LayoutConfig(length_endian="big")
    entry = next(e for e in report.entries if e.layout == flipped)
    assert entry.usable
    assert entry.matches(report.expected) == (False, False, False)
    assert entry.digests[0] != report.canonical_entry.digests[0]


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
