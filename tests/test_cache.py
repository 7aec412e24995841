"""The package cache of the parsed asset and the compiled tables.

In-process cases point the cache at ``tmp_path``; CLI starts run in
fresh interpreters, each loading the native module from the package's
own cache and then pointing the cache at a directory of the test's.
"""

import copy
import hashlib
import logging
import pickle
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hfhash import _cache, evaluator, system as system_mod
from hfhash.evaluator import TermSumEvaluator, compile_system
from hfhash.system import ASSET_ENV_VAR, load_default_system, load_system

from engines import child_env, disable_native, native_pmap

A_DIGEST = "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d"
# as in test_evaluate: zero, all ones and every single bit
EDGE_INPUTS = [0, 2**64 - 1] + [1 << i for i in range(64)]

CHILD = """
import sys
from pathlib import Path
from hfhash import _cache, cli, evaluator
evaluator._load_pmap()
_cache.DIR = Path(sys.argv[1])
cli.main(["sum"])
"""


def _sum(cache_dir, **env):
    """`hfhash sum` of b"a" in a fresh interpreter using `cache_dir`."""
    return subprocess.run([sys.executable, "-c", CHILD, str(cache_dir)], input=b"a",
                          capture_output=True, env=child_env(**env), timeout=300)


def _assert_anchor(result):
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == \
        (0, f"{A_DIGEST}  -\n", "")


def _entries(cache_dir):
    """name -> bytes of the data entries in `cache_dir`."""
    return {p.name: p.read_bytes() for p in cache_dir.glob(f"*{_cache.DATA_SUFFIX}")}


def _verifies(data):
    return hashlib.sha256(data[32:]).digest() == data[:32]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache directory that one `hfhash sum` start has filled."""
    cache = tmp_path_factory.mktemp("warm") / "__pycache__"
    _assert_anchor(_sum(cache))
    entries = _entries(cache)
    assert sorted(name.split("-")[0] for name in entries) == ["system", "tables"]
    assert all(_verifies(data) for data in entries.values())
    return cache


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """An empty cache directory for this process."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_cache, "DIR", cache)
    return cache


@pytest.fixture()
def parses(monkeypatch):
    """The lines parsed while the test runs."""
    lines = []

    def spy(line, *args):
        lines.append(line)
        return parse_words(line, *args)

    parse_words = system_mod.parse_words
    monkeypatch.setattr(system_mod, "parse_words", spy)
    return lines


@pytest.fixture()
def builds(monkeypatch):
    """The chunk widths of every table buffer built while the test runs."""
    widths = []

    def spy(masks, const, chunk_widths):
        widths.append(tuple(chunk_widths))
        return pair_tables(masks, const, chunk_widths)

    pair_tables = evaluator._pair_tables
    monkeypatch.setattr(evaluator, "_pair_tables", spy)
    return widths


def _messages(caplog, logger):
    return [r.getMessage() for r in caplog.records if r.name == logger]


def test_second_load_parses_and_builds_nothing(system, cache, parses, builds, caplog):
    caplog.set_level(logging.DEBUG, logger="hfhash")
    first = load_default_system.__wrapped__()
    compile_system(first)
    assert len(parses) == 32 and len(builds) == 1
    assert first == system
    parses.clear()
    builds.clear()
    caplog.clear()

    second = load_default_system.__wrapped__()
    compiled = compile_system(second)
    assert parses == [] and builds == []
    assert compiled.constant_word == system.constant_word
    [loaded] = _messages(caplog, "hfhash.system")
    assert re.fullmatch(r"system-[0-9a-f]{16}\.\S+\.bin: hit in [0-9.]+ ms", loaded)
    [compiled_log] = _messages(caplog, "hfhash.evaluator")
    assert re.search(r"; tables-[0-9_]+-[0-9a-f]{16}\.\S+\.bin: hit in [0-9.]+ ms$",
                     compiled_log)

    assert second == first
    assert [compiled.eval_word(x) for x in (0, 1, 2**64 - 1, 0x0123456789ABCDEF)] == \
        [system.eval_reference(x) for x in (0, 1, 2**64 - 1, 0x0123456789ABCDEF)]


# --- a system read from the cache reads as the parsed one

@pytest.fixture(scope="module")
def parsed():
    return load_system(system_mod._SHIPPED_ASSET.read_text())


@pytest.fixture()
def deferred(cache, parses):
    """A system read from a warm cache."""
    load_default_system.__wrapped__()
    parses.clear()
    loaded = load_default_system.__wrapped__()
    assert parses == []
    return loaded


def _term_sums(system):
    oracle = TermSumEvaluator(system)
    return oracle.constant_word, [oracle.eval_word(x) for x in EDGE_INPUTS]


@pytest.mark.parametrize("reads_as_parsed", [
    lambda d, p: d == p,
    lambda d, p: p == d,
    lambda d, p: not d != p and not p != d,
    lambda d, p: hash(d) == hash(p),
    lambda d, p: repr(d) == repr(p),
    lambda d, p: d.constant_word == p.constant_word,
    lambda d, p: [d.eval_reference(x) for x in EDGE_INPUTS] ==
                 [p.eval_reference(x) for x in EDGE_INPUTS],
    lambda d, p: _term_sums(d) == _term_sums(p),
    lambda d, p: [w.tolist() for w in d.term_words] == [w.tolist() for w in p.term_words],
], ids=["eq", "eq-reflected", "ne", "hash", "repr", "constant_word", "eval_reference",
        "term-sum-oracle", "term_words"])
def test_deferred_system_reads_as_the_parsed_one(deferred, parsed, reads_as_parsed):
    assert reads_as_parsed(deferred, parsed)


def test_deferred_system_pickles_and_copies(deferred, parsed, builds):
    copies = [pickle.loads(pickle.dumps(deferred)), copy.deepcopy(deferred),
              copy.copy(deferred)]
    assert copies == [parsed] * 3
    assert deferred == parsed
    # a copy's tables are the cache entry of the system it copies
    compile_system(deferred)
    builds.clear()
    for c in copies:
        compile_system(c)
    assert builds == []
    assert [[w.tolist() for w in c.term_words] for c in copies] == \
        [[w.tolist() for w in parsed.term_words]] * 3


def test_a_miss_logs_its_entry_and_stores_it(cache, caplog):
    caplog.set_level(logging.DEBUG, logger="hfhash")
    loaded = load_default_system.__wrapped__()
    compile_system(loaded)
    assert _messages(caplog, "hfhash.system")[0] == "parsed 32 polynomials, 33396 terms"
    assert re.fullmatch(r"system-[0-9a-f]{16}\.\S+\.bin: miss, built in [0-9.]+ ms",
                        _messages(caplog, "hfhash.system")[1])
    assert re.search(r"; tables-[0-9_]+-[0-9a-f]{16}\.\S+\.bin: miss, built in [0-9.]+ ms$",
                     _messages(caplog, "hfhash.evaluator")[0])
    assert len(_entries(cache)) == 2


def test_unwritable_cache_logs_why_and_still_loads(system, tmp_path, monkeypatch, caplog):
    (tmp_path / "file").write_bytes(b"")
    monkeypatch.setattr(_cache, "DIR", tmp_path / "file" / "__pycache__")
    caplog.set_level(logging.DEBUG, logger="hfhash")
    loaded = load_default_system.__wrapped__()
    compiled = compile_system(loaded)
    assert loaded == system
    assert compiled.eval_word(0) == system.constant_word
    assert _messages(caplog, "hfhash.system")[1].endswith(", not stored: [Errno 20] "
                                                          f"Not a directory: '{_cache.DIR}'")
    assert "not stored: [Errno 20] Not a directory" in _messages(caplog, "hfhash.evaluator")[0]


def test_each_evaluator_keeps_its_own_tables_entry(system, cache, builds, monkeypatch):
    module = native_pmap()
    compile_system(system)
    with monkeypatch.context() as m:
        disable_native(m)
        compile_system(system)
    assert builds == [module.CHUNK_WIDTHS, evaluator._BYTE_WIDTHS]
    builds.clear()
    compile_system(system)
    with monkeypatch.context() as m:
        disable_native(m)
        compile_system(system)
    assert builds == []
    assert sorted(name.split("-")[0] for name in _entries(cache)) == ["tables", "tables"]


def _edited(text):
    """`text` with the last term of its first polynomial removed."""
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("y_{1}"))
    lines[k] = lines[k].rstrip("\n").rsplit(" + ", 1)[0] + "\n"
    return "".join(lines)


def test_edited_asset_is_a_miss(system, cache, tmp_path, monkeypatch, parses):
    asset = tmp_path / "asset.txt"
    asset.write_text(system_mod._SHIPPED_ASSET.read_text())
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    assert load_default_system.__wrapped__() == system
    before = set(_entries(cache))

    asset.write_text(_edited(asset.read_text()))
    parses.clear()
    edited = load_default_system.__wrapped__()
    assert len(parses) == 32
    assert len(edited.term_words[0]) == len(system.term_words[0]) - 1
    assert [w.tolist() for w in edited.term_words[1:]] == \
        [w.tolist() for w in system.term_words[1:]]
    compiled = compile_system(edited)
    rng = random.Random(3)
    for x in [rng.getrandbits(64) for _ in range(20)]:
        assert compiled.eval_word(x) == edited.eval_reference(x)
    # the new entries replaced the old ones
    assert not before & set(_entries(cache))
    assert len(_entries(cache)) == 2


def _reworded(text):
    """`text` with a comment line added and its second polynomial's terms
    in reverse order: other text, the same words."""
    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("y_{2}"))
    head, body = lines[k].rstrip("\n").split(" = ", 1)
    lines[k] = f"{head} = {' + '.join(reversed(body.split(' + ')))}\n"
    return "# the shipped words, in other text\n" + "".join(lines)


def test_asset_text_holding_the_same_words_reads_the_tables_back(
        system, cache, tmp_path, monkeypatch, parses, builds):
    compile_system(load_default_system.__wrapped__())
    asset = tmp_path / "asset.txt"
    shipped = system_mod._SHIPPED_ASSET.read_text()
    asset.write_text(_reworded(shipped))
    assert asset.read_text() != shipped
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    parses.clear()
    builds.clear()
    reworded = load_default_system.__wrapped__()
    compiled = compile_system(reworded)
    assert len(parses) == 32 and builds == []
    assert reworded == system
    assert [compiled.eval_word(x) for x in EDGE_INPUTS] == \
        [system.eval_reference(x) for x in EDGE_INPUTS]


def test_a_loaded_system_compiled_twice_builds_its_tables_once(cache, builds):
    text = "\n".join(f"y_{{{k}}} = x_{{{k}}}x_{{{k + 32}}} + x_{{{k}}} + 1"
                     for k in range(1, 33))
    first = compile_system(load_system(text))
    second = compile_system(load_system(text))
    assert len(builds) == 1
    assert [name.split("-")[0] for name in _entries(cache)] == ["tables"]
    rng = random.Random(11)
    for x in EDGE_INPUTS + [rng.getrandbits(64) for _ in range(20)]:
        assert second.eval_word(x) == first.eval_word(x) == first.source.eval_reference(x)


def test_changed_package_sources_are_a_miss(system, cache, monkeypatch, parses, builds):
    compile_system(load_default_system.__wrapped__())
    monkeypatch.setattr(_cache, "sources_sha256", lambda: "0" * 64)
    parses.clear()
    builds.clear()
    assert compile_system(load_default_system.__wrapped__()).source == system
    assert len(parses) == 32 and len(builds) == 1


def test_sources_digest_covers_every_source_file(tmp_path, monkeypatch):
    package = Path(_cache.__file__).parent
    sources = sorted([*package.glob("*.py"), *package.glob("*.c")])
    assert {"anf.py", "system.py", "evaluator.py", "_cache.py", "_pmap.c"} <= \
        {p.name for p in sources}
    copy = tmp_path / "hfhash"
    copy.mkdir()
    for path in sources:
        shutil.copy(path, copy)
    monkeypatch.setattr(_cache, "_PACKAGE", copy)
    digest = _cache.sources_sha256.__wrapped__()
    assert digest == _cache.sources_sha256()
    for path in sources:
        original = (copy / path.name).read_bytes()
        (copy / path.name).write_bytes(original + b"\n")
        assert _cache.sources_sha256.__wrapped__() != digest, path.name
        (copy / path.name).write_bytes(original)
    assert _cache.sources_sha256.__wrapped__() == digest


@pytest.mark.parametrize("kind", ["system", "tables"])
@pytest.mark.parametrize("damage", ["truncated", "garbage", "payload-flipped"])
def test_damaged_entry_is_a_miss(warm_cache, tmp_path, kind, damage):
    cache = tmp_path / "__pycache__"
    shutil.copytree(warm_cache, cache)
    [entry] = cache.glob(f"{kind}-*{_cache.DATA_SUFFIX}")
    data = entry.read_bytes()
    if damage == "truncated":
        data = data[:len(data) // 2]
    elif damage == "garbage":
        data = random.Random(7).randbytes(len(data))
    else:
        # every payload bit flipped under the original checksum
        data = data[:32] + bytes(b ^ 0xFF for b in data[32:])
    entry.write_bytes(data)
    _assert_anchor(_sum(cache))
    # the miss stored the entry again
    assert _entries(cache) == _entries(warm_cache)


def test_unwritable_cache_still_hashes(tmp_path):
    (tmp_path / "file").write_bytes(b"")
    _assert_anchor(_sum(tmp_path / "file" / "__pycache__"))


def test_malformed_override_is_one_line_error_while_warm(warm_cache, tmp_path):
    cache = tmp_path / "__pycache__"
    shutil.copytree(warm_cache, cache)
    asset = tmp_path / "bad.txt"
    asset.write_text("y_{1} = x_{99}\n")
    result = _sum(cache, **{ASSET_ENV_VAR: str(asset)})
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == \
        (2, "", f"hfhash: {asset}: line 1, col 9: variable index 99 outside 1..64\n")
    assert _entries(cache) == _entries(warm_cache)


def test_two_starts_racing_on_an_empty_cache(tmp_path):
    cache = tmp_path / "__pycache__"
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, str(cache)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=child_env())
             for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(b"a", timeout=300)
        assert (proc.returncode, out.decode(), err.decode()) == (0, f"{A_DIGEST}  -\n", "")
    entries = _entries(cache)
    assert len(entries) == 2
    assert all(_verifies(data) for data in entries.values())
    assert not list(cache.glob("*.tmp"))
