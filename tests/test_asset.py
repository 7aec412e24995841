import copy
import logging
import pickle
from importlib import resources

import pytest

from hfhash import _cache
from hfhash.anf import NUM_VARS, SYSTEM_SIZE, PolynomialSyntaxError, _vars
from hfhash.evaluator import TermSumEvaluator, compile_system
from hfhash.system import (
    ASSET_ENV_VAR,
    MAX_ASSET_CHARS,
    AssetError,
    PolynomialSystem,
    SystemFormatError,
    load_default_system,
    load_system,
)

# per-polynomial term counts of the shipped asset, frozen after an
# independent text-splitting pass over the definitions
EXPECTED_TERM_COUNTS = (
    1041, 1079, 1038, 1005, 1030, 1043, 1046, 1071,
    1047, 1027, 1012, 1029, 1033, 1023, 1035, 1044,
    1065, 1068, 1062, 1037, 1039, 1073, 1017, 1046,
    1044, 1049, 1048, 1039, 1046, 1030, 1072, 1058,
)


def _asset_lines():
    text = (resources.files("hfhash") / "data" / "polynomials.txt").read_text()
    return [ln for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def test_shipped_asset_defines_y1_to_y32_in_order(system):
    assert len(system.term_words) == SYSTEM_SIZE
    # the asset's lines name y_1 .. y_32 in order
    assert [int(line.split("}", 1)[0].removeprefix("y_{")) for line in _asset_lines()] == \
        list(range(1, SYSTEM_SIZE + 1))


def test_term_counts_match_frozen_audit(system):
    assert tuple(map(len, system.term_words)) == EXPECTED_TERM_COUNTS
    assert sum(EXPECTED_TERM_COUNTS) == 33396


def test_term_counts_match_text_splitting(system):
    # independent oracle: count '+'-separated chunks straight off the text
    lines = _asset_lines()
    assert len(lines) == SYSTEM_SIZE
    for line, words in zip(lines, system.term_words):
        body = line.split("=", 1)[1]
        assert len(body.split("+")) == len(words)


def test_parser_shares_one_monomial_per_distinct_term(system):
    terms = [w for words in system.term_words for w in words]
    assert len(terms) == 33396
    # every valid term (1 + 64 + 64*63/2 = 2081) occurs, each as one word
    assert len(set(terms)) == 2081


def test_all_variables_within_64(system):
    for words in system.term_words:
        for w in words:
            assert all(1 <= v <= NUM_VARS for v in _vars(w))


def test_audit_breakdown_sums(system):
    for k, words in enumerate(system.term_words, start=1):
        quadratic = sum(1 for w in words if w & 0xFF)
        linear = sum(1 for w in words if w >> 8 and not w & 0xFF)
        constant = list(words).count(0)
        assert len(words) == quadratic + linear + constant
        assert constant in (0, 1)
        assert len(words) == EXPECTED_TERM_COUNTS[k - 1]


def test_load_logs_one_summary_line(caplog):
    text = (resources.files("hfhash") / "data" / "polynomials.txt").read_text()
    with caplog.at_level(logging.DEBUG, logger="hfhash.system"):
        load_system(text)
    records = [r for r in caplog.records if r.name == "hfhash.system"]
    assert [r.getMessage() for r in records] == ["parsed 32 polynomials, 33396 terms"]


def test_constant_word_frozen(system):
    # bit (32-k) of eval at zero equals the constant term of y_k
    assert system.constant_word == 0xDFE78646
    assert system.eval_reference(0) == 0xDFE78646


def test_all_ones_input_gives_term_parity(system):
    # every term evaluates to 1 at the all-ones input
    x = 2**64 - 1
    parities = [len(words) % 2 for words in system.term_words]
    assert system.eval_reference(x) == int("".join(map(str, parities)), 2)


def test_wrong_polynomial_count_rejected():
    lines = "\n".join(f"y_{{{k}}} = x_{{1}}" for k in range(1, 32))
    with pytest.raises(SystemFormatError, match="expected 32"):
        load_system(lines)


def test_out_of_order_indices_rejected():
    lines = [f"y_{{{k}}} = x_{{1}}" for k in range(1, 33)]
    lines[5], lines[6] = lines[6], lines[5]
    with pytest.raises(SystemFormatError, match="position"):
        load_system("\n".join(lines))


def test_a_system_is_made_from_its_words(system):
    with pytest.raises(TypeError):
        PolynomialSystem()
    made = PolynomialSystem(system.words)
    assert made == system and made.words is system.words


@pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))],
                         ids=["bytearray", "memoryview"])
def test_a_system_made_from_a_writable_buffer_keeps_its_words(wrap, tmp_path, monkeypatch):
    # its tables go to a cache of its own, so that the package's entries stay
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    made = load_system("\n".join(f"y_{{{k}}} = x_{{{k}}}x_{{{k + 1}}} + x_{{{k + 32}}}"
                                 for k in range(1, 33)))
    source = wrap(made.words)
    system = PolynomialSystem(source)
    assert hash(system) == hash(made)
    assert pickle.loads(pickle.dumps(system)) == made
    assert copy.deepcopy(system) == made
    compiled = compile_system(system)
    inputs = [1, 2**64 - 1, 0x0123456789ABCDEF]
    want = [made.eval_reference(x) for x in inputs]
    # every term word becomes the constant: each polynomial would read 0
    source[2 * SYSTEM_SIZE:] = bytes(len(source) - 2 * SYSTEM_SIZE)
    for evaluate in (system.eval_reference, compiled.eval_word,
                     TermSumEvaluator(system).eval_word):
        assert [evaluate(x) for x in inputs] == want
    assert system == made


@pytest.mark.parametrize("words", [
    b"", b"\0", bytes(2 * SYSTEM_SIZE - 2), b"\1\0" + bytes(2 * SYSTEM_SIZE - 2),
    bytes(2 * SYSTEM_SIZE + 2),
], ids=["empty", "one-byte", "31-counts", "a-count-without-its-term", "a-term-not-counted"])
def test_words_that_miscount_their_terms_are_rejected(words):
    with pytest.raises(SystemFormatError, match="do not hold the terms they count"):
        PolynomialSystem(words)


def test_blank_lines_and_comments_ignored():
    lines = ["# header", ""]
    for k in range(1, 33):
        lines.append(f"y_{{{k}}} = x_{{{k}}} + 1")
        lines.append("")
    loaded = load_system("\n".join(lines))
    assert isinstance(loaded, PolynomialSystem)
    assert loaded.constant_word == 0xFFFFFFFF


def test_parse_error_reports_line_number():
    lines = ["y_{1} = x_{1}", "y_{2} = x_{1}x_{65}"]
    with pytest.raises(PolynomialSyntaxError) as exc_info:
        load_system("\n".join(lines))
    assert "line 2" in str(exc_info.value)


def _shipped_text():
    return (resources.files("hfhash") / "data" / "polynomials.txt").read_text()


def _load_uncached(monkeypatch, tmp_path, path):
    # stored in a cache of its own, so that the package's entries stay
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    monkeypatch.setenv(ASSET_ENV_VAR, str(path))
    return load_default_system.__wrapped__()


def test_asset_of_exactly_the_cap_loads(system, tmp_path, monkeypatch):
    text = _shipped_text()
    asset = tmp_path / "padded.txt"
    asset.write_text(text + "#" * (MAX_ASSET_CHARS - len(text)))
    assert asset.stat().st_size == MAX_ASSET_CHARS
    assert _load_uncached(monkeypatch, tmp_path, asset) == system


def test_asset_one_byte_over_the_cap_is_refused(tmp_path, monkeypatch):
    text = _shipped_text()
    asset = tmp_path / "padded.txt"
    asset.write_text(text + "#" * (MAX_ASSET_CHARS + 1 - len(text)))
    with pytest.raises(AssetError) as exc_info:
        _load_uncached(monkeypatch, tmp_path, asset)
    assert str(exc_info.value) == f"{asset}: more than {MAX_ASSET_CHARS} characters"


def test_endless_asset_is_refused_after_the_cap(tmp_path, monkeypatch):
    # /dev/zero never ends: the read stops one character past the cap
    with pytest.raises(AssetError) as exc_info:
        _load_uncached(monkeypatch, tmp_path, "/dev/zero")
    assert str(exc_info.value) == f"/dev/zero: more than {MAX_ASSET_CHARS} characters"
