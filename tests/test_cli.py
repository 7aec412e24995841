import hashlib
import json

import pytest
from click.testing import CliRunner

from hfhash import _cache, cli, core, system
from hfhash.analysis import DEFAULT_AVALANCHE_INPUT
from hfhash.cli import main
from hfhash.system import ASSET_ENV_VAR, MAX_ASSET_CHARS

A_DIGEST = "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d"
ABC_DIGEST = "8c6ad071cd652948bb20a1b054e603aa1bb0f6cefb72ed7ec3f60bc86c6e81b7"
EMPTY_DIGEST = "b3bbe9b3470b091357cc0115d21f1ab90d060f03fba017edbe2f52a3179bf0ac"


@pytest.fixture()
def runner():
    return CliRunner()


def test_sum_file(runner, tmp_path):
    target = tmp_path / "payload.bin"
    target.write_bytes(b"a")
    result = runner.invoke(main, ["sum", str(target)])
    assert result.exit_code == 0
    assert result.output == f"{A_DIGEST}  {target}\n"


def test_sum_stdin(runner):
    result = runner.invoke(main, ["sum"], input=b"abc")
    assert result.exit_code == 0
    assert result.output == f"{ABC_DIGEST}  -\n"


def test_sum_empty_stdin(runner):
    result = runner.invoke(main, ["sum"], input=b"")
    assert result.exit_code == 0
    assert result.output.split()[0] == EMPTY_DIGEST


def test_sum_grouped_upper(runner):
    result = runner.invoke(main, ["sum", "--upper", "--grouped"], input=b"abc")
    groups = result.output.split("  ")[0].split(" ")
    assert len(groups) == 8
    assert "".join(groups) == ABC_DIGEST.upper()


def test_sum_keeps_going_past_unreadable_file(runner, tmp_path):
    good = tmp_path / "good.bin"
    good.write_bytes(b"a")
    missing = tmp_path / "missing.bin"
    result = runner.invoke(main, ["sum", str(missing), str(good)])
    assert result.exit_code == 1
    assert str(missing) in result.stderr
    assert A_DIGEST in result.output


def test_sum_rounds_flag_changes_digest(runner):
    r64 = runner.invoke(main, ["sum"], input=b"abc")
    r32 = runner.invoke(main, ["sum", "--rounds", "32"], input=b"abc")
    assert r32.exit_code == 0
    assert r32.output != r64.output


def test_selftest_reports_honest_failure(runner):
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 1
    assert "0/3 vectors pass" in result.output


def test_selftest_json(runner):
    result = runner.invoke(main, ["selftest", "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["total"] == 3
    assert payload["passed"] == 0
    assert len(payload["checks"]) == 3


def test_diffusion_64_meets_bound(runner):
    result = runner.invoke(main, ["diffusion", "--rounds", "64"])
    assert result.exit_code == 0
    assert "min weight 166" in result.output
    assert "min weight >= 165 [ok]" in result.output


def test_diffusion_48_meets_bound(runner):
    result = runner.invoke(main, ["diffusion", "--rounds", "48"])
    assert result.exit_code == 0
    assert "min weight 74" in result.output
    assert "min weight < 75 [ok]" in result.output


def test_diffusion_last_rule_skips_bound(runner):
    result = runner.invoke(main, ["diffusion", "--rounds", "48",
                                  "--rule", "last"])
    assert result.exit_code == 0
    assert "bound" not in result.output


def test_diffusion_json(runner):
    result = runner.invoke(main, ["diffusion", "--rounds", "32", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["min_weight"] == 18
    assert len(payload["per_position_weights"]) == 448


def test_avalanche_seed(runner):
    result = runner.invoke(main, ["avalanche", "--seed", "7"])
    assert result.exit_code == 0
    assert "448 single-bit flips" in result.output


def test_avalanche_explicit_input_json(runner):
    result = runner.invoke(main, ["avalanche", "--input",
                                  DEFAULT_AVALANCHE_INPUT.hex(), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["message"] == DEFAULT_AVALANCHE_INPUT.hex()
    assert 125 <= payload["summary"]["digest"]["mean"] <= 131


def test_avalanche_bad_input_rejected(runner):
    result = runner.invoke(main, ["avalanche", "--input", "abcd"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["avalanche", "--input", "zz" * 56])
    assert result.exit_code == 2


@pytest.mark.parametrize("count", [56, 55])
def test_avalanche_input_counts_hex_digits(runner, count):
    # bytes.fromhex skips whitespace, which made 56 spaced bytes a valid
    # block and 55 a message that counted the spaces as digits
    result = runner.invoke(main, ["avalanche", "--input", " ".join(["00"] * count)])
    assert result.exit_code == 2
    assert "need exactly 112 hex digits" in result.output


def test_avalanche_input_and_seed_conflict(runner):
    result = runner.invoke(main, ["avalanche", "--input", "00" * 56,
                                  "--seed", "3"])
    assert result.exit_code == 2


def test_bench_custom_sizes(runner):
    result = runner.invoke(main, ["bench", "--sizes", "500,1500"])
    assert result.exit_code == 0
    assert "sha256" in result.output


def test_bench_rejects_bad_sizes(runner):
    assert runner.invoke(main, ["bench", "--sizes", "abc"]).exit_code == 2
    assert runner.invoke(main, ["bench", "--sizes", "-5"]).exit_code == 2


@pytest.mark.parametrize("sizes", ["1_000", "\u0663", "7, 8", "+7", ""])
def test_bench_sizes_are_ascii_digits(runner, sizes):
    # int() accepts underscores, other scripts' digits and spaces
    result = runner.invoke(main, ["bench", "--sizes", sizes])
    assert result.exit_code == 2
    assert "sizes must be nonnegative integers" in result.output


@pytest.mark.parametrize("size", [str(2**28), str(10**20),
                                  pytest.param("9" * 5000, id="5000-digits")])
def test_bench_rejects_sizes_above_the_cap(runner, size):
    # random.Random.randbytes cannot make 2**28 bytes on CPython 3.11, and
    # int() refuses more than 4300 digits
    result = runner.invoke(main, ["bench", "--sizes", size])
    assert result.exit_code == 2
    assert f"sizes must be at most {2**28 - 1} bytes" in result.output


def test_poly_eval_constant_bits(runner):
    result = runner.invoke(main, ["poly", "--index", "1",
                                  "--eval", "0000000000000000"])
    assert result.exit_code == 0
    assert result.output.strip() == "y_1(0000000000000000) = 1"
    result = runner.invoke(main, ["poly", "--index", "3",
                                  "--eval", "0000000000000000"])
    assert result.output.strip() == "y_3(0000000000000000) = 0"


def test_poly_stats(runner):
    result = runner.invoke(main, ["poly", "--index", "7"])
    assert result.exit_code == 0
    assert "1046 terms" in result.output
    result = runner.invoke(main, ["poly", "--index", "7", "--stats", "--json"])
    payload = json.loads(result.output)
    assert payload == {"index": 7, "terms": 1046, "quadratic": 1021,
                       "linear": 24, "constant": 1}


# SHA-256 over every `poly` output of the shipped system and the text of
# each polynomial, recorded before the parser produced term words directly
POLY_OUTPUTS_SHA256 = "2650ad1366a797b6ea3770dcdde056b486c10ad2381e8500cd613d64e8a83b18"
POLY_EVAL_INPUTS = ["0000000000000000", "ffffffffffffffff", "0123456789abcdef"]


def test_poly_outputs_pinned(runner, system):
    h = hashlib.sha256()
    for k in range(1, 33):
        runs = [["poly", "--index", str(k)], ["poly", "--index", str(k), "--json"]]
        runs += [["poly", "--index", str(k), "--eval", x, *json_flag]
                 for x in POLY_EVAL_INPUTS for json_flag in ([], ["--json"])]
        for args in runs:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, args
            h.update(result.output.encode())
        h.update(f"{system.polys[k - 1]}\n".encode())
    assert h.hexdigest() == POLY_OUTPUTS_SHA256


def test_poly_rejects_bad_flags(runner):
    assert runner.invoke(main, ["poly", "--index", "40"]).exit_code == 2
    for bad in ["xyz", "-000000000000001", "+000000000000001", "0x00000000000001",
                "0000_0000_0000_1", " 00000000000001 "]:
        assert runner.invoke(main, ["poly", "--index", "1",
                                    f"--eval={bad}"]).exit_code == 2, bad
    assert runner.invoke(main, ["poly", "--index", "1", "--eval",
                                "0" * 16, "--stats"]).exit_code == 2
    assert runner.invoke(main, ["poly"]).exit_code == 2


@pytest.fixture()
def uncached_asset(monkeypatch, tmp_path):
    # commands reach the asset through two cached loaders, `poly` straight
    # through the second; bypass both so the environment variable is read
    # again, and leave the caches intact; an asset loaded here is stored
    # in a cache of its own, so that the package's entries stay
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    monkeypatch.setattr(core, "default_params", core.default_params.__wrapped__)
    monkeypatch.setattr(core, "load_default_system", core.load_default_system.__wrapped__)
    monkeypatch.setattr(cli, "load_default_system", system.load_default_system.__wrapped__)


def test_malformed_asset_is_one_line_usage_error(runner, tmp_path, monkeypatch,
                                                 uncached_asset):
    asset = tmp_path / "bad.txt"
    asset.write_text("y_{1} = x_{99}\n")
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = runner.invoke(main, ["sum"], input=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: line 1, col 9: variable index 99 outside 1..64\n"


def test_overlong_polynomial_index_is_one_line_usage_error(runner, tmp_path, monkeypatch,
                                                          uncached_asset):
    # int() refuses the 5000-digit index; that must not escape as a traceback
    asset = tmp_path / "long.txt"
    asset.write_text("y_{" + "1" * 5000 + "} = x_{1}\n")
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = runner.invoke(main, ["sum"], input=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"hfhash: {asset}: line 1, col 3: "
                             "polynomial index of 5000 digits is too long\n")


def test_missing_shipped_asset_is_one_line_usage_error(runner, tmp_path, monkeypatch,
                                                       uncached_asset):
    asset = tmp_path / "polynomials.txt"
    monkeypatch.delenv(ASSET_ENV_VAR, raising=False)
    monkeypatch.setattr(system, "_SHIPPED_ASSET", asset)
    result = runner.invoke(main, ["sum"], input=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: No such file or directory\n"


def test_missing_asset_is_one_line_usage_error(runner, tmp_path, monkeypatch,
                                               uncached_asset):
    asset = tmp_path / "missing.txt"
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = runner.invoke(main, ["sum"], input=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: No such file or directory\n"


@pytest.mark.parametrize("source", ["over-cap-file", "dev-zero"])
def test_oversized_asset_is_one_line_usage_error(runner, tmp_path, monkeypatch,
                                                 uncached_asset, source):
    if source == "dev-zero":
        asset = "/dev/zero"
    else:
        asset = tmp_path / "big.txt"
        asset.write_bytes(b"#" * (MAX_ASSET_CHARS + 1))
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = runner.invoke(main, ["poly", "--index", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: more than {MAX_ASSET_CHARS} characters\n"
