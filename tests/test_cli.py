import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from hfhash import _cache, cli, core, system
from hfhash.analysis import DEFAULT_AVALANCHE_INPUT, MAX_BENCH_SIZE
from hfhash.cli import main
from hfhash.system import ASSET_ENV_VAR, MAX_ASSET_CHARS

from engines import child_env

A_DIGEST = "36549d60a18cdfeed29aa3fee4953dd333133a41b2ac960b28ad5ec154374c8d"
ABC_DIGEST = "8c6ad071cd652948bb20a1b054e603aa1bb0f6cefb72ed7ec3f60bc86c6e81b7"
EMPTY_DIGEST = "b3bbe9b3470b091357cc0115d21f1ab90d060f03fba017edbe2f52a3179bf0ac"


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture()
def run_cli(monkeypatch):
    """Runs `main(args)` in process, standard input fed from bytes."""
    def invoke(args, stdin=b""):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args, standalone_mode=False)
        return Result(code, out.getvalue(), err.getvalue())
    return invoke


def test_sum_file(run_cli, tmp_path):
    target = tmp_path / "payload.bin"
    target.write_bytes(b"a")
    result = run_cli(["sum", str(target)])
    assert result.exit_code == 0
    assert result.stdout == f"{A_DIGEST}  {target}\n"


def test_sum_stdin(run_cli):
    result = run_cli(["sum"], stdin=b"abc")
    assert result.exit_code == 0
    assert result.stdout == f"{ABC_DIGEST}  -\n"


def test_sum_empty_stdin(run_cli):
    result = run_cli(["sum"], stdin=b"")
    assert result.exit_code == 0
    assert result.stdout.split()[0] == EMPTY_DIGEST


def test_sum_grouped_upper(run_cli):
    result = run_cli(["sum", "--upper", "--grouped"], stdin=b"abc")
    groups = result.stdout.split("  ")[0].split(" ")
    assert len(groups) == 8
    assert "".join(groups) == ABC_DIGEST.upper()


def test_sum_keeps_going_past_unreadable_file(run_cli, tmp_path):
    good = tmp_path / "good.bin"
    good.write_bytes(b"a")
    missing = tmp_path / "missing.bin"
    result = run_cli(["sum", str(missing), str(good)])
    assert result.exit_code == 1
    assert str(missing) in result.stderr
    assert A_DIGEST in result.stdout


def test_sum_reports_a_path_holding_a_nul_byte(run_cli, tmp_path):
    # open() refuses such a path with ValueError, not OSError
    good = tmp_path / "good.bin"
    good.write_bytes(b"a")
    result = run_cli(["sum", "a\0b", str(good)])
    assert result.exit_code == 1
    assert result.stderr == "hfhash: a\0b: embedded null byte\n"
    assert result.stdout == f"{A_DIGEST}  {good}\n"


def test_sum_rounds_flag_changes_digest(run_cli):
    r64 = run_cli(["sum"], stdin=b"abc")
    r32 = run_cli(["sum", "--rounds", "32"], stdin=b"abc")
    assert r32.exit_code == 0
    assert r32.stdout != r64.stdout


def test_selftest_reports_honest_failure(run_cli):
    result = run_cli(["selftest"])
    assert result.exit_code == 1
    assert "0/3 vectors pass" in result.stdout


def test_selftest_json(run_cli):
    result = run_cli(["selftest", "--json"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["total"] == 3
    assert payload["passed"] == 0
    assert len(payload["checks"]) == 3


def test_diffusion_64_meets_bound(run_cli):
    result = run_cli(["diffusion", "--rounds", "64"])
    assert result.exit_code == 0
    assert "min weight 166" in result.stdout
    assert "min weight >= 165 [ok]" in result.stdout


def test_diffusion_48_meets_bound(run_cli):
    result = run_cli(["diffusion", "--rounds", "48"])
    assert result.exit_code == 0
    assert "min weight 74" in result.stdout
    assert "min weight < 75 [ok]" in result.stdout


def test_diffusion_last_rule_skips_bound(run_cli):
    result = run_cli(["diffusion", "--rounds", "48",
                      "--rule", "last"])
    assert result.exit_code == 0
    assert "bound" not in result.stdout


def test_diffusion_json(run_cli):
    result = run_cli(["diffusion", "--rounds", "32", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["min_weight"] == 18
    assert len(payload["per_position_weights"]) == 448


def test_avalanche_seed(run_cli):
    result = run_cli(["avalanche", "--seed", "7"])
    assert result.exit_code == 0
    assert "448 single-bit flips" in result.stdout


def test_avalanche_explicit_input_json(run_cli):
    result = run_cli(["avalanche", "--input",
                      DEFAULT_AVALANCHE_INPUT.hex(), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["message"] == DEFAULT_AVALANCHE_INPUT.hex()
    assert 125 <= payload["summary"]["digest"]["mean"] <= 131


def test_avalanche_bad_input_rejected(run_cli):
    result = run_cli(["avalanche", "--input", "abcd"])
    assert result.exit_code == 2
    result = run_cli(["avalanche", "--input", "zz" * 56])
    assert result.exit_code == 2


@pytest.mark.parametrize("count", [56, 55])
def test_avalanche_input_counts_hex_digits(run_cli, count):
    # bytes.fromhex skips whitespace, which made 56 spaced bytes a valid
    # block and 55 a message that counted the spaces as digits
    result = run_cli(["avalanche", "--input", " ".join(["00"] * count)])
    assert result.exit_code == 2
    assert "need exactly 112 hex digits" in result.stderr


def test_avalanche_input_and_seed_conflict(run_cli):
    result = run_cli(["avalanche", "--input", "00" * 56,
                      "--seed", "3"])
    assert result.exit_code == 2


def test_bench_custom_sizes(run_cli):
    result = run_cli(["bench", "--sizes", "500,1500"])
    assert result.exit_code == 0
    assert "sha256" in result.stdout


def test_bench_rejects_bad_sizes(run_cli):
    assert run_cli(["bench", "--sizes", "abc"]).exit_code == 2
    assert run_cli(["bench", "--sizes", "-5"]).exit_code == 2


@pytest.mark.parametrize("sizes", ["1_000", "\u0663", "7, 8", "+7", ""])
def test_bench_sizes_are_ascii_digits(run_cli, sizes):
    # int() accepts underscores, other scripts' digits and spaces
    result = run_cli(["bench", "--sizes", sizes])
    assert result.exit_code == 2
    assert "sizes must be nonnegative integers" in result.stderr


@pytest.mark.parametrize("size", [str(2**28), str(10**20),
                                  pytest.param("9" * 5000, id="5000-digits")])
def test_bench_rejects_sizes_above_the_cap(run_cli, size):
    # random.Random.randbytes cannot make 2**28 bytes on CPython 3.11, and
    # int() refuses more than 4300 digits
    result = run_cli(["bench", "--sizes", size])
    assert result.exit_code == 2
    assert f"sizes must be at most {2**28 - 1} bytes" in result.stderr


@pytest.mark.parametrize("size, row", [("0" * 5000, 0), ("0" * 4999 + "1", 1)],
                         ids=["5000-zeros", "4999-zeros-then-1"])
def test_bench_reads_a_size_by_its_significant_digits(run_cli, size, row):
    # int() counts leading zeros towards its 4300-digit limit
    result = run_cli(["bench", "--json", f"--sizes={size}"])
    assert result.exit_code == 0, result.stderr
    assert [e["size"] for e in json.loads(result.stdout)["entries"]] == [row]


def test_poly_eval_constant_bits(run_cli):
    result = run_cli(["poly", "--index", "1",
                      "--eval", "0000000000000000"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "y_1(0000000000000000) = 1"
    result = run_cli(["poly", "--index", "3",
                      "--eval", "0000000000000000"])
    assert result.stdout.strip() == "y_3(0000000000000000) = 0"


def test_poly_stats(run_cli):
    result = run_cli(["poly", "--index", "7"])
    assert result.exit_code == 0
    assert "1046 terms" in result.stdout
    result = run_cli(["poly", "--index", "7", "--stats", "--json"])
    payload = json.loads(result.stdout)
    assert payload == {"index": 7, "terms": 1046, "quadratic": 1021,
                       "linear": 24, "constant": 1}


# SHA-256 over every `poly` output of the shipped system and the text of
# each polynomial, recorded before the parser produced term words directly
POLY_OUTPUTS_SHA256 = "2650ad1366a797b6ea3770dcdde056b486c10ad2381e8500cd613d64e8a83b18"
POLY_EVAL_INPUTS = ["0000000000000000", "ffffffffffffffff", "0123456789abcdef"]


def test_poly_outputs_pinned(run_cli, system, canonical_text):
    h = hashlib.sha256()
    for k in range(1, 33):
        runs = [["poly", "--index", str(k)], ["poly", "--index", str(k), "--json"]]
        runs += [["poly", "--index", str(k), "--eval", x, *json_flag]
                 for x in POLY_EVAL_INPUTS for json_flag in ([], ["--json"])]
        for args in runs:
            result = run_cli(args)
            assert result.exit_code == 0, args
            h.update(result.stdout.encode())
        h.update(f"{canonical_text(k, system.term_words[k - 1])}\n".encode())
    assert h.hexdigest() == POLY_OUTPUTS_SHA256


# SHA-256 over the exit code, stdout and stderr of each run below,
# recorded while the command line was built on click
CLI_OUTPUTS_SHA256 = "da12cb07e21fa518e24a652f402be037923558ac900ff9236bbcfe3fd6d1aebd"
CLI_RUNS = [
    (["sum"], b"abc"),
    (["sum", "payload.bin"], b""),
    (["sum"], b""),
    (["sum", "--upper"], b"abc"),
    (["sum", "--grouped"], b"abc"),
    (["sum", "--rounds", "32"], b"abc"),
    (["sum", "--rounds", "48", "payload.bin"], b""),
    (["sum", "missing.bin", "payload.bin"], b""),
    (["sum", "subdir"], b""),
    (["selftest"], b""),
    (["selftest", "--json"], b""),
    *[(["avalanche", "--rounds", "32", *how, *json_flag], b"")
      for how in ([], ["--seed", "7"], ["--input", "5a" * 56])
      for json_flag in ([], ["--json"])],
    *[(["diffusion", "--rounds", rounds, "--rule", rule, *json_flag], b"")
      for rounds in ["32", "48", "64"] for rule in ["non-last", "last"]
      for json_flag in ([], ["--json"])],
    (["poly", "--index", "5", "--eval", "0123456789ABCDEF"], b""),
    (["poly", "--index", "5", "--eval", "0123456789ABCDEF", "--json"], b""),
]


def test_cli_outputs_pinned(run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("payload.bin").write_bytes(bytes(range(256)) * 4)
    Path("subdir").mkdir()
    h = hashlib.sha256()
    results = {}
    for args, stdin in CLI_RUNS:
        result = results[" ".join(args)] = run_cli(args, stdin)
        h.update(f"{result.exit_code}\0{result.stdout}\0{result.stderr}\0".encode())
    assert results["sum missing.bin payload.bin"].stderr == \
        "hfhash: missing.bin: No such file or directory\n"
    assert results["sum subdir"].stderr == "hfhash: subdir: Is a directory\n"
    assert [results[k].exit_code for k in ("selftest", "selftest --json")] == [1, 1]
    assert results["poly --index 5 --eval 0123456789ABCDEF"].stdout.startswith(
        "y_5(0123456789ABCDEF) = ")
    assert h.hexdigest() == CLI_OUTPUTS_SHA256


def test_poly_rejects_bad_flags(run_cli):
    assert run_cli(["poly", "--index", "40"]).exit_code == 2
    for bad in ["xyz", "-000000000000001", "+000000000000001", "0x00000000000001",
                "0000_0000_0000_1", " 00000000000001 "]:
        assert run_cli(["poly", "--index", "1",
                        f"--eval={bad}"]).exit_code == 2, bad
    assert run_cli(["poly", "--index", "1", "--eval",
                    "0" * 16, "--stats"]).exit_code == 2
    assert run_cli(["poly"]).exit_code == 2


@pytest.mark.parametrize("args", [[], ["nope"], ["Sum"], ["-h"], ["sum", "-h"]])
def test_missing_or_unknown_command_is_a_usage_error(run_cli, args):
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage: hfhash" in result.stderr


@pytest.mark.parametrize("args", [["--help"], ["sum", "--help"], ["poly", "--help"]])
def test_help_exits_0(run_cli, args):
    result = run_cli(args)
    assert result.exit_code == 0
    assert result.stdout.startswith("usage: hfhash")


@pytest.mark.parametrize("args", [["sum", "--up"], ["sum", "--rou", "32"],
                                  ["selftest", "--js"], ["avalanche", "--see", "7"],
                                  ["diffusion", "--ru", "last"], ["bench", "--size", "1"],
                                  ["poly", "--ind", "1"], ["poly", "--index", "1", "--st"]])
def test_options_cannot_be_abbreviated(run_cli, args):
    assert run_cli(args).exit_code == 2


@pytest.mark.parametrize("command", ["sum", "selftest", "avalanche", "diffusion"])
@pytest.mark.parametrize("rounds", ["064", " 64", "64 ", "+64", "64.0", "0x40", "6_4", ""])
def test_rounds_takes_only_the_exact_strings(run_cli, command, rounds):
    result = run_cli([command, "--rounds", rounds])
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("spelling", ["7", " 7", "7 ", "+7", "07", "0_7", "\u0667"])
def test_index_takes_any_int_spelling(run_cli, spelling):
    # the index is read by int(), so whatever int() reads as 7 is 7
    assert run_cli(["poly", "--index", spelling]) == run_cli(["poly", "--index", "7"])


@pytest.mark.parametrize("spelling", ["0", "33", "-7", "7.0", "0x7", "", "seven",
                                      pytest.param("9" * 5000, id="5000-digits")])
def test_index_refuses_what_is_not_1_to_32(run_cli, spelling):
    result = run_cli(["poly", "--index", spelling])
    assert result.exit_code == 2
    assert result.stdout == ""


# each command and option, with the arguments that keep a valid run cheap;
# the value is the option's, a path of `sum`, or the command itself
HOSTILE_TARGETS = [
    (["sum", "--rounds=32"], None), (["sum"], "--rounds"), (["selftest"], "--rounds"),
    (["avalanche", "--rounds=32"], "--input"), (["avalanche", "--rounds=32"], "--seed"),
    (["avalanche"], "--rounds"), (["diffusion"], "--rounds"),
    (["diffusion", "--rounds=32"], "--rule"), (["bench"], "--sizes"), (["poly"], "--index"),
    (["poly", "--index=1"], "--eval"), ([], None),
]
HOSTILE = ["", " ", "\t", "\n", "-", "--", "+1", "-1", "-0", "0x1f", "0X1F", "1_0", "1,",
           ",1", "\u0663", "\uff11", "9" * 5000, "0" * 5000, "\0", "1\0", "\0" + "1" * 16,
           "%s", "%(prog)s", "{}", "\udcff", "32", "last", "0" * 112, "f" * 16]
hostile = st.one_of(
    st.sampled_from(HOSTILE),
    st.text(st.sampled_from(" \t\n+-_,.%0123456789abcdefxX\u0663\0"), max_size=10),
    st.builds("".join, st.lists(st.sampled_from(HOSTILE), min_size=2, max_size=3)))


def _runs_long(sizes):
    """Sizes that `bench` takes and that hash more than 1 KB."""
    parts = sizes.split(",")
    digits = [p.lstrip("0") for p in parts]  # a size is judged by its significant digits
    return (all(re.fullmatch("[0-9]+", p) for p in parts)
            and any(4 <= len(d) <= len(str(MAX_BENCH_SIZE)) and 1024 < int(d) <= MAX_BENCH_SIZE
                    for d in digits))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(HOSTILE_TARGETS), value=hostile, joined=st.booleans(),
       as_json=st.booleans())
def test_hostile_arguments_exit_cleanly(run_cli, tmp_path, monkeypatch, target, value,
                                        joined, as_json):
    monkeypatch.chdir(tmp_path)
    fixed, option = target
    if option is None:
        argv = [*fixed, value]
    else:
        argv = [*fixed, f"{option}={value}"] if joined else [*fixed, option, value]
    if as_json and fixed[:1] not in ([], ["sum"]):
        argv.append("--json")
    assume(option != "--sizes" or not _runs_long(value))
    result = run_cli(argv)
    err = result.stderr
    assert result.exit_code in (0, 1, 2), argv
    assert "Traceback" not in err
    if result.exit_code == 0:
        assert err == "", argv
    elif err.startswith("usage: "):
        assert result.exit_code == 2
        assert re.search(r"^hfhash( [a-z]+)?: error: ", err, re.M), err
    elif err:
        assert re.fullmatch(r"hfhash: .*: [^\n]+\n", err, re.S), err
        assert err.startswith(f"hfhash: {value}: ") and fixed == ["sum", "--rounds=32"], err


@pytest.mark.parametrize("args", [
    ["sum", "--rounds=--"], ["selftest", "--rounds=--"], ["avalanche", "--input=--"],
    ["avalanche", "--seed=--"], ["diffusion", "--rule=--"], ["bench", "--sizes=--"],
    ["poly", "--index=--"], ["poly", "--index=1", "--eval=--"],
], ids=" ".join)
def test_an_option_given_as_a_double_dash_is_a_usage_error(run_cli, args):
    # argparse drops the "--" of `--name=--` and hands the option []
    result = run_cli(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    option = args[-1].removesuffix("=--")
    assert result.stderr.endswith(f": error: argument {option}: expected one argument\n")


def test_avalanche_takes_a_negative_seed(run_cli):
    result = run_cli(["avalanche", "--rounds", "32", "--seed", "-3"])
    assert result.exit_code == 0
    assert result == run_cli(["avalanche", "--rounds", "32", "--seed=-3"])


@pytest.mark.parametrize("copies", [1, 2])
def test_closed_pipe_exits_without_traceback(tmp_path, copies):
    # the reader takes 10 bytes of the first line and leaves; a second
    # line then meets a closed pipe: exit 1, and nothing on stderr
    payload = tmp_path / "payload.bin"
    payload.write_bytes(bytes(range(256)) * 800)
    proc = subprocess.Popen([sys.executable, "-m", "hfhash.cli", "sum", *[str(payload)] * copies],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=300) == copies - 1
    assert stderr == b""


def _run(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "hfhash.cli", *args],
                          capture_output=True, timeout=300,
                          env=child_env(PYTHONIOENCODING="utf-8:strict"), **kwargs)


def test_sum_prints_a_name_that_is_not_utf8_as_its_bytes(tmp_path):
    # like sha256sum: the name's own bytes, whatever the output encoding
    name = b"f\xff.bin"
    try:
        (tmp_path / os.fsdecode(name)).write_bytes(b"a")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    proc = _run(["sum", name], cwd=tmp_path, stdin=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == A_DIGEST.encode() + b"  " + name + b"\n"


def test_sum_names_a_missing_file_that_is_not_utf8_by_its_bytes(tmp_path):
    # on stderr as on stdout: the name's own bytes
    proc = _run(["sum", b"missing\xff.bin"], cwd=tmp_path, stdin=subprocess.DEVNULL)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"hfhash: missing\xff.bin: No such file or directory\n"


def test_sum_writes_a_name_that_is_not_utf8_to_a_text_only_stream(run_cli, tmp_path):
    # io.StringIO has no byte buffer; it takes the lone surrogate as it is
    name = str(tmp_path / "missing\udcff.bin")
    assert run_cli(["sum", name]) == Result(1, "", f"hfhash: {name}: No such file or directory\n")


def test_sum_with_standard_input_closed_is_one_line_error():
    proc = _run(["sum"], preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"hfhash: -: Bad file descriptor\n"


@pytest.mark.parametrize("command", ["selftest", "sum"])
def test_standard_output_closed_is_one_line_error(command):
    # the wording of sha256sum's write error
    proc = _run([command], stdin=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"hfhash: write error: Bad file descriptor\n"


@pytest.fixture()
def uncached_asset(monkeypatch, tmp_path):
    # commands reach the asset through two cached loaders, which `cli`
    # and `core` both call, `poly` straight through the second; bypass
    # both so the environment variable is read again, and leave the
    # caches intact; an asset loaded here is stored in a cache of its
    # own, so that the package's entries stay
    monkeypatch.setattr(_cache, "DIR", tmp_path / "__pycache__")
    monkeypatch.setattr(cli, "default_params", core.default_params.__wrapped__)
    monkeypatch.setattr(core, "default_params", core.default_params.__wrapped__)
    monkeypatch.setattr(core, "load_default_system", core.load_default_system.__wrapped__)
    monkeypatch.setattr(cli, "load_default_system", system.load_default_system.__wrapped__)


def test_malformed_asset_is_one_line_usage_error(run_cli, tmp_path, monkeypatch,
                                                 uncached_asset):
    asset = tmp_path / "bad.txt"
    asset.write_text("y_{1} = x_{99}\n")
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = run_cli(["sum"], stdin=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: line 1, col 9: variable index 99 outside 1..64\n"


def test_overlong_polynomial_index_is_one_line_usage_error(run_cli, tmp_path, monkeypatch,
                                                          uncached_asset):
    # int() refuses the 5000-digit index; that must not escape as a traceback
    asset = tmp_path / "long.txt"
    asset.write_text("y_{" + "1" * 5000 + "} = x_{1}\n")
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = run_cli(["sum"], stdin=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (f"hfhash: {asset}: line 1, col 3: "
                             "polynomial index of 5000 digits is too long\n")


def test_missing_shipped_asset_is_one_line_usage_error(run_cli, tmp_path, monkeypatch,
                                                       uncached_asset):
    asset = tmp_path / "polynomials.txt"
    monkeypatch.delenv(ASSET_ENV_VAR, raising=False)
    monkeypatch.setattr(system, "_SHIPPED_ASSET", asset)
    result = run_cli(["sum"], stdin=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: No such file or directory\n"


def test_missing_asset_is_one_line_usage_error(run_cli, tmp_path, monkeypatch,
                                               uncached_asset):
    asset = tmp_path / "missing.txt"
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = run_cli(["sum"], stdin=b"a")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: No such file or directory\n"


@pytest.mark.parametrize("source", ["over-cap-file", "dev-zero"])
def test_oversized_asset_is_one_line_usage_error(run_cli, tmp_path, monkeypatch,
                                                 uncached_asset, source):
    if source == "dev-zero":
        asset = "/dev/zero"
    else:
        asset = tmp_path / "big.txt"
        asset.write_bytes(b"#" * (MAX_ASSET_CHARS + 1))
    monkeypatch.setenv(ASSET_ENV_VAR, str(asset))
    result = run_cli(["poly", "--index", "1"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"hfhash: {asset}: more than {MAX_ASSET_CHARS} characters\n"
