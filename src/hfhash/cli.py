"""Command-line interface: hashing, self-test, experiments, inspection."""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import replace

from .core import BLOCK_BYTES, VALID_ROUNDS, Hasher, default_params, self_test
from .system import AssetError, load_default_system

# thresholds the non-last-rule diffusion experiment is expected to meet
_DIFFUSION_BOUNDS = {64: (">=", 165), 48: ("<", 75), 32: ("<", 75)}


def _hex(n: int):
    """An option type: ``n`` bytes as ASCII hex digits, kept as typed."""
    def check(text: str) -> str:
        if not re.fullmatch(f"[0-9a-fA-F]{{{2 * n}}}", text):
            raise argparse.ArgumentTypeError(f"need exactly {2 * n} hex digits")
        return text
    return check


def _sizes(text: str) -> tuple[int, ...]:
    """An option type: comma-separated sizes in ASCII digits, capped."""
    from .analysis import MAX_BENCH_SIZE

    parts = text.split(",")
    if not all(re.fullmatch("[0-9]+", s) for s in parts):
        raise argparse.ArgumentTypeError("sizes must be nonnegative integers")
    try:
        sizes = tuple(int(s) for s in parts)
        too_big = any(s > MAX_BENCH_SIZE for s in sizes)
    except ValueError:  # int() refuses more than 4300 digits
        too_big = True
    if too_big:
        raise argparse.ArgumentTypeError(f"sizes must be at most {MAX_BENCH_SIZE} bytes")
    return sizes


def _echo(text: str, file=None) -> None:
    """Writes ``text`` and a newline in one call, then flushes.  A file
    name that is not UTF-8, or that the stream cannot encode, goes out as
    its original bytes, as `sha256sum` prints it."""
    file = _open(file or sys.stdout)
    try:
        text.encode()  # a name that is not UTF-8 holds lone surrogates
        file.write(text + "\n")
    except UnicodeEncodeError:
        if hasattr(file, "buffer"):
            file.buffer.write(os.fsencode(text + "\n"))
        else:  # a text-only stream, such as io.StringIO, takes them as they are
            file.write(text + "\n")
    file.flush()


def _open(stream):
    """A standard stream; EBADF if Python started with it closed."""
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return stream


def _emit(report, as_json: bool) -> None:
    if as_json:
        import json
        _echo(json.dumps(report.to_dict(), indent=2))
    else:
        _echo(report.format_text())


def cmd_sum(paths, upper, grouped, rounds):
    """Print `<digest>  <name>` for each file, or for standard input."""
    params = replace(default_params(), rounds=int(rounds))
    failed = False
    for path in paths or ["-"]:
        hasher = Hasher(params)
        try:
            with nullcontext(_open(sys.stdin).buffer) if path == "-" else open(path, "rb") as fh:
                while chunk := fh.read(1 << 16):
                    hasher.update(chunk)
        except (OSError, ValueError) as exc:  # open() refuses a NUL byte with ValueError
            _echo(f"hfhash: {path}: {getattr(exc, 'strerror', None) or exc}", sys.stderr)
            failed = True
        else:
            _echo(f"{hasher.finalize().formatted(upper=upper, grouped=grouped)}  {path}")
    return int(failed)


def cmd_selftest(rounds, as_json):
    """Compare the three reference digests against fresh computations."""
    report = self_test(replace(default_params(), rounds=int(rounds)))
    _emit(report, as_json)
    return int(not report.all_ok)


def cmd_avalanche(input_hex, seed, rounds, as_json):
    """Flip all 448 bits of a one-block message, tabulate distances."""
    from . import analysis

    if input_hex is not None:
        message = bytes.fromhex(input_hex)
    elif seed is not None:
        import random
        message = random.Random(seed).randbytes(BLOCK_BYTES)
    else:
        message = analysis.DEFAULT_AVALANCHE_INPUT
    _emit(analysis.avalanche(message, replace(default_params(), rounds=int(rounds))), as_json)
    return 0


def cmd_diffusion(rounds, rule, as_json):
    """Schedule-difference weights for single-bit message flips.

    With the non-last rule the minimum weight is checked against the
    expected bound for the round count (at least 165 at 64 rounds,
    below 75 at 32 and 48); a violation exits nonzero.
    """
    from . import analysis

    report = analysis.diffusion(rounds=int(rounds), rule=rule)
    _emit(report, as_json)
    if rule != "non-last":
        return 0
    op, bound = _DIFFUSION_BOUNDS[report.rounds]
    ok = report.min_weight >= bound if op == ">=" else report.min_weight < bound
    if not as_json:
        _echo(f"bound: min weight {op} {bound} [{'ok' if ok else 'VIOLATED'}]")
    return int(not ok)


def cmd_bench(sizes, as_json):
    """Time one-shot hashing against a SHA-256 baseline.

    The default ladder (1.4 to 24.3 MB) takes several minutes on the
    compiled path; pass --sizes for a quicker run.  The term-sum
    oracle is only timed on inputs up to 1 MiB.  A size may be at most
    2**28 - 1 bytes.
    """
    from . import analysis

    _emit(analysis.bench(sizes=sizes or analysis.DEFAULT_BENCH_SIZES), as_json)
    return 0


def cmd_poly(index, eval_hex, stats, as_json):
    """Inspect one polynomial of the shipped system."""
    import json

    system = load_default_system()
    if eval_hex is not None:
        bit = system.eval_reference(int(eval_hex, 16)) >> (32 - index) & 1
        info = {"index": index, "input": eval_hex, "value": bit}
        text = f"y_{index}({eval_hex}) = {bit}"
    else:
        words = system.term_words[index - 1]
        info = {"index": index, "terms": len(words),
                "quadratic": sum(1 for w in words if w & 0xFF),
                "linear": sum(1 for w in words if w >> 8 and not w & 0xFF),
                "constant": int(0 in words)}
        text = (f"y_{index}: {info['terms']} terms ({info['quadratic']} quadratic, "
                f"{info['linear']} linear, constant {info['constant']})")
    _echo(json.dumps(info) if as_json else text)
    return 0


class _Store(argparse.Action):
    """argparse's default action, except that an option given as
    ``--name=--`` is a usage error: argparse drops the ``--`` and hands
    the option an empty list, which no command takes."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == [] and self.nargs is None:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def _parser() -> argparse.ArgumentParser:
    # --help but no -h, and every option spelled in full
    def parser(adder, **kwargs):
        new = adder(add_help=False, allow_abbrev=False, **kwargs)
        new.register("action", None, _Store)
        new.add_argument("--help", action="help", help="Show this message and exit.")
        return new

    top = parser(argparse.ArgumentParser, prog="hfhash", description=main.__doc__)
    commands = top.add_subparsers(metavar="COMMAND", required=True)

    def command(fn, *, rounds=True, as_json=True):
        new = parser(commands.add_parser, name=fn.__name__.removeprefix("cmd_"),
                     help=fn.__doc__.split("\n")[0], description=fn.__doc__)
        new.set_defaults(command=fn)
        if rounds:
            new.add_argument("--rounds", choices=[str(r) for r in VALID_ROUNDS],
                             default="64", help="(default: %(default)s)")
        if as_json:
            new.add_argument("--json", dest="as_json", action="store_true")
        return new

    p = command(cmd_sum, as_json=False)
    p.add_argument("paths", nargs="*", metavar="PATH")
    p.add_argument("--upper", action="store_true", help="Uppercase hex digits.")
    p.add_argument("--grouped", action="store_true", help="Eight space-separated groups.")
    command(cmd_selftest)
    p = command(cmd_avalanche).add_mutually_exclusive_group()
    p.add_argument("--input", dest="input_hex", metavar="HEX112", type=_hex(BLOCK_BYTES),
                   help="One-block message as 112 hex digits.")
    p.add_argument("--seed", type=int, help="Derive the input block from this RNG seed.")
    command(cmd_diffusion).add_argument("--rule", choices=["non-last", "last"],
                                        default="non-last", help="(default: %(default)s)")
    command(cmd_bench, rounds=False).add_argument(
        "--sizes", metavar="N,N,...", type=_sizes, help="Comma-separated input sizes in bytes.")
    p = command(cmd_poly, rounds=False)
    # any int() spelling of 1 to 32
    p.add_argument("--index", type=int, choices=range(1, 33), required=True, metavar="K",
                   help="Polynomial number k (1-based).")
    p = p.add_mutually_exclusive_group()
    p.add_argument("--eval", dest="eval_hex", metavar="HEX16", type=_hex(8),
                   help="Evaluate on this 64-bit input.")
    p.add_argument("--stats", action="store_true", help="Show term counts (default).")
    return top


def main(argv=None, standalone_mode=True):
    """256-bit hash built on a quadratic Boolean polynomial system.

    Set the environment variable HFHASH_POLYNOMIALS to a file path to
    run every command against an alternate polynomial system.
    """
    # exit codes: 0 success, 1 failed check, 2 usage error or bad asset;
    # with standalone_mode false the code is returned, not exited with
    try:
        args = vars(_parser().parse_args(argv))
        code = args.pop("command")(**args)
    except SystemExit as exc:  # a usage error, or --help
        code = exc.code
    except AssetError as exc:
        _echo(f"hfhash: {exc}", sys.stderr)
        code = 2
    except BrokenPipeError:
        # the reader left; what is still buffered goes to /dev/null at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except OSError as exc:  # from `_echo`: standard output is closed or failing
        _echo(f"hfhash: write error: {exc.strerror}", sys.stderr)
        code = 1
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
