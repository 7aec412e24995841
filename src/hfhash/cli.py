"""Command-line interface: hashing, self-test, experiments, inspection."""

from __future__ import annotations

import re
import sys

import click

from .core import BLOCK_BYTES, VALID_ROUNDS, Hasher, params_with, self_test
from .system import AssetError, load_default_system

_ROUNDS = click.Choice([str(r) for r in VALID_ROUNDS])
_DIGITS = re.compile("[0-9]+")

# thresholds the non-last-rule diffusion experiment is expected to meet
_DIFFUSION_BOUNDS = {64: (">=", 165), 48: ("<", 75), 32: ("<", 75)}


class _Main(click.Group):
    """Reports a bad polynomial asset in one line, as a usage error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AssetError as exc:
            click.echo(f"hfhash: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main():
    """256-bit hash built on a quadratic Boolean polynomial system.

    Set the environment variable HFHASH_POLYNOMIALS to a file path to
    run every command against an alternate polynomial system.
    """


def _params(rounds: str):
    return params_with(rounds=int(rounds))


def _hex_bytes(text: str, n: int, param_hint: str) -> bytes:
    """``text`` as exactly ``n`` bytes written as ASCII hex digits."""
    if not re.fullmatch(f"[0-9a-fA-F]{{{2 * n}}}", text):
        raise click.BadParameter(f"need exactly {2 * n} hex digits",
                                 param_hint=param_hint)
    return bytes.fromhex(text)


def _emit(report, as_json: bool) -> None:
    if as_json:
        import json
        click.echo(json.dumps(report.to_dict(), indent=2))
    else:
        click.echo(report.format_text())


@main.command("sum")
@click.argument("paths", nargs=-1, type=click.Path())
@click.option("--upper", is_flag=True, help="Uppercase hex digits.")
@click.option("--grouped", is_flag=True, help="Eight space-separated groups.")
@click.option("--rounds", type=_ROUNDS, default="64", show_default=True)
def cmd_sum(paths, upper, grouped, rounds):
    """Print `<digest>  <name>` for each file, or for standard input."""
    params = _params(rounds)
    failed = False
    if not paths:
        paths = ("-",)
    for path in paths:
        hasher = Hasher(params)
        try:
            # "-" is standard input, which the context leaves open
            with click.open_file(path, "rb") as fh:
                while chunk := fh.read(1 << 16):
                    hasher.update(chunk)
        except OSError as exc:
            click.echo(f"hfhash: {path}: {exc.strerror or exc}", err=True)
            failed = True
            continue
        digest = hasher.finalize().formatted(upper=upper, grouped=grouped)
        click.echo(f"{digest}  {path}")
    if failed:
        sys.exit(1)


@main.command("selftest")
@click.option("--rounds", type=_ROUNDS, default="64", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_selftest(rounds, as_json):
    """Compare the three reference digests against fresh computations."""
    report = self_test(_params(rounds))
    _emit(report, as_json)
    if not report.all_ok:
        sys.exit(1)


@main.command("avalanche")
@click.option("--input", "input_hex", metavar="HEX112",
              help="One-block message as 112 hex digits.")
@click.option("--seed", type=int,
              help="Derive the input block from this RNG seed.")
@click.option("--rounds", type=_ROUNDS, default="64", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_avalanche(input_hex, seed, rounds, as_json):
    """Flip all 448 bits of a one-block message, tabulate distances."""
    from . import analysis

    if input_hex is not None and seed is not None:
        raise click.UsageError("--input and --seed are mutually exclusive")
    if input_hex is not None:
        message = _hex_bytes(input_hex, BLOCK_BYTES, "--input")
    elif seed is not None:
        import random
        message = random.Random(seed).randbytes(BLOCK_BYTES)
    else:
        message = analysis.DEFAULT_AVALANCHE_INPUT
    report = analysis.avalanche(message, _params(rounds))
    _emit(report, as_json)


@main.command("diffusion")
@click.option("--rounds", type=_ROUNDS, default="64", show_default=True)
@click.option("--rule", type=click.Choice(["non-last", "last"]),
              default="non-last", show_default=True)
@click.option("--json", "as_json", is_flag=True)
def cmd_diffusion(rounds, rule, as_json):
    """Schedule-difference weights for single-bit message flips.

    With the non-last rule the minimum weight is checked against the
    expected bound for the round count (at least 165 at 64 rounds,
    below 75 at 32 and 48); a violation exits nonzero.
    """
    from . import analysis

    report = analysis.diffusion(rounds=int(rounds), rule=rule)
    _emit(report, as_json)
    if rule == "non-last":
        op, bound = _DIFFUSION_BOUNDS[report.rounds]
        ok = (report.min_weight >= bound if op == ">="
              else report.min_weight < bound)
        if not as_json:
            status = "ok" if ok else "VIOLATED"
            click.echo(f"bound: min weight {op} {bound} [{status}]")
        if not ok:
            sys.exit(1)


@main.command("bench")
@click.option("--sizes", metavar="N,N,...",
              help="Comma-separated input sizes in bytes.")
@click.option("--json", "as_json", is_flag=True)
def cmd_bench(sizes, as_json):
    """Time one-shot hashing against a SHA-256 baseline.

    The default ladder (1.4 to 24.3 MB) takes several minutes on the
    compiled path; pass --sizes for a quicker run.  The term-sum
    oracle is only timed on inputs up to 1 MiB.  A size may be at most
    2**28 - 1 bytes.
    """
    from . import analysis

    if sizes is None:
        size_list = analysis.DEFAULT_BENCH_SIZES
    else:
        parts = sizes.split(",")
        if not all(_DIGITS.fullmatch(s) for s in parts):
            raise click.BadParameter("sizes must be nonnegative integers",
                                     param_hint="--sizes")
        try:
            size_list = tuple(int(s) for s in parts)
            too_big = any(s > analysis.MAX_BENCH_SIZE for s in size_list)
        except ValueError:  # int() refuses more than 4300 digits
            too_big = True
        if too_big:
            raise click.BadParameter(
                f"sizes must be at most {analysis.MAX_BENCH_SIZE} bytes",
                param_hint="--sizes")
    report = analysis.bench(sizes=size_list)
    _emit(report, as_json)


@main.command("poly")
@click.option("--index", type=click.IntRange(1, 32), required=True,
              help="Polynomial number k (1-based).")
@click.option("--eval", "eval_hex", metavar="HEX16",
              help="Evaluate on this 64-bit input.")
@click.option("--stats", is_flag=True, help="Show term counts (default).")
@click.option("--json", "as_json", is_flag=True)
def cmd_poly(index, eval_hex, stats, as_json):
    """Inspect one polynomial of the shipped system."""
    import json

    if eval_hex is not None and stats:
        raise click.UsageError("--eval and --stats are mutually exclusive")
    system = load_default_system()
    poly = system.polys[index - 1]
    if eval_hex is not None:
        x = int.from_bytes(_hex_bytes(eval_hex, 8, "--eval"), "big")
        bit = poly.evaluate(x)
        if as_json:
            click.echo(json.dumps({"index": index, "input": eval_hex,
                                   "value": bit}))
        else:
            click.echo(f"y_{index}({eval_hex}) = {bit}")
        return
    info = {
        "index": index,
        "terms": poly.term_count,
        "quadratic": poly.quadratic_count,
        "linear": poly.linear_count,
        "constant": int(poly.has_constant),
    }
    if as_json:
        click.echo(json.dumps(info))
    else:
        click.echo(f"y_{index}: {poly.term_count} terms "
                   f"({poly.quadratic_count} quadratic, "
                   f"{poly.linear_count} linear, "
                   f"constant {int(poly.has_constant)})")


if __name__ == "__main__":
    main()
