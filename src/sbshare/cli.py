"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 I/O or malformed share file,
3 invalid parameters, 4 insufficient or inconsistent shares,
5 padding failure on recovery.  A closed stdout is not an error.

Share data moves through files only; nothing secret is written to
stdout or stderr.  split and combine stream their files a chunk at a
time, so their memory does not grow with the file, and write every
output under a temporary name beside its target; on any error the
temporaries are removed.  Once written, combine renames its output over
its target; split unlinks each share its set replaces, then renames the
new ones onto free names: a cut split leaves old or new shares, never
both, and leaves shares it does not write (msg.7.sbs1 from a larger n).
Nothing is fsynced, so a power loss may leave an empty share (exit 2).
split writes headers with share_format.encode_header; combine and
inspect read shares through open_share, payloads left in their files.
"""

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from functools import cache
from pathlib import Path
from typing import BinaryIO

from . import __version__
from ._engine import FIELDS
from .rrsg import Algorithm
from .scheme import PaddingError, ShareSetError, padded_blocks, recover_stream, split_stream
from .shamir import FieldPolicy, SchemeParams
from .share_format import FormatError, encode_header, open_share

# never called here, but benchmarks/tracing.py wraps them under these names
from .scheme import combine, recover_range, split  # noqa: F401
from .share_format import decode_share, encode_share  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_PARAMS = 3
EXIT_SHARES = 4
EXIT_PADDING = 5

_ALGORITHMS = {"chacha20": Algorithm.CHACHA20, "test-lcg": Algorithm.TEST_LCG}
_ALGORITHM_NAMES = {v: k for k, v in _ALGORITHMS.items()}

_LCG_WARNING = (
    "warning: test-lcg is a non-cryptographic generator for testing only; "
    "shares made with it do not protect the secret"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _block_range(text: str) -> tuple[int, int]:
    start, sep, count = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("expected START:COUNT")
    try:
        pair = (int(start), int(count))
    except ValueError:
        raise argparse.ArgumentTypeError("expected START:COUNT as integers") from None
    if pair[0] < 0 or pair[1] < 0:
        raise argparse.ArgumentTypeError("START and COUNT must be non-negative")
    return pair


@cache  # built on first use: about 1 ms, a tenth of a small in-process combine
def _build_parser() -> _Parser:
    parser = _Parser(prog="sbshare", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sbshare {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="split a file into n share files")
    p_split.add_argument("input", type=Path, help="file to split")
    p_split.add_argument("-n", type=int, required=True, help="number of shares")
    p_split.add_argument("-m", type=int, required=True, help="recovery threshold")
    p_split.add_argument(
        "-o",
        "--output-dir",
        type=Path,
        default=None,
        help="directory for share files (default: next to input)",
    )
    p_split.add_argument(
        "--rrsg",
        choices=sorted(_ALGORITHMS),
        default="chacha20",
        help="keystream generator (default: chacha20)",
    )
    p_split.add_argument(
        "--dual-seed",
        action="store_true",
        help="draw masks and points/fields from two independent seeds",
    )
    p_split.add_argument(
        "--fixed-field",
        dest="field_policy",
        action="store_const",
        const=FieldPolicy.FIXED_CANONICAL,
        default=FieldPolicy.RANDOM_PER_BLOCK,
        help="use canonical field 0 for every block instead of a random field",
    )

    p_combine = sub.add_parser("combine", help="recover a file from share files")
    p_combine.add_argument("shares", nargs="+", type=Path, help="share files")
    p_combine.add_argument(
        "-o", "--output", type=Path, required=True, help="path for the recovered file"
    )
    p_combine.add_argument(
        "--range",
        type=_block_range,
        default=None,
        metavar="START:COUNT",
        help="recover only COUNT blocks starting at block START (raw, unpadded)",
    )

    p_inspect = sub.add_parser("inspect", help="print a share file header")
    p_inspect.add_argument("share", type=Path, help="share file")

    sub.add_parser("fields", help="list the 30 canonical field polynomials")
    return parser


@contextmanager
def _atomic_outputs(paths: list[Path]):
    """Files to write for paths, committed to them only if the block completes.

    On any error every temporary is removed.  One output is renamed over
    its target.  In a set no new file may land beside an old one, so every
    target is unlinked first and the temporaries are renamed onto free names.
    """
    temps: list[tuple[BinaryIO, Path]] = []
    try:
        for path in paths:
            fd, name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append((os.fdopen(fd, "wb"), Path(name)))
        yield [file for file, _ in temps]
        for file, _ in temps:
            file.close()
        for path in paths if len(paths) > 1 else ():
            with suppress(FileNotFoundError):
                os.unlink(path)
        for (_, temp), path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for file, temp in temps:
            with suppress(OSError):  # a failed flush: the file is dropped anyway
                file.close()
            temp.unlink(missing_ok=True)
        raise


def _cmd_split(args) -> int:
    params = SchemeParams(args.n, args.m, args.field_policy, args.dual_seed, _ALGORITHMS[args.rrsg])
    if params.algorithm == Algorithm.TEST_LCG:
        print(_LCG_WARNING, file=sys.stderr)
    out_dir = args.output_dir if args.output_dir is not None else args.input.parent
    paths = [out_dir / f"{args.input.stem}.{i}.sbs1" for i in range(params.n)]
    with open(args.input, "rb") as source:
        size = os.fstat(source.fileno()).st_size
        key_shares, chunks = split_stream(source.read, size, params)
        out_dir.mkdir(parents=True, exist_ok=True)
        with _atomic_outputs(paths) as sinks:
            for i, (sink, key_share) in enumerate(zip(sinks, key_shares)):
                sink.write(encode_header(params, i, key_share, padded_blocks(size, params.m)))
            for values in chunks:
                for sink, row in zip(sinks, values):
                    sink.write(row)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_combine(args) -> int:
    with ExitStack() as stack:
        shares = [open_share(stack.enter_context(open(path, "rb"))) for path in args.shares]
        chunks = recover_stream(shares, args.range)
        written = 0
        with _atomic_outputs([args.output]) as (sink,):
            for chunk in chunks:
                written += sink.write(chunk)
    print(f"{args.output}: {written} bytes")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    with open(args.share, "rb") as file:
        share = open_share(file)
    params = share.params
    policy = "fixed-canonical" if params.field_policy == FieldPolicy.FIXED_CANONICAL else "random-per-block"
    print(f"{args.share}:")
    print(f"  n: {params.n}  m: {params.m}  share_index: {share.share_index}")
    print(f"  rrsg: {_ALGORITHM_NAMES[params.algorithm]}")
    print(f"  dual_seed: {'yes' if params.dual_seed else 'no'}  field_policy: {policy}")
    print(f"  key_share: {len(share.key_share)} bytes  payload: {share.block_count} bytes")
    return EXIT_OK


def _poly_str(poly: int) -> str:
    """A polynomial over GF(2) from its bits, e.g. 'x^8 + x^4 + x^3 + x + 1' for 0x11B."""
    powers = [i for i in range(8, -1, -1) if poly >> i & 1]
    return " + ".join("1" if i == 0 else "x" if i == 1 else f"x^{i}" for i in powers)


def _cmd_fields(args) -> int:
    for index, poly in enumerate(FIELDS):
        print(f"{index:2d}  0x{poly:03X}  {_poly_str(poly)}")
    return EXIT_OK


_COMMANDS = {
    "split": _cmd_split,
    "combine": _cmd_combine,
    "inspect": _cmd_inspect,
    "fields": _cmd_fields,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's last flush
        return status
    except BrokenPipeError:  # stdout's reader has gone; every output is already committed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"sbshare: {exc}", file=sys.stderr)
        return EXIT_IO
    except FormatError as exc:
        print(f"sbshare: malformed share file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShareSetError as exc:
        print(f"sbshare: cannot combine shares: {exc}", file=sys.stderr)
        return EXIT_SHARES
    except PaddingError as exc:
        print(f"sbshare: recovered padding is invalid: {exc}", file=sys.stderr)
        return EXIT_PADDING
    except ValueError as exc:
        print(f"sbshare: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
