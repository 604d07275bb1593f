"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 I/O or malformed share file,
3 invalid parameters, 4 insufficient or inconsistent shares,
5 padding failure on recovery.

Share data moves through files only; nothing secret is written to
stdout or stderr.  split and combine stream their files a chunk at a
time, so their memory does not grow with the file, and write every
output under a temporary name beside its target, renamed into place only
once all outputs are complete; on any error the temporaries are removed.
"""

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, NamedTuple

from . import __version__
from .gf import canonical_fields
from .rrsg import Algorithm
from .scheme import PaddingError, ShareSetError, padded_blocks, recover_stream, split_stream
from .shamir import FieldPolicy, SchemeParams
from .share_format import (
    HEADER_LEN,
    FormatError,
    Header,
    TruncatedError,
    decode_header,
    encode_header,
)

# The CLI streams files and calls none of the whole-message functions,
# but benchmarks/tracing.py wraps them under these names as well.
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
        action="store_true",
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
    """Files to write for paths, renamed to them only if the block completes.

    Each file is written under a temporary name in its target's
    directory; on any error every temporary is removed and no target is
    touched.
    """
    temps: list[tuple[BinaryIO, Path]] = []
    try:
        for path in paths:
            fd, name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
            temps.append((os.fdopen(fd, "wb"), Path(name)))
        yield [file for file, _ in temps]
        for file, _ in temps:
            file.close()
        for (_, temp), path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for file, temp in temps:
            with suppress(OSError):  # a failed flush: the file is dropped anyway
                file.close()
            temp.unlink(missing_ok=True)
        raise


def _cmd_split(args) -> int:
    params = SchemeParams(
        n=args.n,
        m=args.m,
        field_policy=(
            FieldPolicy.FIXED_CANONICAL if args.fixed_field else FieldPolicy.RANDOM_PER_BLOCK
        ),
        dual_seed=args.dual_seed,
    )
    algorithm = _ALGORITHMS[args.rrsg]
    if algorithm == Algorithm.TEST_LCG:
        print(_LCG_WARNING, file=sys.stderr)
    out_dir = args.output_dir if args.output_dir is not None else args.input.parent
    paths = [out_dir / f"{args.input.stem}.{i}.sbs1" for i in range(params.n)]
    with open(args.input, "rb") as source:
        size = os.fstat(source.fileno()).st_size
        key_shares, chunks = split_stream(source.read, size, params, algorithm=algorithm)
        out_dir.mkdir(parents=True, exist_ok=True)
        with _atomic_outputs(paths) as sinks:
            for i, (sink, key_share) in enumerate(zip(sinks, key_shares)):
                head = Header(params, i, algorithm, len(key_share), padded_blocks(size, params.m))
                sink.write(encode_header(head) + key_share)
            for values in chunks:
                for sink, row in zip(sinks, values):
                    sink.write(row)
    for path in paths:
        print(path)
    return EXIT_OK


class _ShareFile(NamedTuple):
    """An open share file: its header fields and key share; the payload stays on disk."""

    path: Path
    file: BinaryIO
    params: SchemeParams
    share_index: int
    rrsg_algorithm: Algorithm
    key_share: bytes
    block_count: int

    def read(self, start: int, count: int) -> bytes:
        """count payload words from block start."""
        self.file.seek(HEADER_LEN + len(self.key_share) + start)
        data = self.file.read(count)
        if len(data) != count:
            raise TruncatedError(f"{self.path}: payload ends before block {start + count}")
        return data


def _open_share(path: Path, stack: ExitStack) -> _ShareFile:
    """Open a share file and read its header; a FormatError names the file at fault."""
    file = stack.enter_context(open(path, "rb"))
    try:
        head = decode_header(file.read(HEADER_LEN), os.fstat(file.fileno()).st_size)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    key_share = file.read(head.key_len)
    return _ShareFile(
        path, file, head.params, head.share_index, head.rrsg_algorithm, key_share, head.payload_len
    )


def _cmd_combine(args) -> int:
    with ExitStack() as stack:
        shares = [_open_share(path, stack) for path in args.shares]
        chunks = recover_stream(shares, _ShareFile.read, args.range)
        written = 0
        with _atomic_outputs([args.output]) as (sink,):
            for chunk in chunks:
                written += sink.write(chunk)
    print(f"{args.output}: {written} bytes")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    with ExitStack() as stack:
        share = _open_share(args.share, stack)
    params = share.params
    policy = "fixed-canonical" if params.field_policy == FieldPolicy.FIXED_CANONICAL else "random-per-block"
    print(f"{args.share}:")
    print(f"  n: {params.n}  m: {params.m}  share_index: {share.share_index}")
    print(f"  rrsg: {_ALGORITHM_NAMES[share.rrsg_algorithm]}")
    print(f"  dual_seed: {'yes' if params.dual_seed else 'no'}  field_policy: {policy}")
    print(f"  key_share: {len(share.key_share)} bytes  payload: {share.block_count} bytes")
    return EXIT_OK


def _cmd_fields(args) -> int:
    for index, spec in enumerate(canonical_fields()):
        print(f"{index:2d}  0x{spec.reduction_poly:03X}  {spec.poly_str()}")
    return EXIT_OK


_COMMANDS = {
    "split": _cmd_split,
    "combine": _cmd_combine,
    "inspect": _cmd_inspect,
    "fields": _cmd_fields,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
