"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 I/O or malformed share file,
3 invalid parameters, 4 insufficient or inconsistent shares,
5 padding failure on recovery.

Share data moves through files only; nothing secret is written to
stdout or stderr.
"""

import argparse
import sys
from pathlib import Path

from . import __version__
from .gf import canonical_fields
from .rrsg import Algorithm
from .scheme import PaddingError, ShareSetError, combine, recover_range, split
from .shamir import FieldPolicy, SchemeParams
from .share_format import FormatError, decode_share, encode_share

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
    message = args.input.read_bytes()
    out_dir = args.output_dir if args.output_dir is not None else args.input.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    shares = split(message, params, algorithm=algorithm)
    for share in shares:
        path = out_dir / f"{args.input.stem}.{share.share_index}.sbs1"
        path.write_bytes(encode_share(share))
        print(path)
    return EXIT_OK


def _read_share(path: Path):
    """Decode one share file; a FormatError names the file at fault."""
    try:
        return decode_share(path.read_bytes())
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _cmd_combine(args) -> int:
    shares = [_read_share(path) for path in args.shares]
    if args.range is None:
        data = combine(shares)
    else:
        data = recover_range(shares, *args.range)
    args.output.write_bytes(data)
    print(f"{args.output}: {len(data)} bytes")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    share = _read_share(args.share)
    params = share.params
    policy = "fixed-canonical" if params.field_policy == FieldPolicy.FIXED_CANONICAL else "random-per-block"
    print(f"{args.share}:")
    print(f"  n: {params.n}  m: {params.m}  share_index: {share.share_index}")
    print(f"  rrsg: {_ALGORITHM_NAMES[share.rrsg_algorithm]}")
    print(f"  dual_seed: {'yes' if params.dual_seed else 'no'}  field_policy: {policy}")
    print(f"  key_share: {len(share.key_share)} bytes  payload: {len(share.payload)} bytes")
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
