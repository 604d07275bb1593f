"""Command-line interface tests driven through main()."""

import dataclasses
import io
import os
import secrets
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import REF_FIELDS
from sbshare import _engine, cli, combine, decode_share, encode_share, scheme
from sbshare.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PADDING,
    EXIT_PARAMS,
    EXIT_SHARES,
    EXIT_USAGE,
    main,
)
from sbshare.scheme import pad, split
from sbshare.shamir import SchemeParams
from sbshare.share_format import HEADER_LEN, encode_header


@pytest.fixture
def workspace(tmp_path):
    source = tmp_path / "message.bin"
    source.write_bytes(secrets.token_bytes(10))
    return tmp_path, source


def split_fixture(workspace, *extra):
    tmp_path, source = workspace
    assert main(["split", str(source), "-n", "5", "-m", "3", *extra]) == EXIT_OK
    return sorted(tmp_path.glob("message.*.sbs1"))


class TestSplit:
    def test_writes_five_share_files(self, workspace, capsys):
        tmp_path, source = workspace
        paths = split_fixture(workspace)
        assert [p.name for p in paths] == [f"message.{i}.sbs1" for i in range(5)]
        # 24-byte header + 44-byte key share + 4 payload blocks
        assert all(p.stat().st_size == 72 for p in paths)
        out = capsys.readouterr()
        assert [line for line in out.out.splitlines()] == [str(p) for p in paths]

    def test_output_dir_option_creates_directory(self, workspace):
        tmp_path, source = workspace
        dest = tmp_path / "shares"
        assert main(["split", str(source), "-n", "2", "-m", "2", "-o", str(dest)]) == EXIT_OK
        assert len(list(dest.glob("*.sbs1"))) == 2

    def test_invalid_threshold_exits_3(self, workspace, capsys):
        tmp_path, source = workspace
        assert main(["split", str(source), "-n", "3", "-m", "5"]) == EXIT_PARAMS
        err = capsys.readouterr().err
        assert "invalid parameters" in err
        assert err.count("invalid parameters") == 1

    def test_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.bin"
        assert main(["split", str(missing), "-n", "3", "-m", "2"]) == EXIT_IO
        assert capsys.readouterr().err

    def test_missing_flags_exit_1(self, workspace):
        tmp_path, source = workspace
        with pytest.raises(SystemExit) as exc:
            main(["split", str(source)])
        assert exc.value.code == EXIT_USAGE

    def test_lcg_warning_on_stderr(self, workspace, capsys):
        split_fixture(workspace, "--rrsg", "test-lcg")
        assert "test-lcg" in capsys.readouterr().err

    def test_no_secret_bytes_on_stdout(self, workspace, capsys):
        tmp_path, source = workspace
        split_fixture(workspace)
        out = capsys.readouterr()
        assert source.read_bytes().hex() not in out.out
        assert out.err == ""


class TestCombine:
    def test_any_three_of_five(self, workspace, tmp_path, capsys):
        _, source = workspace
        paths = split_fixture(workspace)
        out_file = tmp_path / "restored.bin"
        chosen = [str(paths[4]), str(paths[0]), str(paths[2])]
        assert main(["combine", *chosen, "-o", str(out_file)]) == EXIT_OK
        assert out_file.read_bytes() == source.read_bytes()

    def test_matches_library_route(self, workspace, tmp_path):
        _, source = workspace
        paths = split_fixture(workspace)
        out_file = tmp_path / "restored.bin"
        assert main(["combine", *map(str, paths[:3]), "-o", str(out_file)]) == EXIT_OK
        shares = [decode_share(p.read_bytes()) for p in paths[:3]]
        assert out_file.read_bytes() == combine(shares)

    def test_too_few_shares_exits_4(self, workspace, tmp_path, capsys):
        paths = split_fixture(workspace)
        out_file = tmp_path / "restored.bin"
        assert main(["combine", *map(str, paths[:2]), "-o", str(out_file)]) == EXIT_SHARES
        assert "shares" in capsys.readouterr().err

    def test_empty_payloads_exit_4(self, workspace, tmp_path, capsys):
        # split never writes these: every message pads to at least one block
        paths = split_fixture(workspace)[:3]
        for path in paths:
            share = decode_share(path.read_bytes())
            path.write_bytes(encode_share(dataclasses.replace(share, payload=b"")))
        out_file = tmp_path / "restored.bin"
        assert main(["combine", *map(str, paths), "-o", str(out_file)]) == EXIT_SHARES
        assert "payload" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("dual, key_len", [(True, 44), (False, 88)])
    def test_key_share_length_exits_4(self, workspace, tmp_path, capsys, dual, key_len):
        # headers that agree with each other but carry the other seed count's key shares
        paths = split_fixture(workspace, *(["--dual-seed"] if dual else []))[:3]
        for path in paths:
            share = decode_share(path.read_bytes())
            head = encode_header(share.params, share.share_index, bytes(key_len), len(share.payload))
            path.write_bytes(head + share.payload)
        out_file = tmp_path / "restored.bin"
        assert main(["combine", *map(str, paths), "-o", str(out_file)]) == EXIT_SHARES
        assert "key share length" in capsys.readouterr().err
        assert not out_file.exists()

    def test_mixed_splits_exit_4_or_5(self, workspace, tmp_path, capsys):
        tmp_path_ws, source = workspace
        first = split_fixture(workspace)
        relocated = [p.rename(p.with_suffix(".sbs1.old")) for p in first[:3]]
        second = split_fixture(workspace)
        out_file = tmp_path / "restored.bin"
        code = main(
            [
                "combine",
                str(relocated[0]),
                str(relocated[1]),
                str(second[2]),
                "-o",
                str(out_file),
            ]
        )
        if code == EXIT_OK:
            # No integrity protection: a lucky padding byte can slip
            # through, but the output cannot be the original message.
            assert out_file.read_bytes() != source.read_bytes()
        else:
            assert code in (EXIT_SHARES, EXIT_PADDING)

    def test_range_slice(self, workspace, tmp_path):
        _, source = workspace
        paths = split_fixture(workspace)
        out_file = tmp_path / "slice.bin"
        assert main(["combine", *map(str, paths[:3]), "-o", str(out_file), "--range", "1:2"]) == EXIT_OK
        padded = pad(source.read_bytes(), 3)
        assert out_file.read_bytes() == padded[3:9]

    def test_range_out_of_bounds_exits_3(self, workspace, tmp_path):
        paths = split_fixture(workspace)
        out_file = tmp_path / "slice.bin"
        assert main(["combine", *map(str, paths[:3]), "-o", str(out_file), "--range", "4:1"]) == EXIT_PARAMS

    def test_malformed_range_exits_1(self, workspace, tmp_path):
        paths = split_fixture(workspace)
        with pytest.raises(SystemExit) as exc:
            main(["combine", *map(str, paths[:3]), "-o", str(tmp_path / "x"), "--range", "12"])
        assert exc.value.code == EXIT_USAGE

    def test_non_share_file_exits_2(self, workspace, tmp_path, capsys):
        _, source = workspace
        assert main(["combine", str(source), str(source), "-o", str(tmp_path / "x")]) == EXIT_IO
        assert "malformed" in capsys.readouterr().err

    def test_truncated_share_named_in_error(self, workspace, tmp_path, capsys):
        paths = split_fixture(workspace)
        data = paths[1].read_bytes()
        cut = tmp_path / "cut.sbs1"
        cut.write_bytes(data[:-2])
        capsys.readouterr()
        assert main(["combine", str(paths[0]), str(cut), "-o", str(tmp_path / "x")]) == EXIT_IO
        out = capsys.readouterr()
        assert str(cut) in out.err
        assert str(paths[0]) not in out.err
        assert out.out == ""
        # sizes only: neither the key share nor the payload reaches stderr
        share = decode_share(data)
        assert share.key_share.hex() not in out.err and share.payload.hex() not in out.err
        assert not (tmp_path / "x").exists()


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_ones(self, workspace, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process: split, combine and a
        # usage error, each run twice through one process's main, must
        # exit and print as main in a fresh interpreter does
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
        _, source = workspace
        shares = [str(tmp_path / f"message.{i}.sbs1") for i in (0, 2, 4)]
        out = str(tmp_path / "out.bin")
        calls = [
            ["split", str(source), "-n", "5", "-m", "3"],
            ["combine", *shares, "-o", out],
            ["combine", *shares],  # no -o: exit 1 with usage
        ]
        child = "import sys; from sbshare.cli import main; sys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        parser = cli._build_parser()
        for argv in calls * 2:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            here = (code, *capsys.readouterr())
            fresh = subprocess.run(
                [sys.executable, "-c", child, *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert here == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is parser
        assert Path(out).read_bytes() == source.read_bytes()


class TestInspect:
    def test_header_dump(self, workspace, capsys):
        paths = split_fixture(workspace, "--dual-seed", "--fixed-field")
        capsys.readouterr()
        assert main(["inspect", str(paths[3])]) == EXIT_OK
        out = capsys.readouterr().out
        assert "n: 5  m: 3  share_index: 3" in out
        assert "rrsg: chacha20" in out
        assert "dual_seed: yes" in out
        assert "fixed-canonical" in out
        assert "key_share: 88 bytes" in out
        assert "payload: 4 bytes" in out
        # the algorithm is the header's, not a default
        paths = split_fixture(workspace, "--rrsg", "test-lcg")
        capsys.readouterr()
        assert main(["inspect", str(paths[0])]) == EXIT_OK
        assert "rrsg: test-lcg" in capsys.readouterr().out

    def test_non_share_file_exits_2(self, tmp_path, capsys):
        plain = tmp_path / "notes.txt"
        plain.write_bytes(b"x" * 40)
        assert main(["inspect", str(plain)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "bad magic" in err and str(plain) in err


class TestFields:
    def test_thirty_lines(self, capsys):
        # the whole listing, rebuilt from the oracle's catalogue: index,
        # polynomial in hex, then its terms from x^8 down
        expected = []
        for i, p in enumerate(REF_FIELDS):
            powers = [k for k in range(8, -1, -1) if p >> k & 1]
            terms = " + ".join("1" if k == 0 else "x" if k == 1 else f"x^{k}" for k in powers)
            expected.append(f"{i:2d}  0x{p:03X}  {terms}\n")
        assert main(["fields"]) == EXIT_OK
        assert capsys.readouterr().out == "".join(expected)
        assert expected[0] == " 0  0x11B  x^8 + x^4 + x^3 + x + 1\n"


class TestRoundTripModes:
    @pytest.mark.parametrize("extra", [[], ["--dual-seed"], ["--fixed-field"], ["--rrsg", "test-lcg"]])
    def test_cli_round_trip(self, workspace, tmp_path, extra):
        _, source = workspace
        paths = split_fixture(workspace, *extra)
        out_file = tmp_path / "back.bin"
        assert main(["combine", *map(str, paths[1:4]), "-o", str(out_file)]) == EXIT_OK
        assert out_file.read_bytes() == source.read_bytes()


def listing(directory):
    """Names and contents of every file in a directory, temporaries included."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestCapacity:
    def test_too_long_for_keystream_exits_3_before_any_file(self, tmp_path, monkeypatch, capsys):
        # at n=255, m=1 a block takes 260 words, so 2^38 // 260 blocks, a
        # message of one byte less, is the most ChaCha20 covers; the input is
        # sparse and is never read
        def no_keystream(*args):
            raise AssertionError("keystream read before the capacity check")

        # without the check, this split would write 255 GB of shares
        monkeypatch.setattr(_engine, "keystream_blocks", no_keystream)
        source = tmp_path / "big.bin"
        with open(source, "wb") as f:
            f.truncate((1 << 38) // 260)
        argv = ["split", str(source), "-n", "255", "-m", "1", "-o", str(tmp_path / "shares")]
        assert main(argv) == EXIT_PARAMS
        assert "2^38" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["big.bin"]

    def test_combine_checks_the_share_set_before_any_keystream(self, tmp_path, monkeypatch, capsys):
        # a sparse share at n=255, m=1 whose header claims one block more than
        # ChaCha20 covers; recovery refuses it before it reads a word
        def no_keystream(*args):
            raise AssertionError("keystream read before the capacity check")

        monkeypatch.setattr(_engine, "keystream_blocks", no_keystream)
        nblocks = (1 << 38) // 260 + 1
        share = tmp_path / "big.0.sbs1"
        with open(share, "wb") as f:
            f.write(encode_header(SchemeParams(n=255, m=1), 0, bytes(44), nblocks))
            f.truncate(HEADER_LEN + 44 + nblocks)
        out_file = tmp_path / "out.bin"
        assert main(["combine", str(share), "-o", str(out_file)]) == EXIT_PARAMS
        assert "2^38" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["big.0.sbs1"]

    def test_split_stream_checks_before_reading(self):
        def read(count):
            raise AssertionError("read before the capacity check")

        params = SchemeParams(n=255, m=1)
        with pytest.raises(ValueError, match="2\\^38"):
            scheme.split_stream(read, (1 << 38) // 260, params)
        key_shares, _ = scheme.split_stream(read, (1 << 38) // 260 - 1, params)
        assert len(key_shares) == 255


class TestInputSize:
    @pytest.mark.parametrize("actual", [0, 299, 301, 3000])
    def test_input_of_another_size_raises(self, monkeypatch, actual):
        # a file that changes under a split, or a pipe, whose size reads 0
        monkeypatch.setattr(_engine, "_CHUNK_WORDS", 12 * 10)
        source = io.BytesIO(secrets.token_bytes(actual))
        _, chunks = scheme.split_stream(source.read, 300, SchemeParams(n=5, m=3))
        with pytest.raises(OSError, match="not 300 bytes"):
            for _ in chunks:
                pass

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", f"printf 'some secret' > '{fifo}'"])
        try:
            argv = ["split", str(fifo), "-n", "3", "-m", "2", "-o", str(tmp_path / "out")]
            assert main(argv) == EXIT_IO
        finally:
            writer.wait(timeout=30)
        assert "not 0 bytes" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "pipe"]
        assert not any((tmp_path / "out").iterdir())


class TestAtomicOutput:
    """Outputs appear complete or not at all, and older files survive a failure."""

    def test_split_failing_mid_way_leaves_older_shares(self, workspace, monkeypatch, capsys):
        tmp_path, source = workspace
        split_fixture(workspace)
        before = listing(tmp_path)
        source.write_bytes(secrets.token_bytes(600))
        monkeypatch.setattr(_engine, "_CHUNK_WORDS", 12 * 10)  # 10 blocks a chunk at n=5, m=3
        calls = []
        eval_blocks = _engine.eval_blocks

        def failing(*args, **kwargs):
            # the key split is the first call, then one per chunk
            calls.append(1)
            if len(calls) == 4:
                raise OSError("no space left on device")
            return eval_blocks(*args, **kwargs)

        monkeypatch.setattr(_engine, "eval_blocks", failing)
        assert main(["split", str(source), "-n", "5", "-m", "3"]) == EXIT_IO
        assert "no space left" in capsys.readouterr().err
        assert len(calls) == 4
        after = listing(tmp_path)
        assert after.pop("message.bin") == source.read_bytes()
        before.pop("message.bin")
        assert after == before

    @pytest.mark.parametrize("older", [False, True])
    def test_combine_failing_padding_leaves_no_output(self, tmp_path, monkeypatch, older):
        # shares of a "padded" message whose last byte is 0, so the padding
        # check on the last chunk fails after earlier chunks were written
        monkeypatch.setattr(scheme, "pad", lambda message, m: message)
        message = secrets.token_bytes(3 * 40 - 1) + b"\x00"
        shares = split(message, SchemeParams(n=5, m=3))
        monkeypatch.undo()
        paths = []
        for share in shares[:3]:
            paths.append(tmp_path / f"message.{share.share_index}.sbs1")
            paths[-1].write_bytes(encode_share(share))
        out_file = tmp_path / "restored.bin"
        if older:
            out_file.write_bytes(b"an older file")
        before = listing(tmp_path)
        monkeypatch.setattr(_engine, "_CHUNK_WORDS", 12 * 10)
        assert main(["combine", *map(str, paths), "-o", str(out_file)]) == EXIT_PADDING
        assert listing(tmp_path) == before


class TestMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    def test_split_and_combine_of_32_mib_stay_under_64_mib(self, tmp_path):
        # each op runs in a fresh interpreter and reads its own RSS
        # high-water mark, as benchmarks/probe.py does
        source = tmp_path / "big.bin"
        source.write_bytes(os.urandom(32 << 20))
        child = (
            "import sys; from pathlib import Path; from sbshare.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "status = Path('/proc/self/status').read_text().splitlines()\n"
            "hwm = [line for line in status if line.startswith('VmHWM:')]\n"
            "print(rc, int(hwm[0].split()[1]) // 1024)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        shares = [str(tmp_path / f"big.{i}.sbs1") for i in (0, 2, 4)]
        out = tmp_path / "out.bin"
        ops = (["split", str(source), "-n", "5", "-m", "3"], ["combine", *shares, "-o", str(out)])
        for argv in ops:
            proc = subprocess.run(
                [sys.executable, "-c", child, *argv],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            rc, mib = map(int, proc.stdout.splitlines()[-1].split())
            assert rc == EXIT_OK
            assert mib < 64, (argv[0], mib)
        assert out.read_bytes() == source.read_bytes()
