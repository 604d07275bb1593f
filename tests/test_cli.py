"""Command-line interface tests driven through main()."""

import dataclasses
import secrets

import pytest

from sbshare import combine, decode_share, encode_share
from sbshare.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PADDING,
    EXIT_PARAMS,
    EXIT_SHARES,
    EXIT_USAGE,
    main,
)
from sbshare.scheme import pad


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
        assert "invalid parameters" in capsys.readouterr().err

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

    def test_non_share_file_exits_2(self, tmp_path, capsys):
        plain = tmp_path / "notes.txt"
        plain.write_bytes(b"x" * 40)
        assert main(["inspect", str(plain)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "bad magic" in err and str(plain) in err


class TestFields:
    def test_thirty_lines(self, capsys):
        assert main(["fields"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 30
        assert "0x11B" in lines[0]
        assert "x^8" in lines[0]


class TestRoundTripModes:
    @pytest.mark.parametrize("extra", [[], ["--dual-seed"], ["--fixed-field"], ["--rrsg", "test-lcg"]])
    def test_cli_round_trip(self, workspace, tmp_path, extra):
        _, source = workspace
        paths = split_fixture(workspace, *extra)
        out_file = tmp_path / "back.bin"
        assert main(["combine", *map(str, paths[1:4]), "-o", str(out_file)]) == EXIT_OK
        assert out_file.read_bytes() == source.read_bytes()
