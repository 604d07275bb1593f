"""Direct checks of the vectorized engine against the scalar block oracle."""

import numpy as np
import pytest

from helpers import derive_eval_points, eval_block, select_field
from sbshare import _engine, gf
from sbshare.shamir import FieldPolicy


@pytest.mark.parametrize("m", [1, 2, 16, 255])
@pytest.mark.parametrize("whole,offset", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_interpolate_inverts_eval_across_slices(m, whole, offset):
    # n = m, so both transforms slice at the same block count; the block
    # counts end just before, on and just past a seam, or run two full
    # slices and one block more
    step = max(1, _engine._SLICE_WORDS // m)
    nblocks = whole * step + offset
    rng = np.random.default_rng([m, whole, offset + 1])
    coeffs = rng.integers(0, 256, (nblocks, m), dtype=np.uint8)
    coeffs[rng.random((nblocks, m)) < 0.1] = 0
    points = _engine.derive_points(rng.integers(0, 256, (nblocks, m), dtype=np.uint8))
    f = rng.permutation(np.arange(nblocks) % gf.field_count())
    values = _engine.eval_blocks(coeffs, points, f)
    assert (coeffs == 0).any() and (values == 0).any()
    assert len(np.unique(f)) == min(nblocks, gf.field_count())
    for b in {b for b in (0, step - 1, step, 2 * step - 1, 2 * step) if b < nblocks}:
        field = gf.field_by_index(int(f[b]))
        assert values[b].tobytes() == eval_block(coeffs[b].tobytes(), points[b].tolist(), field)
    assert np.array_equal(_engine.interpolate_blocks(points, values, f), coeffs)


def test_no_blocks():
    f = np.zeros(0, dtype=np.intp)
    coeffs, points = np.zeros((0, 3), np.uint8), np.zeros((0, 5), np.uint8)
    assert _engine.eval_blocks(coeffs, points, f).shape == (0, 5)
    assert _engine.interpolate_blocks(points[:, :3], coeffs, f).shape == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 128, 255])
def test_derive_points_matches_oracle_row_by_row(n):
    rng = np.random.default_rng(n)
    words = np.concatenate(
        [np.zeros((1, n), np.uint8), np.full((1, n), 254, np.uint8), rng.integers(0, 256, (64, n), np.uint8)]
    )
    points = _engine.derive_points(words)
    for row, got in zip(words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())


@pytest.mark.parametrize("policy", list(FieldPolicy))
def test_field_indices_match_oracle(policy):
    rng = np.random.default_rng(int(policy))
    words = rng.integers(0, 256, (512, 4), np.uint8)
    words[0], words[1] = 0, 255
    got = [gf.field_by_index(int(i)) for i in _engine.field_indices(words, policy)]
    assert got == [select_field(w.tobytes(), policy) for w in words]
