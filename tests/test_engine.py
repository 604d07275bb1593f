"""Direct checks of the vectorized engine against the scalar block oracle."""

import numpy as np
import pytest

from helpers import derive_eval_points, eval_block, gf_inv, mul_table, select_field
from sbshare import _engine, gf
from sbshare.shamir import FieldPolicy


@pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 128, 255])
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
    points = _engine.derive_points(rng.integers(0, 256, (nblocks, m), dtype=np.uint8)).T
    f = rng.permutation(np.arange(nblocks) % gf.field_count())
    values = _engine.eval_blocks(coeffs.T, points.T, f).T
    assert (coeffs == 0).any() and (values == 0).any()
    assert len(np.unique(f)) == min(nblocks, gf.field_count())
    for b in {b for b in (0, step - 1, step, 2 * step - 1, 2 * step) if b < nblocks}:
        field = gf.field_by_index(int(f[b]))
        assert values[b].tobytes() == eval_block(coeffs[b].tobytes(), points[b].tolist(), field)
    assert np.array_equal(_engine.interpolate_blocks(points.T, values.T, f).T, coeffs)


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16)])
@pytest.mark.parametrize("whole,offset", [(1, -1), (1, 1), (2, 1)])
def test_eval_of_transposed_coefficients_equals_contiguous(n, m, whole, offset):
    # coefficients may come in F order: split_key stacks the key over
    # rest.T, and np.vstack keeps their F order, as does any transposed
    # (B, m) block array; on both sides of the evaluation's slice seams
    nblocks = whole * max(1, _engine._SLICE_WORDS // n) + offset
    rng = np.random.default_rng([n, m, whole, offset + 1])
    view = rng.integers(0, 256, (nblocks, m), dtype=np.uint8).T
    assert m == 1 or not view.flags.c_contiguous
    points = _engine.derive_points(rng.integers(0, 256, (nblocks, n), dtype=np.uint8))
    f = rng.integers(0, gf.field_count(), nblocks)
    got = _engine.eval_blocks(view, points, f)
    assert got.shape == (n, nblocks)
    assert np.array_equal(got, _engine.eval_blocks(np.ascontiguousarray(view), points, f))


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16)])
def test_interpolate_leaves_read_only_inputs_unchanged(n, m):
    # read-only row views of m points and m values, as x[indices] gives
    # them, both rows of one buffer that holds n of each
    rng = np.random.default_rng([n, m, 7])
    coeffs = rng.integers(0, 256, (300, m), dtype=np.uint8)
    points = _engine.derive_points(rng.integers(0, 256, (300, n), dtype=np.uint8))
    f = rng.integers(0, gf.field_count(), 300)
    raw = np.concatenate((points, _engine.eval_blocks(coeffs.T, points, f)), axis=0)
    buf = np.frombuffer(raw.tobytes(), dtype=np.uint8).reshape(raw.shape)
    xs, ys = buf[:m], buf[n : n + m]
    assert not (xs.flags.writeable or ys.flags.writeable)
    got = _engine.interpolate_blocks(xs, ys, f)
    assert np.array_equal(got.T, coeffs)
    assert buf.tobytes() == raw.tobytes()


def test_field_tables_through_isomorphisms_match_every_field():
    # field 0's tables, read through phi_f and its inverse, give field
    # f's products and quotients for every pair of words, a / 0 being 0
    to0, from0 = _engine._TO0.reshape(-1, 256), _engine._FROM0.reshape(-1, 256)
    assert len(to0) == gf.field_count()
    assert to0[0].tolist() == list(range(256))
    a, b = np.arange(256)[:, None], np.arange(256)
    for f, phi in enumerate(to0):
        assert sorted(phi.tolist()) == list(range(256)) and phi[1] == 1
        assert np.array_equal(phi[a ^ b], phi[a] ^ phi[b])
        assert from0[f, phi].tolist() == list(range(256))
        field = gf.field_by_index(f)
        table = mul_table(field)
        inverse = [0] + [gf_inv(field, y) for y in range(1, 256)]
        index = phi[a].astype(np.intp) << 8 | phi[b]
        assert np.array_equal(from0[f, _engine._MUL[index]], table)
        assert np.array_equal(from0[f, _engine._DIV[index]], table[:, inverse])


def test_no_blocks():
    f = np.zeros(0, dtype=np.intp)
    coeffs, points = np.zeros((3, 0), np.uint8), np.zeros((5, 0), np.uint8)
    assert _engine.eval_blocks(coeffs, points, f).shape == (5, 0)
    assert _engine.interpolate_blocks(points[:3], coeffs, f).shape == (3, 0)
    assert _engine.derive_points(np.zeros((0, 5), np.uint8)).shape == (5, 0)
    for policy in FieldPolicy:
        assert _engine.field_indices(np.zeros((0, 4), np.uint8), policy).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 128, 255])
def test_derive_points_matches_oracle_row_by_row(n):
    rng = np.random.default_rng(n)
    words = np.concatenate(
        [np.zeros((1, n), np.uint8), np.full((1, n), 254, np.uint8), rng.integers(0, 256, (64, n), np.uint8)]
    )
    points = _engine.derive_points(words).T
    for row, got in zip(words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())


@pytest.mark.parametrize("n", [5, 32, 64, 255])
@pytest.mark.parametrize("low,high", [(0, 4), (250, 256)])
def test_derive_points_long_probe_runs(n, low, high):
    # words from a few adjacent values collide on nearly every point, so
    # probes run long, and from 250..255 they wrap 255 to 1
    words = np.random.default_rng([n, low]).integers(low, high, (48, n), np.uint8)
    points = _engine.derive_points(words).T
    for row, got in zip(words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16), (255, 128)])
def test_points_and_fields_from_one_keystream_buffer(n, m):
    # the words as one seed's keystream_blocks passes them: strided views
    # into one read-only (B, m + n + 4) buffer that also holds the masks
    raw = np.random.default_rng([n, m]).integers(0, 256, (64, m + n + 4), np.uint8)
    raw[:2] = 255  # every word of these rows wraps to candidate 1
    raw[2] = 0
    words = np.frombuffer(raw.tobytes(), dtype=np.uint8).reshape(raw.shape)
    point_words, field_words = words[:, m : m + n], words[:, m + n :]
    points = _engine.derive_points(point_words).T
    for row, got in zip(point_words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())
    for policy in FieldPolicy:
        got = [gf.field_by_index(int(i)) for i in _engine.field_indices(field_words, policy)]
        assert got == [select_field(w.tobytes(), policy) for w in field_words]
    assert words.tobytes() == raw.tobytes()


@pytest.mark.parametrize("policy", list(FieldPolicy))
def test_field_indices_match_oracle(policy):
    rng = np.random.default_rng(int(policy))
    words = rng.integers(0, 256, (512, 4), np.uint8)
    words[0], words[1] = 0, 255
    got = [gf.field_by_index(int(i)) for i in _engine.field_indices(words, policy)]
    assert got == [select_field(w.tobytes(), policy) for w in words]
