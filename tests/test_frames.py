"""Measurement frames: orthonormal bases and fused pairs of bases."""
import tracemalloc

import numpy as np
import pytest

from hspsim import util
from hspsim.frames import Frame, frame_bases, random_frame


def completeness_error(frame):
    S = np.einsum("im,m,jm->ij", frame.vectors, frame.weights, frame.vectors.conj())
    return float(np.max(np.abs(S - np.eye(frame.dim))))


def test_basis_frame():
    f = random_frame(5, [1], "basis")[0]
    assert f.dim == 5 and f.size == 5
    assert np.allclose(f.weights, 1.0)
    norms = np.linalg.norm(f.vectors, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert completeness_error(f) < 1e-9


def test_fused_frame():
    f = random_frame(4, [2], "fused")[0]
    assert f.dim == 4 and f.size == 8
    assert np.allclose(f.weights, 0.5)
    norms = np.linalg.norm(f.vectors, axis=0)
    assert np.max(np.abs(norms - 1)) < 1e-12
    assert completeness_error(f) < 1e-9


def test_frame_deterministic():
    a = random_frame(6, [9], "fused")[0]
    b = random_frame(6, [9], "fused")[0]
    assert np.array_equal(a.vectors, b.vectors)
    c = random_frame(6, [10], "fused")[0]
    assert not np.allclose(a.vectors, c.vectors)


def test_frame_validation():
    # one-frame stacks; a single (d, m) frame is not a stack
    v = np.eye(3, dtype=complex)[None]
    Frame(v, np.ones(3))  # fine
    with pytest.raises(ValueError):
        Frame(2 * v, np.ones(3))  # not unit norm
    with pytest.raises(ValueError):
        Frame(v, np.array([1.0, 1.0, -1.0]))  # negative weight
    with pytest.raises(ValueError):
        Frame(v[..., :2], np.ones(2))  # incomplete
    with pytest.raises(ValueError, match="need"):
        Frame(v[0], np.ones(3))


def test_unknown_kind():
    with pytest.raises(ValueError):
        random_frame(3, [0], "mystery")


def test_dimension_one():
    f = random_frame(1, [0], "basis")[0]
    assert f.size == 1
    assert abs(abs(f.vectors[0, 0]) - 1) < 1e-12
    assert completeness_error(f) < 1e-12


def _reference_vectors(d, seed, bases):
    """The draw written with temporaries: each basis the QR of a summed
    Ginibre matrix, phases fixed by R's diagonal, the bases concatenated."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(bases):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Q, R = np.linalg.qr(A)
        out.append(Q * (np.diag(R) / np.abs(np.diag(R))).conj())
    return np.concatenate(out, axis=1)


def _assert_draw_matches_reference(kind, bases, orders):
    for d in orders:
        seed = np.random.SeedSequence([d, bases])
        got = random_frame(d, [seed], kind).vectors[0]
        want = _reference_vectors(d, seed, bases)
        assert got.tobytes() == want.tobytes(), d


@pytest.mark.parametrize("kind, bases", [("basis", 1), ("fused", 2)])
def test_draw_bit_identical_to_reference(kind, bases):
    # the transpose exchanges s x s tiles of util.BLOCK_BYTES (s = 256):
    # orders just below, at and above one tile and two
    s = int((util.BLOCK_BYTES // 16) ** 0.5)
    _assert_draw_matches_reference(kind, bases, (
        1, 2, 7, 36, 108, 324, s - 1, s, s + 1, 2 * s - 1, 2 * s, 2 * s + 1))


@pytest.mark.parametrize("kind, bases", [("basis", 1), ("fused", 2)])
def test_draw_bit_identical_in_small_blocks(monkeypatch, kind, bases):
    # 3 x 3 transpose tiles and blocks of down to one row of normals: ragged
    # last tiles and blocks at orders small enough to run by the dozen
    monkeypatch.setattr(util, "BLOCK_BYTES", 16 * 9)
    _assert_draw_matches_reference(kind, bases, range(1, 20))


@pytest.mark.parametrize("kind, bound", [("basis", 2.5), ("fused", 3.5)])
def test_draw_peak_memory(kind, bound):
    # at D = 324 the draw's tracemalloc peak was 5.0 (basis) and 9.0
    # (fused) times 16 D^2 when it summed the Ginibre matrix from
    # temporaries, copied a single basis through np.concatenate and checked
    # the frame with D x D products, and 4.07 and 5.07 times while
    # np.linalg.qr copied A and formed triu(R).  LAPACK now factors each
    # basis in the frame's own columns, on a workspace that tracemalloc
    # sees: 2.35 and 3.35 times, the frame and 2.2 MiB (two transpose tiles
    # of BLOCK_BYTES and the workspace)
    d = 324
    random_frame(8, [0], kind)
    tracemalloc.start()
    try:
        random_frame(d, [3], kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * d * d


def test_identity_check_in_row_blocks(monkeypatch):
    # three rows of 40 complex entries per block: an error in the last
    # row is still caught
    monkeypatch.setattr(util, "BLOCK_BYTES", 16 * 3 * 40)
    v = np.eye(40, dtype=complex)[None]
    w = np.ones(40)
    Frame(v, w)
    w[-1] += 1e-10
    Frame(v, w)
    w[-1] += 1e-8
    with pytest.raises(ValueError, match="resolve the identity"):
        Frame(v, w)


@pytest.mark.parametrize("rows", [1, 3, 7, 40])
@pytest.mark.parametrize("i, j", [(0, 39), (39, 0), (5, 6), (6, 5)])
def test_identity_check_sees_each_pair_once(monkeypatch, rows, i, j):
    # column j becomes the unit vector e_j + 1e-6 e_i, normalised, so S - I
    # is about 1e-6 at (i, j) and (j, i) only: the half of S a block of
    # `rows` rows checks from its diagonal on still holds one of them
    monkeypatch.setattr(util, "BLOCK_BYTES", 16 * rows * 40)
    v = np.eye(40, dtype=complex)
    v[i, j] = 1e-6
    v[:, j] /= np.linalg.norm(v[:, j])
    with pytest.raises(ValueError, match="resolve the identity"):
        Frame(v[None], np.ones(40))


@pytest.mark.parametrize("kind", ["basis", "fused"])
def test_stacked_draws_are_each_seeds_own(kind):
    # a list of seeds gives one checked stack whose frame j is bit for bit
    # the draw from seed j alone, at every order up to 36
    for d in range(1, 37):
        seeds = [np.random.SeedSequence(d, spawn_key=(j,)) for j in range(3)]
        stack = random_frame(d, seeds, kind)
        assert stack.vectors.shape == (3, d, frame_bases(kind) * d)
        assert stack.size == 3 * frame_bases(kind) * d
        for j, seed in enumerate(seeds):
            one = random_frame(d, [seed], kind)[0]
            assert stack[j].vectors.tobytes() == one.vectors.tobytes()
            assert np.array_equal(stack[j].weights, one.weights)
            assert stack[j].size == one.size


@pytest.mark.parametrize("broken, match", [
    (lambda v: v.__imul__(1 + 1e-9), "unit norm"),
    (lambda v: v.__setitem__((slice(None), 1), v[:, 0]), "resolve"),
])
@pytest.mark.parametrize("slot", [0, 2])
def test_stack_with_one_broken_slot_is_refused(broken, match, slot):
    # every frame of a stack passes the same checks as a frame alone
    v = random_frame(4, [np.random.SeedSequence(5, spawn_key=(j,))
                         for j in range(3)]).vectors.copy()
    Frame(v, np.ones(4))
    broken(v[slot])
    with pytest.raises(ValueError, match=match):
        Frame(v, np.ones(4))
    with pytest.raises(ValueError, match=match):
        Frame(v[slot][None], np.ones(4))
