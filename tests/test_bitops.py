import random

import numpy as np
import pytest

from polarmhw.bitops import (
    _pack,
    _transform,
    _weights,
    encode,
    encode_rows,
    generator_row,
    min_distance,
    positions_of,
)
from polarmhw.bound import subtree_input_llr
from polarmhw.construction import CodeSpec
from polarmhw.listdec import scl_decode
from polarmhw.sctree import sc_replay

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


# ---- oracle: explicit Kronecker power, independent of the covered-bit rule ----


def kron_matrix(N):
    """G_N materialized by repeated Kronecker products with the kernel."""
    G = np.array([[1]], dtype=np.uint8)
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    while G.shape[0] < N:
        G = np.kron(G, kernel)
    return G


def test_positions_of_examples():
    x = [1, 1, 0, 1, 0]
    assert positions_of(0, x) == (3, 5)
    assert positions_of(1, x) == (1, 2, 4)
    assert positions_of(1, [0, 0, 0, 0]) == ()


def test_positions_partition():
    rng = random.Random(11)
    for _ in range(100):
        x = [rng.randint(0, 1) for _ in range(rng.randint(1, 40))]
        zeros = positions_of(0, x)
        ones = positions_of(1, x)
        assert sorted(zeros + ones) == list(range(1, len(x) + 1))
        assert not set(zeros) & set(ones)


def test_generator_row_examples():
    assert generator_row(1, 8) == [1, 0, 0, 0, 0, 0, 0, 0]
    assert generator_row(8, 8) == [1, 1, 1, 1, 1, 1, 1, 1]
    assert generator_row(4, 8) == [1, 1, 1, 1, 0, 0, 0, 0]


def test_generator_row_against_kron_oracle():
    for N in (2, 4, 8, 16, 32):
        G = kron_matrix(N)
        for i in range(1, N + 1):
            assert generator_row(i, N) == G[i - 1].tolist()


def test_generator_row_weight_law():
    # the weight of row i is 2**popcount(i - 1)
    for N in (2, 8, 64, 1024):
        for i in range(1, N + 1):
            assert sum(generator_row(i, N)) == 1 << (i - 1).bit_count()


def test_encode_examples():
    assert encode([0] * 8) == [0] * 8
    for i in range(1, 9):
        e = [0] * 8
        e[i - 1] = 1
        assert encode(e) == generator_row(i, 8)
    assert encode([0, 1, 0, 1, 0, 0, 0, 0]) == [0, 0, 1, 1, 0, 0, 0, 0]


def test_encode_matches_matrix_product_and_involutes():
    rng = random.Random(3)
    for N in (2, 4, 8, 16, 64, 256):
        G = kron_matrix(N)
        for _ in range(20):
            u = [rng.randint(0, 1) for _ in range(N)]
            c = encode(u)
            assert c == (np.array(u, dtype=np.uint8) @ G % 2).tolist()
            assert encode(c) == u


def test_encode_linearity():
    rng = random.Random(5)
    for _ in range(50):
        N = 1 << rng.randint(1, 6)
        u = [rng.randint(0, 1) for _ in range(N)]
        v = [rng.randint(0, 1) for _ in range(N)]
        both = [a ^ b for a, b in zip(u, v)]
        assert encode(both) == [a ^ b for a, b in zip(encode(u), encode(v))]


def test_encode_rows_matches_matrix_product_and_involutes():
    # N < 64 fills part of one packed word, N = 64 exactly one, and larger N
    # adds the stages across words
    rng = np.random.default_rng(15)
    for n in range(1, 13):
        N = 1 << n
        if N <= 512:
            u = rng.integers(0, 2, size=(40, N), dtype=np.uint8)
            want = (u.astype(np.int64) @ kron_matrix(N).astype(np.int64)) % 2
        else:
            # G_N is too large to build here: sparse messages, each codeword
            # the XOR of the generator rows of its ones
            u = np.zeros((40, N), dtype=np.uint8)
            want = np.zeros((40, N), dtype=np.int64)
            for row, c in zip(u, want):
                for i in rng.choice(N, size=8, replace=False).tolist():
                    row[i] = 1
                    c ^= generator_row(i + 1, N)
        c = encode_rows(u)
        assert c.dtype == np.uint8 and c.shape == u.shape
        assert np.array_equal(c, want)
        assert np.array_equal(encode_rows(c), u)
        assert np.array_equal(_weights(_transform(_pack(u), N)), want.sum(axis=1))
        wide = encode_rows(u.astype(np.int64))
        assert wide.dtype == np.int64 and np.array_equal(wide, want)
        assert encode_rows(np.zeros((0, N), dtype=np.uint8)).shape == (0, N)


def test_encode_errors():
    with pytest.raises(ValueError):
        encode([0, 1, 2, 0])
    with pytest.raises(ValueError):
        encode([0, 1, 1])  # length not a power of two
    with pytest.raises(ValueError):
        encode_rows(np.zeros((1, 6), dtype=np.uint8))  # packs into one word
    # encode_rows once packed a 2 as 1, where encode refused the same row
    for u in ([[2, 2, 2, 2]], [[0, 1, 0, 0], [0, 0, -1, 0]], [[0.5, 1, 0, 1]]):
        with pytest.raises(ValueError, match="^u must be a 0/1 vector$"):
            encode_rows(np.array(u))
        with pytest.raises(ValueError, match="^u must be a 0/1 vector$"):
            encode(u[-1])


def unit(v):
    """SPEC8's information vector with one 1, at position 4, written as v."""
    return [0, 0, 0, v, 0, 0, 0, 0]


# each public function that reads a 0/1 vector, called on unit(v)
ZERO_ONE_READERS = {
    "encode": lambda v: encode(unit(v)),
    "sc_replay": lambda v: sc_replay([1] * 8, SPEC8, unit(v)),
    "scl_decode": lambda v: scl_decode([1] * 8, SPEC8, 2, forced_prefix=unit(v)[:4]),
    # part 1 of the tail of 4 reads the decisions at positions 1..4
    "subtree_input_llr": lambda v: subtree_input_llr(4, 1, unit(v)[:4], 3),
}


@pytest.mark.parametrize("reader", sorted(ZERO_ONE_READERS))
def test_zero_one_inputs_are_checked_not_truncated(reader):
    call = ZERO_ONE_READERS[reader]
    for bad in (0.5, 1.7, 2, -1):
        with pytest.raises(ValueError, match="must be a 0/1 vector"):
            call(bad)
    for one in (1.0, True, np.uint8(1)):
        assert call(one) == call(1)


def test_min_distance_examples():
    assert min_distance(CodeSpec(8, (4, 6, 7, 8))) == (4, (4, 6, 7))
    assert min_distance(CodeSpec(4, (1, 2, 3, 4))) == (1, (1,))
    assert min_distance(CodeSpec(2, (2,))) == (2, (2,))


def test_min_distance_matches_row_weights():
    rng = random.Random(13)
    for _ in range(100):
        N = 1 << rng.randint(1, 8)
        K = rng.randint(1, N)
        A = sorted(rng.sample(range(1, N + 1), K))
        dm, am = min_distance(CodeSpec(N, A))
        weights = {i: 1 << (i - 1).bit_count() for i in A}
        assert dm == min(weights.values())
        assert am == tuple(i for i in A if weights[i] == dm)
