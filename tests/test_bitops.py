import random

import numpy as np
import pytest

from polarmhw.bitops import (
    binary_expansion,
    encode,
    encode_rows,
    generator_row,
    min_distance,
    positions_of,
    row_prefix,
    zero_digit_prefix_sum,
)


# ---- oracle: explicit Kronecker power, independent of the covered-bit rule ----


def kron_matrix(N):
    """G_N materialized by repeated Kronecker products with the kernel."""
    G = np.array([[1]], dtype=np.uint8)
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    while G.shape[0] < N:
        G = np.kron(G, kernel)
    return G


class SpecStub:
    def __init__(self, N, A):
        self.N = N
        self.A = tuple(A)


def test_binary_expansion_examples():
    assert binary_expansion(0, 3) == [0, 0, 0]
    assert binary_expansion(1, 3) == [1, 0, 0]
    assert binary_expansion(5, 3) == [1, 0, 1]


def test_binary_expansion_reconstructs_value():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 16)
        x = rng.randrange(1 << n)
        digits = binary_expansion(x, n)
        assert len(digits) == n
        assert sum(d << j for j, d in enumerate(digits)) == x


def test_binary_expansion_range_errors():
    with pytest.raises(ValueError):
        binary_expansion(8, 3)
    with pytest.raises(ValueError):
        binary_expansion(-1, 3)


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


def test_zero_digit_prefix_sum_examples():
    assert zero_digit_prefix_sum(2, 3, 1) == 2
    assert zero_digit_prefix_sum(2, 3, 2) == 6
    assert zero_digit_prefix_sum(7, 3, 1) == 1


def test_zero_digit_prefix_sum_full_identity():
    # summing over every zero digit spans the whole tail [i+1, 2^n]
    for n in range(1, 11):
        for i in range(1, (1 << n)):
            zeros = positions_of(0, binary_expansion(i - 1, n))
            if zeros:
                assert zero_digit_prefix_sum(i, n, len(zeros)) == (1 << n) - i


def test_zero_digit_prefix_sum_errors():
    with pytest.raises(ValueError):
        zero_digit_prefix_sum(8, 3, 1)  # i = 2^n excluded
    with pytest.raises(ValueError):
        zero_digit_prefix_sum(7, 3, 2)  # only one zero digit available


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


def test_row_prefix_examples():
    assert row_prefix(2, 1, 8) == [1, 1]
    assert row_prefix(2, 2, 8) == [1, 1, 0, 0]
    for i in (1, 3, 8):
        assert row_prefix(i, 3, 8) == generator_row(i, 8)


def test_row_prefix_weight_law():
    # prefix weight = full weight / 2^(popcount of the digits above the cut)
    for N in (2, 4, 8, 16, 64, 256):
        n = N.bit_length() - 1
        for i in range(1, N + 1):
            row = generator_row(i, N)
            for lam in range(n + 1):
                prefix = row_prefix(i, lam, N)
                assert prefix == row[: 1 << lam]
                high = (i - 1) >> lam
                assert sum(prefix) == sum(row) >> high.bit_count()


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
            c = encode(u, N)
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
    rng = np.random.default_rng(15)
    for N in (2, 4, 8, 64, 256):
        G = kron_matrix(N).astype(np.int64)
        u = rng.integers(0, 2, size=(40, N), dtype=np.uint8)
        c = encode_rows(u)
        assert c.dtype == np.uint8 and c.shape == u.shape
        assert np.array_equal(c, (u.astype(np.int64) @ G) % 2)
        assert np.array_equal(encode_rows(c), u)
    empty = encode_rows(np.zeros((0, 16), dtype=np.uint8))
    assert empty.shape == (0, 16)


def test_encode_errors():
    with pytest.raises(ValueError):
        encode([0, 1, 0], 4)
    with pytest.raises(ValueError):
        encode([0, 1, 2, 0])
    with pytest.raises(ValueError):
        encode([0, 1, 1])  # length not a power of two


def test_min_distance_examples():
    assert min_distance(SpecStub(8, (4, 6, 7, 8))) == (4, (4, 6, 7))
    assert min_distance(SpecStub(4, (1, 2, 3, 4))) == (1, (1,))
    assert min_distance(SpecStub(2, (2,))) == (2, (2,))


def test_min_distance_empty_error():
    with pytest.raises(ValueError, match="no information bits"):
        min_distance(SpecStub(8, ()))


def test_min_distance_matches_row_weights():
    rng = random.Random(13)
    for _ in range(100):
        N = 1 << rng.randint(1, 8)
        K = rng.randint(1, N)
        A = sorted(rng.sample(range(1, N + 1), K))
        dm, am = min_distance(SpecStub(N, A))
        weights = {i: 1 << (i - 1).bit_count() for i in A}
        assert dm == min(weights.values())
        assert am == tuple(i for i in A if weights[i] == dm)
