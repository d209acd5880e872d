"""The zero-split walk's node steps against a recursive reference.

The reference is SC's recursion on the code tree, its f and g written out
here, on the all-ones input: it follows the all-zero path to the trigger,
takes bit 1 there, forks at an information leaf whose LLR is exactly 0 and
drops a branch at a frozen leaf whose LLR is negative.  It shares no
schedule, node rule or stage buffer with mhw's walk.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_specs
from test_mhw import perturbed_pw

from polarmhw.bitops import encode, min_distance
from polarmhw.construction import (
    RATE0,
    RATE1,
    REP,
    CodeSpec,
    _node_steps,
    construct_ga,
    construct_pw,
)
from polarmhw.mhw import _rate1_node, _rep_node, _zero_split_walk, zero_split_subset
from polarmhw.sctree import sc_decode, sc_replay


def reference_walk(spec, i):
    """(sorted leaves, fork positions, kills) of the zero-split walk from
    trigger i: SC's recursion on the code tree under the all-ones input,
    every branch through a node decoded on its own."""
    forks, kills = set(), 0

    def leaf(p, llr):
        """The bits a branch may take at leaf p: none where it dies."""
        nonlocal kills
        if p <= i:
            return [int(p == i)]
        if not spec.is_info(p):
            if llr < 0:
                kills += 1
                return []
            return [0]
        if llr == 0:
            forks.add(p)
            return [0, 1]
        return [int(llr < 0)]

    def node(alpha, s, k):
        """Every branch through node (s, k), as (its bits, its partial sums)."""
        if s == 0:
            return [([bit], [bit]) for bit in leaf(k, alpha[0])]
        h = len(alpha) // 2
        a, b = alpha[:h], alpha[h:]
        f = [min(abs(x), abs(y)) * (-1 if (x < 0) != (y < 0) else 1) for x, y in zip(a, b)]
        branches = []
        for u_left, beta_left in node(f, s - 1, 2 * k - 1):
            g = [y - x if bit else y + x for x, y, bit in zip(a, b, beta_left)]
            for u_right, beta_right in node(g, s - 1, 2 * k):
                beta = [l ^ r for l, r in zip(beta_left, beta_right)] + beta_right
                branches.append((u_left + u_right, beta))
        return branches

    leaves = [u for u, _ in node([1] * spec.N, spec.n, 1)]
    return sorted(leaves), forks, kills


def early_trigger_specs(count, seed):
    """Random sets holding one of the positions 1..4, so that the first
    trigger sits at one of the first leaves."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        N = rng.choice((8, 16, 32, 64, 128))
        A = set(rng.sample(range(1, N + 1), rng.randint(1, N))) | {rng.randint(1, 4)}
        specs.append(CodeSpec(N, tuple(A)))
    return specs


def assert_walk_matches_reference(specs):
    kills = forks = 0
    for spec in specs:
        triggers = min_distance(spec)[1]
        decisions, branch_positions, walk_kills = _zero_split_walk(spec, triggers)
        rows = []
        for k, i in enumerate(triggers):
            want = reference_walk(spec, i)
            leaves, branches, killed = zero_split_subset(spec, i)
            assert (leaves.tolist(), branches, killed) == want, (spec.A, i)
            assert (branch_positions[k], walk_kills[k]) == want[1:], (spec.A, i)
            rows += want[0]
            kills += killed
            forks += len(branches)
        assert sorted(decisions.tolist()) == sorted(rows), spec.A
    return kills, forks


def test_walk_matches_the_leaf_by_leaf_reference_on_random_sets():
    specs = random_specs(60, (8, 16, 32, 64, 128, 256), seed=41, max_K=256)
    specs += early_trigger_specs(40, seed=42)
    kills, forks = assert_walk_matches_reference(specs)
    assert kills > 100 and forks > 100


def test_walk_matches_the_leaf_by_leaf_reference_on_codes():
    specs = [construct_pw(N, K) for N in (16, 64, 256) for K in (N // 4, N // 2, 3 * N // 4)]
    specs += [construct_ga(N, N // 2, 2.0) for N in (64, 128, 256)]
    specs += [perturbed_pw(128, 64, 0), perturbed_pw(256, 136, 1), perturbed_pw(1024, 192, 2)]
    kills, forks = assert_walk_matches_reference(specs)
    assert kills > 0 and forks > 100


def test_walk_schedule_from_the_first_trigger_is_short():
    # the leaf schedule from the first trigger of PW(1024, 192) on has 79
    # steps; the node steps take at most 30 (a rate-1 node whose input holds
    # a 0 splits further while the walk runs)
    spec = construct_pw(1024, 192)
    triggers = min_distance(spec)[1]
    steps = _node_steps(spec.info_mask, min(triggers) - 1, triggers, (RATE0, REP, RATE1))
    assert steps[0][0] == min(min_distance(spec)[1]) - 1
    assert len(steps) <= 30


def test_walk_refuses_a_trigger_at_a_frozen_position():
    spec = CodeSpec(8, (4, 6, 7, 8))
    for i in (0, 3, 9):
        with pytest.raises(ValueError, match=f"trigger {i} is not an information position"):
            zero_split_subset(spec, i)


def test_all_zero_path_reads_powers_of_two():
    # the closed form the walk starts from: on the all-ones input, the node
    # of stage t that holds leaf p reads 2**popcount(p >> t) in every entry
    for N in (2, 8, 32, 256):
        spec = CodeSpec(N, (N,))
        nodes = sc_replay([1] * N, spec, [0] * N, record_nodes=True).node_llrs
        assert len(nodes) == 2 * N - 1
        for (t, k), llrs in nodes.items():
            assert set(llrs) == {1 << (k - 1).bit_count()}, (N, t, k)


# ---- the node rules on any integer input ----

NODE_INPUTS = st.integers(1, 6).flatmap(
    lambda s: st.lists(
        st.lists(st.integers(-4, 4), min_size=1 << s, max_size=1 << s), min_size=1, max_size=3
    )
)
RULES = settings(derandomize=True, max_examples=250, deadline=None, database=None)


@RULES
@given(NODE_INPUTS)
def test_rate1_rule_matches_the_scalar_tree(lanes):
    # with no 0 in its input no leaf LLR of a rate-1 node is 0, the partial
    # sums are the signs of the input and the bits their transform; with a 0
    # the first leaf's LLR is 0
    m = len(lanes[0])
    spec = CodeSpec(m, tuple(range(1, m + 1)))
    node = _rate1_node(np.array(lanes, dtype=np.int16))
    assert (node is None) == any(0 in alpha for alpha in lanes)
    for lane, alpha in enumerate(lanes):
        out = sc_decode(alpha, spec)
        assert (0 in alpha) == (out.llrs[0] == 0) == (0 in out.llrs)
        if node is not None:
            assert node[0][lane].tolist() == list(out.decisions)
            assert node[1][lane].tolist() == encode(out.decisions) == [int(a < 0) for a in alpha]


@RULES
@given(NODE_INPUTS)
def test_rep_rule_matches_the_scalar_tree(lanes):
    # a REP lane dies iff some frozen leaf LLR is negative; the last leaf
    # reads the sum of the input, and its bit fills the partial sums
    m = len(lanes[0])
    spec = CodeSpec(m, (m,))
    dead, llr = _rep_node(np.array(lanes, dtype=np.int16))
    for lane, alpha in enumerate(lanes):
        out = sc_decode(alpha, spec)
        assert dead[lane] == any(x < 0 for x in out.llrs[:-1])
        assert llr[lane] == out.llrs[-1] == sum(alpha)
        assert encode(out.decisions) == [out.decisions[-1]] * m
