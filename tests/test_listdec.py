import hashlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from conftest import RawSpec, brute_force_minimum_weight, first_one, leaf_schedule, random_specs

from polarmhw import listdec
from polarmhw.bitops import encode, generator_row, min_distance
from polarmhw.construction import CodeSpec, construct_ga, construct_pw, design_sigma
from polarmhw.listdec import (
    _RUN_BYTES,
    SearchDiagnostics,
    _engine,
    _exact_input,
    _replay,
    _search,
    _Stages,
    scl_decode,
    scl_decode_batch,
)
from polarmhw.mhw import enumerate_zero_split
from polarmhw.sctree import sc_decode, sc_replay, sc_retrace

SPEC8 = CodeSpec(8, (4, 6, 7, 8))


def weight(u):
    return sum(encode(list(u)))


# ---- list size one reduces to plain SC ----


def test_list_of_one_matches_sc_integer_inputs():
    rng = random.Random(7)
    for spec in random_specs(40, (2, 4, 8, 16), seed=71):
        llrs = [rng.randint(-6, 6) for _ in range(spec.N)]
        top = scl_decode(llrs, spec, L=1)
        assert len(top) == 1
        ref = sc_decode(llrs, spec)
        assert top[0].decisions == ref.decisions
        assert top[0].pm == ref.pm
        assert top[0].rds == ref.rds


def test_list_of_one_matches_sc_float_inputs():
    rng = random.Random(8)
    for spec in random_specs(40, (4, 8, 16, 32), seed=72):
        llrs = [rng.gauss(0.5, 2.0) for _ in range(spec.N)]
        top = scl_decode(llrs, spec, L=1)[0]
        ref = sc_decode(llrs, spec)
        assert top.decisions == ref.decisions
        assert top.pm == pytest.approx(ref.pm, rel=1e-12, abs=0.0)
        assert top.rds == ref.rds


# ---- noiseless all-ones searches on the length-8 rate-1/2 code ----


def test_all_ones_list_sixteen_contains_the_fourteen_minimum_weight_paths():
    d_m, _ = min_distance(SPEC8)
    assert d_m == 4
    expected = brute_force_minimum_weight(SPEC8)[1]
    survivors = scl_decode([1] * 8, SPEC8, L=16)
    assert len(survivors) == 16
    minimum = [p for p in survivors if weight(p.decisions) == d_m]
    assert {p.decisions for p in minimum} == expected
    assert len(minimum) == 14
    pms = {p.pm for p in minimum}
    assert len(pms) == 1


def test_all_ones_survivors_include_the_all_zero_path_at_metric_zero():
    survivors = scl_decode([1] * 8, SPEC8, L=16)
    best = survivors[0]
    assert best.decisions == (0,) * 8
    assert best.pm == 0
    assert best.rds == ()


def test_constrained_two_path_search_after_forcing_positions_four_and_six():
    prefix = [0, 0, 0, 1, 0, 1]
    paths = scl_decode([1] * 8, SPEC8, L=2, forced_prefix=prefix)
    assert [p.decisions for p in paths] == [
        (0, 0, 0, 1, 0, 1, 0, 0),
        (0, 0, 0, 1, 0, 1, 0, 1),
    ]
    subset = {
        u for u in brute_force_minimum_weight(SPEC8)[1] if u[3] == 1 and u[5] == 1
    }
    assert len(subset) == 4
    for p in paths:
        assert p.decisions in subset
        assert p.pm == 4
        assert p.rds == (4,)


def test_constrained_full_search_after_forcing_position_four():
    paths = scl_decode([1] * 8, SPEC8, L=8, forced_prefix=[0, 0, 0, 1])
    assert len(paths) == 8
    expected = {u for u in brute_force_minimum_weight(SPEC8)[1] if first_one(u) == 4}
    assert {p.decisions for p in paths} == expected
    for p in paths:
        assert weight(p.decisions) == 4
        assert p.pm == 4
        assert p.rds == (4,)


# ---- structural invariants on noiseless all-ones searches ----


def test_minimum_weight_survivors_have_singleton_reverse_sets():
    # under the all-ones input, every minimum-weight survivor flips exactly
    # once: at its first nonzero decision, which must be a minimum-weight row
    for spec in random_specs(25, (8, 16, 32), seed=73, max_K=6):
        d_m, a_m = min_distance(spec)
        survivors = scl_decode([1] * spec.N, spec, L=1 << spec.K)
        for p in survivors:
            if not any(p.decisions):
                continue
            if weight(p.decisions) != d_m:
                continue
            i = first_one(p.decisions)
            assert i in a_m
            assert sum(generator_row(i, spec.N)) == d_m
            assert p.rds == (i,)
            assert p.pm == sc_retrace([1] * spec.N, spec, rds={i}).pm


def test_full_list_search_recovers_every_minimum_weight_vector():
    for spec in random_specs(15, (8, 16), seed=74, max_K=8):
        d_m, _ = min_distance(spec)
        expected = brute_force_minimum_weight(spec)[1]
        survivors = scl_decode([1] * spec.N, spec, L=1 << spec.K)
        found = {p.decisions for p in survivors if weight(p.decisions) == d_m}
        assert found == expected


# ---- path metrics replay exactly ----


def test_path_metrics_match_replay_exact_mode():
    rng = random.Random(9)
    for spec in random_specs(20, (8, 16), seed=75, max_K=8):
        llrs = [rng.randint(-4, 4) for _ in range(spec.N)]
        for p in scl_decode(llrs, spec, L=4):
            replay = sc_replay(llrs, spec, list(p.decisions))
            assert replay.pm == p.pm
            assert replay.rds == p.rds


def test_path_metrics_match_replay_float_mode():
    rng = random.Random(10)
    for spec in random_specs(20, (8, 16, 32), seed=76):
        llrs = [rng.gauss(0.0, 2.0) for _ in range(spec.N)]
        for p in scl_decode(llrs, spec, L=4):
            replay = sc_replay(llrs, spec, list(p.decisions))
            assert replay.pm == pytest.approx(p.pm, rel=1e-9, abs=1e-12)
            assert replay.rds == p.rds


def test_batched_replay_matches_scalar_replay():
    # verify replays all its sampled members in one engine run, L = 1 with
    # every decision pinned: each row's metric, leaf LLRs and zero positions
    # must equal the scalar SC replay's, on every minimum-weight member
    specs = [construct_pw(16, 8), construct_pw(64, 32), construct_ga(128, 64, 2.0)]
    specs += [construct_pw(256, 136)] + random_specs(8, (32, 64), seed=81, max_K=20)
    for spec in specs:
        ones = [1] * spec.N
        members = enumerate_zero_split(spec).vectors
        replays = _search(ones, spec, 1, members, leaves=True)
        assert len(replays) == len(members)
        for u, (decisions, pm, llr, diagnostics) in zip(members, replays):
            ref = sc_replay(ones, spec, list(u))
            assert decisions.tolist() == [u.tolist()]
            assert pm.tolist() == [ref.pm]
            assert llr.tolist() == [list(ref.llrs)]
            assert tuple((np.flatnonzero(llr[0] == 0) + 1).tolist()) == ref.zero_positions
            assert diagnostics == SearchDiagnostics()


def batched_search_corpus():
    rng = random.Random(82)
    for spec in random_specs(100, (8, 16, 32, 64), seed=83):
        N = spec.N
        llrs = rng.choice(
            (
                [1] * N,
                [rng.randint(-3, 3) for _ in range(N)],
                [rng.gauss(0.5, 2.0) for _ in range(N)],
                [rng.choice(MIXED_LLRS) for _ in range(N)],
            )
        )
        yield spec, llrs, rng.choice((1, 2, 3, 4, 8)), rng
    # small magnitudes typed int or float at random: equal int and float
    # metrics meet among the discarded candidates
    for spec in random_specs(300, (8, 16), seed=84):
        llrs = [rng.choice((int, float))(rng.randint(-2, 2)) for _ in range(spec.N)]
        yield spec, llrs, rng.choice((1, 2, 3, 4)), rng


def test_batched_searches_match_one_at_a_time():
    # searches pinned to prefixes of different lengths share one engine run
    # under a live-lane mask; each must equal its own run: paths, metrics,
    # leaf LLRs, discard count and cheapest discarded metric (and its type)
    for spec, llrs, L, rng in batched_search_corpus():
        prefixes = [
            [rng.randint(0, 1) if spec.is_info(p) else 0 for p in range(1, rng.randint(0, spec.N) + 1)]
            for _ in range(rng.randint(2, 6))
        ]
        together = _search(llrs, spec, L, prefixes, leaves=True)
        for prefix, (decisions, pm, llr, diagnostics) in zip(prefixes, together):
            alone = _search(llrs, spec, L, [prefix], leaves=True)[0]
            assert decisions.tolist() == alone[0].tolist()
            assert pm.tolist() == alone[1].tolist()
            assert llr.tolist() == alone[2].tolist()
            assert repr(diagnostics) == repr(alone[3])


def test_searches_at_their_own_widths_match_one_at_a_time():
    # a ragged run gives each prefix its own list width and its own lanes,
    # with prefixes ending at different leaves; each search must equal its
    # own run: paths, metrics and their types, leaf LLRs, discard count and
    # cheapest discarded metric (and its type)
    kinds = set()
    for spec, llrs, _, rng in batched_search_corpus():
        ends = rng.sample(range(spec.N + 1), rng.randint(2, 6))
        prefixes = [
            [rng.randint(0, 1) if spec.is_info(p) else 0 for p in range(1, end + 1)]
            for end in ends
        ]
        widths = [rng.choice((1, 2, 3, 4, 8, 16)) for _ in prefixes]
        together = _search(llrs, spec, widths, prefixes, leaves=True)
        for prefix, L, (decisions, pm, llr, diagnostics) in zip(prefixes, widths, together):
            alone = _search(llrs, spec, L, [prefix], leaves=True)[0]
            assert decisions.tolist() == alone[0].tolist()
            assert pm.dtype == alone[1].dtype
            assert [(type(x), x) for x in pm.tolist()] == [(type(x), x) for x in alone[1].tolist()]
            assert llr.dtype == alone[2].dtype
            assert llr.tolist() == alone[2].tolist()
            assert repr(diagnostics) == repr(alone[3])
        kinds.add(llr.dtype.kind)
    assert kinds == {"i", "f", "O"}


# ---- fully pinned replays, stage by stage ----


def test_stage_replay_matches_the_leaf_engine():
    # a fully pinned path needs no list: the stage-by-stage replay must equal
    # the leaf engine run with every decision pinned, in decisions, leaf LLRs
    # and their dtype, path metrics with their dtype and Python types, and
    # diagnostics
    kinds = set()
    for spec, llrs, _, rng in batched_search_corpus():
        N = spec.N
        paths = [[rng.randint(0, 1) * spec.is_info(p) for p in range(1, N + 1)] for _ in range(6)]
        u = np.array(paths[: rng.randint(1, 6)], dtype=np.uint8)
        pm, llr, got = _replay(llrs, spec, u)
        ref_pm, counts, trace, discarded, low = _engine(
            _exact_input(llrs, N), spec, 1, True, u, np.full(len(u), N), leaves=True
        )
        decisions, ref_llr = trace(np.zeros((len(u), 1), dtype=np.intp))
        assert counts.tolist() == [1] * len(u)
        assert decisions[:, 0].tolist() == u.tolist()
        assert pm.dtype == ref_pm.dtype
        assert [(type(x), x) for x in pm.tolist()] == [(type(x), x) for x in ref_pm[:, 0].tolist()]
        assert llr.dtype == ref_llr.dtype
        assert llr.tolist() == ref_llr[:, 0].tolist()
        assert got == {}
        assert SearchDiagnostics(discarded, low) == SearchDiagnostics()
        kinds.add(llr.dtype.kind)
    assert kinds == {"i", "f", "O"}


@pytest.mark.parametrize(
    "spec",
    [construct_pw(64, 32), construct_ga(128, 64, 2.0), construct_pw(256, 136)],
    ids=["pw64", "ga128", "pw256"],
)
def test_stage_replay_node_llrs_match_the_scalar_tree(spec):
    # verify's subtree-root probes read node LLRs off the stage pass: every
    # node of every member's replay must equal sctree's recorded one
    members = enumerate_zero_split(spec).vectors[:12]
    rows = range(len(members))
    refs = [sc_replay([1] * spec.N, spec, list(u), record_nodes=True).node_llrs for u in members]
    nodes = [(row, *key) for row in rows for key in refs[row]]
    _, _, got = _replay([1] * spec.N, spec, np.array(members, dtype=np.uint8), nodes)
    assert got.keys() == set(nodes)
    for row, stage, node in nodes:
        assert got[row, stage, node].tolist() == list(refs[row][stage, node])


@pytest.mark.parametrize("kind", ["int", "int-and-float"])
def test_stage_replay_of_several_inputs_matches_one_at_a_time(monkeypatch, kind):
    # verify replays its members and bare rows under the all-ones input and
    # its all-zero rows under 1 - g_i, all in one call: each row must equal a
    # one-vector replay of its own input, in metric, leaf LLRs and node LLRs,
    # with rows that span several chunks
    spec = construct_pw(64, 32)
    N, n = spec.N, spec.n
    rows = [generator_row(i, N) for i in (8, 22, 64)]
    if kind == "int":
        inputs = [[1] * N, *([1 - b for b in row] for row in rows), [(p % 7) - 3 for p in range(N)]]
    else:
        inputs = [[1] * N, [3.5 * (1 - b) for b in rows[0]]]
    rng = np.random.default_rng(90)
    u = (rng.integers(0, 2, size=(14, N)) * spec.info_mask).astype(np.uint8)
    u[-4:] = 0
    which = rng.integers(0, len(inputs), size=len(u)).tolist()
    nodes = [(b, s, k) for b in range(len(u)) for s in range(n + 1) for k in range(1, (N >> s) + 1)]
    # chunks of six rows for int16 LLRs and of two for float64
    monkeypatch.setattr(listdec, "_RUN_BYTES", 100 * N)
    pm, llr, got = _replay(inputs, spec, u, nodes, which)
    assert pm.dtype == (np.int64 if kind == "int" else np.float64)
    for b, x in enumerate(which):
        own = [(0, s, k) for _, s, k in nodes[b * (2 * N - 1) : (b + 1) * (2 * N - 1)]]
        pm_b, llr_b, got_b = _replay(inputs[x], spec, u[b : b + 1], own)
        assert pm[b] == pm_b[0] and llr[b].tolist() == llr_b[0].tolist()
        for (_, s, k), vector in got_b.items():
            assert got[b, s, k].tolist() == vector.tolist()
    assert len(got) == len(nodes)


def test_stage_replay_peak_memory():
    # rows run in chunks: one replay of 520 rows at N = 16,384 holds at most
    # its scratch budget beside the (B, N) leaf LLRs it returns
    spec = construct_pw(16384, 8192)
    rng = np.random.default_rng(89)
    u = (rng.integers(0, 2, size=(520, spec.N)) * spec.info_mask).astype(np.uint8)
    tracemalloc.start()
    try:
        pm, llr, _ = _replay([1] * spec.N, spec, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _RUN_BYTES + llr.nbytes + pm.nbytes


# ---- the shared stage buffers ----


def random_llrs(rng, dtype, B, N):
    if dtype is np.int16:
        return rng.integers(-8, 9, size=(B, N)).astype(np.int16)
    if dtype is np.float64:
        return rng.normal(0.5, 2.0, size=(B, N))
    # Python ints past the int64 range mixed with dyadic floats
    values = [x * 10**20 if x % 2 else x / 4 for x in rng.integers(-8, 9, size=B * N).tolist()]
    return np.array(values, dtype=object).reshape(B, N)


def assert_lane_matches_replay(row, decisions, seen):
    """A lane's node inputs, the ((stage, node), LLRs) pairs in seen, against
    the scalar recursion replayed on its LLR row along its decisions, padded
    with 0s; every position is informative, so any bits are allowed."""
    N = len(row)
    u = decisions + [0] * (N - len(decisions))
    replay = sc_replay(row, CodeSpec(N, tuple(range(1, N + 1))), u, record_nodes=True)
    assert [tuple(values) for _, values in seen] == [replay.node_llrs[key] for key, _ in seen]


def select_lanes(rows, paths, lane):
    """Each row's (decisions, node inputs) paths copied to the (B, m) parent
    lanes `lane`, after checking the paths that no new lane copies."""
    lane = lane.tolist()
    for row, lanes, js in zip(rows, paths, lane):
        for j in sorted(set(range(len(lanes))) - set(js)):
            assert_lane_matches_replay(row, *lanes[j])
    return [[(list(lanes[j][0]), list(lanes[j][1])) for j in js] for lanes, js in zip(paths, lane)]


@pytest.mark.parametrize("dtype", [np.int16, np.float64, object], ids=lambda d: np.dtype(d).name)
def test_stage_buffers_match_the_scalar_tree_under_random_lane_maps(dtype):
    # the list engine and the zero-split walk both run on _Stages: every
    # lane's leaf LLRs must equal the scalar recursion's along that lane's
    # decisions, and trace must read back its decisions and leaves, whatever
    # the lane maps do (repeat lanes, drop lanes, shrink to one lane as a
    # kill does, grow from the shared one-row buffers); each lane is checked
    # once, when a select drops it or at the end
    rng = np.random.default_rng(88)
    for _ in range(60):
        N, B = int(rng.choice((2, 4, 8, 16, 32, 64))), int(rng.integers(1, 4))
        llrs = random_llrs(rng, dtype, B, N)
        rows = llrs.tolist()
        stages = _Stages(llrs)
        paths = [[([], [])] for _ in range(B)]  # per lane, (decisions, leaf LLRs read)
        recorded = []
        for phi in range(N):
            width = len(paths[0])
            leaf = np.broadcast_to(stages.node(phi)[..., 0], (B, width))
            recorded.append(leaf)
            for lanes, values in zip(paths, leaf.tolist()):
                for (_, seen), value in zip(lanes, values):
                    seen.append(((0, phi + 1), [value]))
            if rng.random() < 0.4:
                m = int(rng.choice((1, 1, width, min(2 * width, 16), 8)))
                lane = rng.integers(0, width, size=(B, m))
                stages.select(phi, lane)
                paths = select_lanes(rows, paths, lane)
            bit = rng.integers(0, 2, size=(B, len(paths[0]))).astype(np.uint8)
            stages.commit(phi, bit)
            for lanes, bits in zip(paths, bit.tolist()):
                for (decisions, _), b in zip(lanes, bits):
                    decisions.append(b)
        width = len(paths[0])
        decisions, leaves = stages.trace(np.broadcast_to(np.arange(width), (B, width)), recorded)
        assert decisions.tolist() == [[d for d, _ in lanes] for lanes in paths]
        assert leaves.tolist() == [[[v for _, (v,) in seen] for _, seen in lanes] for lanes in paths]
        for row, lanes in zip(rows, paths):
            for path in lanes:
                assert_lane_matches_replay(row, *path)


def random_rate0_spec(rng, N):
    """A random information set whose frozen positions often fill whole
    nodes: each aligned block of N/8 leaves is all frozen with chance 1/3."""
    info = rng.random(N) < rng.random()
    block = max(1, N // 8)
    info &= np.repeat(rng.random(N // block) >= 1 / 3, block)
    A = tuple((np.flatnonzero(info) + 1).tolist())
    return CodeSpec(N, A or (N,))


def test_stage_node_steps_match_the_scalar_tree_under_random_lane_maps():
    # a rate-0 node runs as one _Stages step: its input LLRs must equal the
    # scalar recursion's along the lane's decisions, 0 at every leaf of the
    # node, and a select at the node that changes the lane count must move
    # only the maps of stages >= the node's: those below may still hold maps
    # for the old count, and composing them raises or misreads a row
    rng = np.random.default_rng(89)
    nodes = 0
    for _ in range(80):
        N, B = int(rng.choice((4, 8, 16, 32, 64))), int(rng.integers(1, 4))
        spec = random_rate0_spec(rng, N)
        llrs = random_llrs(rng, np.int16, B, N)
        rows = llrs.tolist()
        stages = _Stages(llrs)
        paths = [[([], [])] for _ in range(B)]  # per lane, (decisions, node inputs read)
        for phi, s in spec._sc_steps:
            width = len(paths[0])
            got = np.broadcast_to(stages.node(phi, s), (B, width, 1 << s))
            for lanes, values in zip(paths, got.tolist()):
                for (_, seen), value in zip(lanes, values):
                    seen.append(((s, (phi >> s) + 1), value))
            if rng.random() < 0.5:
                m = int(rng.choice((1, width, min(2 * width, 16), 8)))
                lane = rng.integers(0, width, size=(B, m))
                stages.select(phi, lane, s)
                paths = select_lanes(rows, paths, lane)
            if s:
                nodes += 1
                stages.commit(phi, None, s)
                bits = np.zeros((B, len(paths[0]), 1 << s), dtype=np.uint8)
            else:
                bits = rng.integers(0, 2, size=(B, len(paths[0]), 1), dtype=np.uint8)
                stages.commit(phi, bits[..., 0])
            for lanes, lane_bits in zip(paths, bits.tolist()):
                for (decisions, _), values in zip(lanes, lane_bits):
                    decisions.extend(values)
        width = len(paths[0])
        decisions, _ = stages.trace(np.broadcast_to(np.arange(width), (B, width)))
        assert decisions.tolist() == [[d for d, _ in lanes] for lanes in paths]
        for row, lanes in zip(rows, paths):
            for path in lanes:
                assert_lane_matches_replay(row, *path)
    assert nodes > 100


def test_rate0_node_penalty_is_the_sum_of_its_negative_inputs():
    # the node step's rule, against the scalar tree: deciding 0 at every leaf
    # of a node with integer input alpha costs sum_j |alpha_j| [alpha_j < 0]
    # under min-sum, and some leaf LLR is negative iff some alpha_j is
    rng = random.Random(90)
    for s in range(1, 7):
        for _ in range(100):
            alpha = [rng.randint(rng.choice((-6, -1, 0)), 6) for _ in range(1 << s)]
            replay = sc_replay(alpha, RawSpec(1 << s, ()), [0] * len(alpha))
            assert replay.pm == sum(-a for a in alpha if a < 0)
            assert any(l < 0 for l in replay.llrs) == any(a < 0 for a in alpha)


def test_search_node_steps_match_the_leaf_schedule():
    # integer searches that record no leaf LLR take each rate-0 node in one
    # step; decisions, metrics with their dtype and the prune diagnostics
    # must equal the leaf-by-leaf run's, with and without pinned prefixes of
    # different lengths
    rng = random.Random(91)
    specs = random_specs(60, (16, 32, 64, 128, 256), seed=92, max_K=256)
    specs += [construct_pw(N, N // 2) for N in (32, 64, 128, 256)]
    specs += [construct_ga(N, N // 4, 2.0) for N in (64, 256)]
    nodes = 0
    for spec in specs:
        ref = leaf_schedule(spec)
        nodes += sum(s > 0 for _, s in spec._sc_steps)
        N = spec.N
        llrs = rng.choice(([1] * N, [rng.randint(-3, 3) for _ in range(N)]))
        prefixes = [
            [rng.randint(0, 1) if spec.is_info(p) else 0 for p in range(1, rng.randint(0, N) + 1)]
            for _ in range(rng.randint(1, 4))
        ]
        L = rng.choice((1, 2, 4, 16, 64))
        for got, want in zip(_search(llrs, spec, L, prefixes), _search(llrs, ref, L, prefixes)):
            assert got[0].tolist() == want[0].tolist()
            assert got[1].dtype == want[1].dtype == np.int64
            assert got[1].tolist() == want[1].tolist()
            assert repr(got[3]) == repr(want[3])
    assert nodes > 300


def test_integer_searches_match_float_searches_of_the_same_values():
    # integer runs take rate-0 nodes in one step and rank rows of 256 or
    # more candidates as int16 when every metric fits; float runs of the
    # same values keep the leaf schedule and the float64 sort, so both must
    # keep the same paths at the same metrics (large LLRs overflow int16)
    rng = random.Random(93)
    specs = random_specs(10, (64, 128, 256), seed=94, max_K=256) + [construct_pw(256, 128)]
    for spec in specs:
        top = rng.choice((1, 3, 3000))
        llrs = [rng.randint(-top, top) for _ in range(spec.N)]
        prefixes = [[], [0] * rng.randint(1, spec.N // 2)]
        L = rng.choice((128, 512))
        ints, floats = _search(llrs, spec, L, prefixes), _search(list(map(float, llrs)), spec, L, prefixes)
        for got, want in zip(ints, floats):
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            assert got[3].discarded == want[3].discarded
            assert got[3].min_discarded_pm == want[3].min_discarded_pm


# ---- ranking and diagnostics ----


def test_paths_return_sorted_by_metric_then_decisions():
    rng = random.Random(11)
    for spec in random_specs(20, (8, 16), seed=77):
        llrs = [rng.gauss(0.0, 2.0) for _ in range(spec.N)]
        paths = scl_decode(llrs, spec, L=8)
        keys = [(p.pm, p.decisions) for p in paths]
        assert keys == sorted(keys)


def test_diagnostics_report_no_discards_when_list_is_wide_enough():
    paths, diag = scl_decode([1] * 8, SPEC8, L=16, with_diagnostics=True)
    assert len(paths) == 16
    assert diag.discarded == 0
    assert diag.min_discarded_pm is None


def test_diagnostics_report_discards_when_list_saturates():
    paths, diag = scl_decode([1] * 8, SPEC8, L=4, with_diagnostics=True)
    assert len(paths) == 4
    assert diag.discarded > 0
    assert diag.min_discarded_pm is not None


# ---- argument validation ----


def test_forced_prefix_must_respect_frozen_positions():
    with pytest.raises(ValueError):
        scl_decode([1] * 8, SPEC8, L=2, forced_prefix=[0, 0, 1])


def test_forced_prefix_must_fit_and_be_binary():
    with pytest.raises(ValueError):
        scl_decode([1] * 8, SPEC8, L=2, forced_prefix=[0] * 9)
    with pytest.raises(ValueError):
        scl_decode([1] * 8, SPEC8, L=2, forced_prefix=[0, 0, 0, 2])


def test_list_size_and_input_length_are_validated():
    with pytest.raises(ValueError):
        scl_decode([1] * 4, SPEC8, L=2)
    # a bad list size is one ValueError, never truncated to an integer, and
    # Python and numpy integers of any size decode alike
    llrs = np.random.default_rng(2).normal(size=(4, 8))
    for L, why in ((2.5, "2.5 must be an integer"), (3.9, "3.9 must be an integer"),
                   (None, "None must be an integer"), (0, "0 must be >= 1")):
        with pytest.raises(ValueError, match=f"^list size L={re.escape(why)}$"):
            scl_decode([1] * 8, SPEC8, L)
        with pytest.raises(ValueError, match=f"^list size L={re.escape(why)}$"):
            scl_decode_batch(llrs, SPEC8, L)
    for L in (np.int64(3), np.uint8(3), np.int16(3)):
        assert scl_decode([1] * 8, SPEC8, L) == scl_decode([1] * 8, SPEC8, 3)
        assert np.array_equal(scl_decode_batch(llrs, SPEC8, L), scl_decode_batch(llrs, SPEC8, 3))
    assert scl_decode([1] * 8, SPEC8, 2**70) == scl_decode([1] * 8, SPEC8, 16)


def test_scalar_decoder_rejects_non_finite_llrs():
    for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
        llrs = [1.0] * 8
        llrs[5] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            scl_decode(llrs, SPEC8, L=2)
    with pytest.raises(ValueError, match="NaN or infinite"):
        scl_decode([float("nan")] * 8, SPEC8, L=2, forced_prefix=[0, 0, 0, 1])
    # Python ints are exact and never checked: a value past the float range
    # still decodes
    assert scl_decode([10**400] * 8, SPEC8, L=2)[0].decisions == (0,) * 8


# ---- batched float engine agrees with the scalar engine ----


def test_batch_decoder_matches_scalar_best_path():
    rng = np.random.default_rng(78)
    for N in (8, 16):
        for L in (1, 2, 4):
            specs = random_specs(3, (N,), seed=79 + N + L)
            for spec in specs:
                llrs = rng.normal(1.0, 1.4, size=(24, N))
                out = scl_decode_batch(llrs, spec, L=L)
                for row, decoded in zip(llrs, out):
                    ref = scl_decode(list(row), spec, L=L)[0]
                    assert tuple(int(b) for b in decoded) == ref.decisions


def test_batch_decoder_recovers_clean_codewords():
    spec = CodeSpec(16, (8, 11, 12, 13, 14, 15, 16))
    rng = np.random.default_rng(80)
    msgs = rng.integers(0, 2, size=(50, spec.K))
    u = np.zeros((50, 16), dtype=np.uint8)
    u[:, [a - 1 for a in spec.A]] = msgs
    c = u.copy()
    half = 1
    while half < 16:
        for start in range(16):
            if start & half == 0:
                c[:, start] ^= c[:, start + half]
        half *= 2
    llrs = 4.0 * (1.0 - 2.0 * c.astype(np.float64))
    out = scl_decode_batch(llrs, spec, L=2)
    assert np.array_equal(out, u)


def test_batch_decoder_rows_are_decoded_independently():
    # simulate packs the chunks of several Eb/N0 points into one call: a row's
    # decisions must not depend on the rows decoded beside it, at any noise
    # level, and with the ties of integer-valued LLRs
    for seed in range(4):
        rng = np.random.default_rng(90 + seed)
        spec = construct_pw(64, 32) if seed % 2 else construct_ga(64, 24, 1.0)
        if seed < 3:
            sigma = rng.uniform(0.5, 1.2, size=(40, 1))
            llrs = 2.0 * (1.0 + sigma * rng.normal(size=(40, spec.N))) / sigma**2
        else:
            llrs = rng.integers(-2, 4, size=(40, spec.N)).astype(np.float64)
        cuts = np.sort(rng.choice(np.arange(1, 40), size=5, replace=False))
        for L in (1, 2, 8):
            parts = [scl_decode_batch(part, spec, L=L) for part in np.split(llrs, cuts)]
            assert np.array_equal(scl_decode_batch(llrs, spec, L=L), np.concatenate(parts))


def test_batch_decoder_takes_llrs_whose_products_overflow():
    # the float f takes its sign from a b, which overflows here to an infinity
    # of the right sign: no numpy warning, and the scalar tree's decisions
    rng = np.random.default_rng(6)
    llrs = rng.choice((-1.0, 1.0), size=(16, 8)) * rng.uniform(1.0, 2.0, size=(16, 8)) * 1e200
    out = scl_decode_batch(llrs, SPEC8, L=1)
    for row, decoded in zip(llrs, out):
        assert tuple(decoded.tolist()) == sc_decode(row.tolist(), SPEC8).decisions


def test_batch_decoder_peak_memory():
    # each LLR stage is freed once no later leaf reads it, so one call holds
    # well under two sets of its B * L * N float64 stage entries
    spec = construct_pw(512, 256)
    B, L = 128, 8
    sigma = design_sigma(2.0, spec.K / spec.N)
    llrs = 2.0 * (1.0 + sigma * np.random.default_rng(5).normal(size=(B, spec.N))) / sigma**2
    tracemalloc.start()
    try:
        scl_decode_batch(llrs, spec, L=L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * B * L * spec.N * 8


def test_batch_decoder_validates_arguments():
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros((3, 4)), SPEC8, L=2)
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros((3, 8)), SPEC8, L=0)


def test_batch_decoder_takes_an_empty_batch():
    # as encode_rows takes (0, N): no rows decoded, and L still checked
    for L in (1, 2):
        out = scl_decode_batch(np.zeros((0, 8)), SPEC8, L)
        assert out.shape == (0, 8) and out.dtype == np.uint8
    with pytest.raises(ValueError, match="list size L=0"):
        scl_decode_batch(np.zeros((0, 8)), SPEC8, 0)


def test_batch_decoder_rejects_a_nan_row():
    llrs = np.ones((3, 8))
    llrs[1] = np.nan
    with pytest.raises(ValueError, match="NaN or infinite"):
        scl_decode_batch(llrs, SPEC8, L=2)


def test_batch_decoder_rejects_infinite_llrs():
    llrs = np.ones((3, 8))
    llrs[0, 2] = np.inf
    llrs[2, 5] = -np.inf
    with pytest.raises(ValueError, match="NaN or infinite"):
        scl_decode_batch(llrs, SPEC8, L=2)


def test_batch_decoder_rejects_a_one_dimensional_input():
    with pytest.raises(ValueError, match=r"\(B, N\)"):
        scl_decode_batch(np.ones(8), SPEC8, L=2)


# ---- golden decisions of the batched engine ----
#
# Digests of the decision arrays the batched engine returned when they were
# recorded.  Any rewrite of the engine must reproduce them byte for byte,
# including the ties of the integer corpus and lanes that keep an infinite
# metric because L exceeds 2^K.

GOLDEN_AWGN = {
    2.0: "7aec3f1fb55fcfa0228de0a06327e8d81ad7e4ed5d0bbc517158367909eba0a4",
    3.0: "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479",
}
GOLDEN_TIES = "e10d10e77275cddb75aa3fa6c3fe39a5398a4bfd709cf11c7c3f9240224d441d"


@pytest.mark.parametrize("ebn0_db", sorted(GOLDEN_AWGN))
def test_batch_decoder_golden_awgn_decisions(ebn0_db):
    spec = construct_pw(512, 256)
    sigma = design_sigma(ebn0_db, spec.K / spec.N)
    rng = np.random.default_rng(20191218)
    y = 1.0 + sigma * rng.normal(size=(64, spec.N))
    out = scl_decode_batch(2.0 * y / (sigma * sigma), spec, L=8)
    assert out.dtype == np.uint8 and out.shape == (64, 512)
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN_AWGN[ebn0_db]


def test_batch_decoder_golden_tie_decisions():
    rng = np.random.default_rng(1912)
    digest = hashlib.sha256()
    for N in (8, 16, 32, 64):
        for L in (1, 2, 4, 8):
            for K in (1, 2, int(rng.integers(3, N + 1))):
                A = rng.choice(np.arange(1, N + 1), size=K, replace=False)
                spec = CodeSpec(N, tuple(int(a) for a in A))
                llrs = rng.integers(-2, 4, size=(16, N)).astype(np.float64)
                out = scl_decode_batch(llrs, spec, L=L)
                assert out.dtype == np.uint8 and out.shape == (16, N)
                digest.update(out.tobytes())
    assert digest.hexdigest() == GOLDEN_TIES


# ---- golden outcomes of the exact list decoder ----
#
# One digest over the repr of every scl_decode outcome on a seeded corpus:
# decisions, pm and its Python type, rds and the prune diagnostics.  The
# corpus mixes Python ints (some past the int64 range of the path metric),
# dyadic floats, Gaussian floats and mixed int/float vectors whose leaves
# hit exactly zero or tie an int metric with an equal float one, with and
# without forced prefixes, N = 2..256, L = 1..64 and lists wider than 2^K.

GOLDEN_SCL = "76f1070cae5f34d407c7f51048f885d922dd7eb22a4051a7c5fb031ba9728de0"
MIXED_LLRS = (-2, -1, 0, 1, 2, -1.0, 0.0, 1.0, 2.0, 0.5)


def golden_scl_corpus():
    rng = random.Random(20191218)
    kinds = ("int", "dyadic", "gauss", "mixed", "big", "ones")
    for N in (2, 4, 8, 16, 32, 64, 128, 256):
        for L in (1, 2, 3, 4, 8, 64) if N <= 64 else (4, 64):
            for kind in kinds * 2:
                K = rng.randint(1, min(N, rng.choice((3, N))))
                spec = CodeSpec(N, tuple(rng.sample(range(1, N + 1), K)))
                if kind == "int":
                    llrs = [rng.randint(-6, 6) for _ in range(N)]
                elif kind == "dyadic":
                    llrs = [rng.randint(-12, 12) / 4 for _ in range(N)]
                elif kind == "gauss":
                    llrs = [rng.gauss(0.5, 2.0) for _ in range(N)]
                elif kind == "mixed":
                    llrs = [rng.choice(MIXED_LLRS) for _ in range(N)]
                elif kind == "big":
                    llrs = [rng.randint(-(2**62), 2**62) for _ in range(N)]
                else:
                    llrs = [1] * N
                prefix = []
                if rng.random() < 0.5:
                    for pos in range(1, rng.randint(0, N) + 1):
                        prefix.append(rng.randint(0, 1) if spec.is_info(pos) else 0)
                yield spec, llrs, L, prefix
    # small magnitudes typed int or float at random: int and float metrics
    # of equal value meet in the ranking and among the discarded candidates
    for _ in range(400):
        N, L = rng.choice((8, 16, 32, 64)), rng.choice((1, 2, 3, 4, 8))
        spec = CodeSpec(N, tuple(rng.sample(range(1, N + 1), rng.randint(1, N))))
        yield spec, [rng.choice((int, float))(rng.randint(-2, 2)) for _ in range(N)], L, []


def test_scl_decode_golden_corpus():
    digest = hashlib.sha256()
    for spec, llrs, L, prefix in golden_scl_corpus():
        out = scl_decode(llrs, spec, L, forced_prefix=prefix, with_diagnostics=True)
        digest.update(repr(out).encode())
        digest.update(repr([type(p.pm).__name__ for p in out[0]]).encode())
    assert digest.hexdigest() == GOLDEN_SCL
