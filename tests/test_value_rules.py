"""One value-rule property over the public functions, driven by one table.

VALUE_RULES has a row for every public function: a strategy that draws a
valid call, as (function, keyword arguments, the parameters to vary), or
None for a function with no integer or float parameter.  Each varied
parameter maps to the text by which an error names it; an element of a
sequence argument is named by (argument, index).

An integer parameter is tried as a numpy integer, which must give the
Python-int call's result in value and in Python type, and as an
integer-valued float, a fractional float and a bool, each of which must be
one ValueError naming the parameter.  A float parameter is tried as a
Python int, a numpy int and a bool of the same value, each of which must
give the float call's result, and as NaN and +-inf, each of which must give
a result or one ValueError naming it.  No other exception type may escape.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmhw import (
    CodeSpec,
    MhwResult,
    construct_ga,
    construct_pw,
    decompose,
    design_sigma,
    enumerate_subset_scl,
    enumerate_zero_split,
    fer_estimate,
    gaussian_approx_order,
    generator_row,
    min_distance,
    polarization_weight_order,
    q_function,
    sc_retrace,
    scl_decode,
    scl_decode_batch,
    scl_global_search,
    simulate_fer,
    subtree_input_llr,
    sweep_fer,
    wilson_interval,
    zero_capacity_set,
    zero_split_subset,
    zero_split_triggers,
)

LENGTHS = st.sampled_from([2, 4, 8, 16, 32, 64])
SMALL = st.sampled_from([4, 8, 16])  # the decoders' and the simulator's lengths
LIST_SIZES = st.integers(1, 16)
THREADS = st.integers(1, 4)
EBN0 = st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, 3.25])
N_IS, K_IS, L_IS = {"N": "N="}, {"K": "K="}, {"L": "list size L="}


def code(draw, lengths=LENGTHS):
    N = draw(lengths)
    return construct_pw(N, draw(st.integers(1, N)))


def length_and_row(draw):
    N = draw(LENGTHS)
    return dict(N=N, i=draw(st.integers(1, N)))


def length_and_K(draw):
    N = draw(LENGTHS)
    return dict(N=N, K=draw(st.integers(1, N)))


def tail(draw):
    n = draw(st.integers(1, 6))
    return dict(i=draw(st.integers(1, (1 << n) - 1)), n=n)  # 2**n has no tail


def simulation(draw):
    return dict(
        spec=code(draw, SMALL),
        ebn0_db=draw(EBN0),
        L=draw(st.integers(1, 4)),
        trials=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 1 << 20)),
        threads=draw(THREADS),
        error_limit=draw(st.integers(1, 16)),
    )


SIMULATION_IS = {p: f"{p}=" for p in ("trials", "seed", "threads", "error_limit")} | L_IS


def row(func, params):
    """A table row: func called with the kwargs that draw_kwargs(draw) gives,
    varying the parameters of params."""

    def rule(draw_kwargs):
        return st.composite(lambda draw: (func, draw_kwargs(draw), params))()

    return rule


@row(generator_row, {"i": "i="} | N_IS)
def generator_rows(draw):
    return length_and_row(draw)


@row(zero_capacity_set, {"i": "i="} | N_IS)
def zero_capacity_sets(draw):
    return length_and_row(draw)


@row(decompose, {"i": "i=", "n": "n="})
def decompositions(draw):
    return tail(draw)


@row(subtree_input_llr, {"i": "i=", "k": "k=", "n": "n="})
def subtree_llrs(draw):
    args = tail(draw)
    N = 1 << args["n"]
    args["k"] = draw(st.integers(1, len(decompose(**args))))
    args["prefix_decisions"] = draw(st.lists(st.integers(0, 1), min_size=N, max_size=N))
    return args


@row(q_function, {"x": "x"})
def normal_tails(draw):
    return dict(x=draw(st.sampled_from([0.0, 1.0, 2.0, -1.5])))


@row(wilson_interval, {"errors": "errors=", "trials": "trials="})
def wilson_intervals(draw):
    trials = draw(st.integers(1, 64))
    return dict(errors=draw(st.integers(0, trials)), trials=trials)


@row(fer_estimate, {"ebn0_db": "Eb/N0"})
def fer_estimates(draw):
    return dict(spec=code(draw), ebn0_db=draw(EBN0))


@row(simulate_fer, {"ebn0_db": "Eb/N0"} | SIMULATION_IS)
def simulations(draw):
    return simulation(draw)


@row(sweep_fer, {("ebn0_grid", 0): "Eb/N0"} | SIMULATION_IS)
def sweeps(draw):
    args = simulation(draw)
    args["ebn0_grid"] = [args.pop("ebn0_db")]
    return args


@row(polarization_weight_order, N_IS)
def pw_orders(draw):
    return dict(N=draw(LENGTHS))


@row(gaussian_approx_order, {"sigma": "sigma="} | N_IS)
def ga_orders(draw):
    return dict(N=draw(LENGTHS), sigma=draw(st.sampled_from([0.5, 1.0, 2.0])))


@row(construct_pw, N_IS | K_IS)
def pw_codes(draw):
    return length_and_K(draw)


@row(construct_ga, {"design_ebn0_db": "Eb/N0"} | N_IS | K_IS)
def ga_codes(draw):
    return length_and_K(draw) | dict(design_ebn0_db=draw(EBN0))


@row(design_sigma, {"ebn0_db": "Eb/N0", "rate": "rate"})
def design_points(draw):
    return dict(ebn0_db=draw(EBN0), rate=draw(st.sampled_from([0.25, 0.5, 1.0])))


@row(scl_decode, L_IS)
def list_decodes(draw):
    spec = code(draw, SMALL)
    return dict(input_llrs=[1] * spec.N, spec=spec, L=draw(LIST_SIZES))


@row(scl_decode_batch, L_IS)
def batch_decodes(draw):
    spec = code(draw, SMALL)
    llrs = np.random.default_rng(draw(st.integers(0, 99))).normal(size=(3, spec.N))
    return dict(llr_matrix=llrs, spec=spec, L=draw(LIST_SIZES))


@row(enumerate_subset_scl, {"threads": "threads="})
def subset_searches(draw):
    return dict(spec=code(draw), threads=draw(THREADS))


@row(enumerate_zero_split, {"threads": "threads="})
def zero_splits(draw):
    return dict(spec=code(draw), threads=draw(THREADS))


@row(zero_split_subset, {"i": "i="})
def walks(draw):
    spec = code(draw)
    return dict(spec=spec, i=draw(st.sampled_from(min_distance(spec)[1])))


@row(zero_split_triggers, {("triggers", 0): "trigger="})
def trigger_sets(draw):
    spec = code(draw)
    rows = st.sampled_from(min_distance(spec)[1])
    return dict(spec=spec, triggers=draw(st.lists(rows, min_size=1, max_size=3, unique=True)))


@row(scl_global_search, L_IS)
def global_searches(draw):
    return dict(spec=code(draw, SMALL), L=draw(LIST_SIZES))


@row(sc_retrace, {("rds", 0): "rds="})
def retraces(draw):
    spec = code(draw, SMALL)
    rds = draw(st.lists(st.integers(1, spec.N), min_size=1, max_size=3, unique=True))
    return dict(input_llrs=[1] * spec.N, spec=spec, rds=rds)


@row(CodeSpec, {("A", 0): "information set positions"} | N_IS)
def explicit_codes(draw):
    N = draw(LENGTHS)
    return dict(N=N, A=draw(st.lists(st.integers(1, N), min_size=1, max_size=N, unique=True)))


@row(MhwResult, {"d_m": "d_m=", "max_list_used": "max_list_used="} | N_IS)
def results(draw):
    found = enumerate_zero_split(spec := code(draw))
    return dict(d_m=found.d_m, N=spec.N, words=found.words, method="ZERO_SPLIT",
                max_list_used=draw(st.integers(0, 16)))


# every public function -> the strategy of its valid calls, or None where it
# takes no integer or float parameter; then two constructors whose integer
# fields follow the same rule
VALUE_RULES = {
    "positions_of": None,
    "generator_row": generator_rows,
    "encode": None,
    "encode_rows": None,
    "min_distance": None,
    "decompose": decompositions,
    "zero_capacity_set": zero_capacity_sets,
    "bound_count": None,
    "subtree_input_llr": subtree_llrs,
    "q_function": normal_tails,
    "wilson_interval": wilson_intervals,
    "fer_estimate": fer_estimates,
    "simulate_fer": simulations,
    "sweep_fer": sweeps,
    "render_fer_csv": None,
    "polarization_weight_order": pw_orders,
    "gaussian_approx_order": ga_orders,
    "construct_pw": pw_codes,
    "construct_ga": ga_codes,
    "design_sigma": design_points,
    "load_spec": None,
    "save_spec": None,
    "scl_decode": list_decodes,
    "scl_decode_batch": batch_decodes,
    "exhaustive_mhw": None,
    "enumerate_subset_scl": subset_searches,
    "zero_split_subset": walks,
    "zero_split_triggers": trigger_sets,
    "enumerate_zero_split": zero_splits,
    "scl_global_search": global_searches,
    "write_enumeration": None,
    "read_enumeration": None,
    "sc_decode": None,
    "sc_retrace": retraces,
    "sc_replay": None,
    "CodeSpec": explicit_codes,
    "MhwResult": results,
}


def same(a, b):
    """a equals b, and so does the Python type of every part of them."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, (set, frozenset)):
        return same(sorted(a), sorted(b))
    if isinstance(a, dict):
        return same(list(a.items()), list(b.items()))
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, CodeSpec):
        return same((a.N, a.A, a.construction), (b.N, b.A, b.construction))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def with_value(kwargs, param, value):
    """kwargs with param, a name or an (argument, index) pair, set to value."""
    if isinstance(param, str):
        return {**kwargs, param: value}
    name, index = param
    items = list(kwargs[name])
    items[index] = value
    return {**kwargs, name: items}


def numpy_int(draw, value):
    dtypes = [t for t in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
                          np.int64, np.uint64) if np.iinfo(t).min <= value <= np.iinfo(t).max]
    return draw(st.sampled_from(dtypes))(value)


def outcome(call, kwargs):
    try:
        return call(**kwargs), None
    except ValueError as exc:
        return None, exc


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(st.data())
def test_every_integer_and_float_parameter_follows_one_rule(data):
    draw = data.draw
    name = draw(st.sampled_from([n for n, rule in VALUE_RULES.items() if rule is not None]))
    call, kwargs, params = draw(VALUE_RULES[name])
    param = draw(st.sampled_from(list(params)))
    value = kwargs[param] if isinstance(param, str) else kwargs[param[0]][param[1]]
    want = call(**kwargs)  # a valid call
    if isinstance(value, int):
        assert type(value) is int
        got = call(**with_value(kwargs, param, numpy_int(draw, value)))
        assert same(got, want), (name, param)
        bad = draw(st.sampled_from([float(value), value + 0.5, bool(value % 2)]))
        got, error = outcome(call, with_value(kwargs, param, bad))
        assert error is not None and params[param] in str(error), (name, param, bad, got)
        return
    assert type(value) is float
    kinds = [v for v in (int(value), np.int64(value), bool(value)) if v == value]
    bad = draw(st.sampled_from(kinds + [math.nan, math.inf, -math.inf]))
    got, error = outcome(call, with_value(kwargs, param, bad))
    if bad == value:
        assert error is None and same(got, want), (name, param, bad, error)
    elif error is not None:
        assert params[param] in str(error), (name, param, bad, error)
