"""Polar-code minimum-weight analysis: counting, enumeration, FER estimates."""

__version__ = "0.1.0"

from polarmhw.bitops import (
    encode,
    generator_row,
    min_distance,
    positions_of,
)
from polarmhw.bound import (
    BoundReport,
    Part,
    TriggerTerm,
    bound_count,
    decompose,
    subtree_input_llr,
    zero_capacity_set,
)
from polarmhw.channel import (
    FerEstimate,
    FerPoint,
    fer_estimate,
    q_function,
    render_fer_csv,
    simulate_fer,
    sweep_fer,
    wilson_interval,
)
from polarmhw.construction import (
    CodeSpec,
    ReliabilityOrder,
    SpecFormatError,
    construct_ga,
    construct_pw,
    design_sigma,
    gaussian_approx_order,
    load_spec,
    polarization_weight_order,
    save_spec,
)
from polarmhw.listdec import (
    DecodePath,
    SearchDiagnostics,
    scl_decode,
    scl_decode_batch,
)
from polarmhw.mhw import (
    EXHAUSTIVE_CAP,
    EnumFormatError,
    ExhaustiveCapError,
    MhwResult,
    enumerate_subset_scl,
    enumerate_zero_split,
    exhaustive_mhw,
    read_enumeration,
    scl_global_search,
    write_enumeration,
    zero_split_subset,
    zero_split_triggers,
)
from polarmhw.sctree import ScOutcome, sc_decode, sc_replay, sc_retrace
