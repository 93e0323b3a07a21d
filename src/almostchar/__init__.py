"""Exact combinatorics of symbols, families and Hecke algebra traces
for classical types B and D, with verification reports for the
nonvanishing and factorization properties the test suite pins down.
"""

from .config import Config, ResourceGuardError
from .halflaurent import ONE, U, ZERO, HalfLaurent, half_power, hl_exact_div, u_power
from .shapes import (
    BiPartition,
    SkewBiShape,
    bipartition,
    bipartitions_of,
    conjugate,
    delta,
    delta_bar,
    partition,
    partitions_of,
)
from .symbols import (
    Family,
    FamilyDecomposition,
    Symbol,
    bipartition_from_symbol,
    enumerate_P_ab,
    enumerate_symbols,
    family_decompose,
    family_members,
    is_special,
    m2_unipotent,
    pairing,
    rank_defect,
    shift_canonicalize,
    special_cuspidal,
    symbol_from_bipartition,
)
from .hecke import (
    BrSequence,
    MNContext,
    TraceCache,
    br_from_cycles,
    centralizer_order_B,
    class_reps,
    cycles_from_br,
    l_prime,
    mn_trace,
    st_bitableaux,
)
from .almost import (
    VerificationReport,
    cuspidal_pair_sign,
    delta_const,
    d_swap_diagnostic,
    f_ab,
    f_cuspidal_via_rectangles,
    f_lambda,
    involution_check,
    m2_check,
    orthogonality_check,
    prop_cycles,
    recursion_check,
    verify_nonvanishing,
)

__version__ = "0.1.0"
