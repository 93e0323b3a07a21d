"""Exact combinatorics of symbols, families and Hecke algebra traces
for classical types B and D, with verification reports for the
nonvanishing and factorization properties the test suite pins down.

Each exported name loads its home module on first use (PEP 562), so
importing the package compiles none of the engine; a submodule is
imported as usual (`from almostchar import hecke`).
"""

import importlib

_HOMES = {
    "config": "Config ResourceGuardError",
    "halflaurent": "ONE U ZERO HalfLaurent half_power hl_exact_div u_power",
    "shapes": "BiPartition SkewBiShape bipartition bipartitions_of conjugate delta delta_bar "
              "partition partitions_of",
    "symbols": "Family FamilyDecomposition Symbol bipartition_from_symbol enumerate_P_ab "
               "enumerate_symbols family_decompose family_members is_special m2_unipotent "
               "pairing rank_defect shift_canonicalize special_cuspidal symbol_from_bipartition",
    "hecke": "BrSequence MNContext TraceCache VerificationReport br_from_cycles "
             "centralizer_order_B class_reps l_prime mn_trace orthogonality_check st_bitableaux",
    "almost": "cuspidal_pair_sign delta_const d_swap_diagnostic f_ab f_cuspidal_via_rectangles "
              "f_lambda involution_check m2_check prop_cycles recursion_check "
              "verify_nonvanishing",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # An unknown name raises AttributeError, which is also what lets
    # `from almostchar import <submodule>` fall back to importing it.
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value
