"""Exact horizon tests and constructions for realizability of integer
sequences as periodic-point counts.

A sequence (a_n) of non-negative integers is realizable when a_n counts the
points of period n under some map.  The necessary-and-sufficient arithmetic
(divisibility and sign of the Dold transform) is decidable term by term, so
finite prefixes can be checked exactly, localized prime by prime, repaired
with minimal multipliers, transported through time changes and powers, and
realized by concrete permutations.  Everything is exact: ints (or integral
Decimals, see ``sequences.EXACT_CONTEXT``) and Fractions, no floats.
"""

from importlib import import_module as _import_module

# the one list of public names, under the submodule that defines each.  It
# lives here because __getattr__ must know a name's submodule without
# importing it; the package serves every name, and each submodule's __all__
# is its entry (read through _public).  A name loads its submodule on first
# use and is not stored here, so a function replaced in its submodule is what
# the package hands out too.
_NAMES_IN = {
    "construct": "DEFAULT_POINT_CAP CycleType InconsistentPrefixError"
    " explicit_permutation fix_count_sequence fixed_points realize_cycle_type"
    " verify_realization",
    "local": "LocalReport check_everywhere_local check_local p_part support_primes",
    "numtheory": "divisors factorize is_prime mobius padic_valuation primes_upto",
    "realizability": "DivisibilityResult DoldRecord RealizabilityReport"
    " VERDICT_CONSISTENT VERDICT_FAILS_BOTH VERDICT_FAILS_D VERDICT_FAILS_S"
    " check_realizable divisibility_check dold_transform orbit_counts",
    "seqio": "cycle_type_doc dumps_doc format_bfile local_doc multiplier_doc"
    " orbit_counts_doc parse_bfile realizability_doc",
    "sequences": "EXACT_CONTEXT FIBONACCI InsufficientPrefixError LinearRecurrence"
    " RatSeq Seq bernoulli_numbers euler_abs_sequence fibonacci_like"
    " fibonacci_term irregular_primes linear_recurrence_term"
    " linear_recurrence_terms stirling_first stirling_row_sequence"
    " stirling_second tau_beta_sequences",
    "transforms": "LUCA_WARD_PARAMETER_SETS ExplicitTable IntPolynomial"
    " LucaWardParameters Monomial MultiplierReport TimeChange"
    " denominator_prime_scan luca_ward_check minimal_multiplier"
    " required_source_length sample scale term_power time_change_value",
}
_SUBMODULE_OF = {name: module for module, names in _NAMES_IN.items() for name in names.split()}
_SUBMODULES = frozenset(_NAMES_IN)

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def _public(module: str) -> list[str]:
    """The ``__all__`` of the submodule whose ``__name__`` is ``module``."""
    return _NAMES_IN[module.rpartition(".")[2]].split()


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
