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

from .construct import (
    CycleType,
    InconsistentPrefixError,
    explicit_permutation,
    fix_count_sequence,
    fixed_points,
    realize_cycle_type,
    verify_realization,
)
from .local import LocalReport, check_everywhere_local, check_local, p_part, support_primes
from .numtheory import divisors, is_prime, mobius, padic_valuation, primes_upto
from .realizability import (
    DivisibilityResult,
    DoldRecord,
    RealizabilityReport,
    check_realizable,
    divisibility_check,
    dold_transform,
    orbit_counts,
)
from .seqio import (
    cycle_type_doc,
    dumps_doc,
    format_bfile,
    local_doc,
    multiplier_doc,
    orbit_counts_doc,
    parse_bfile,
    realizability_doc,
)
from .sequences import (
    FIBONACCI,
    InsufficientPrefixError,
    LinearRecurrence,
    RatSeq,
    Seq,
    bernoulli_numbers,
    euler_abs_sequence,
    fibonacci_like,
    fibonacci_term,
    irregular_primes,
    linear_recurrence_term,
    linear_recurrence_terms,
    stirling_first,
    stirling_row_sequence,
    stirling_second,
    tau_beta_sequences,
)
from .transforms import (
    LUCA_WARD_PARAMETER_SETS,
    ExplicitTable,
    IntPolynomial,
    LucaWardParameters,
    Monomial,
    MultiplierReport,
    denominator_prime_scan,
    luca_ward_check,
    minimal_multiplier,
    required_source_length,
    sample,
    scale,
    term_power,
)

__version__ = "0.1.0"
