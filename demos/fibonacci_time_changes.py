#!/usr/bin/env python3
# Sampling the Fibonacci numbers along n^2 stays non-realizable, but one
# constant repairs it: 5 F_{n^2} passes every horizon test.  Along n^3 no
# constant can ever work: the denominators keep finding new primes.

from realizable import (
    LUCA_WARD_PARAMETER_SETS,
    Monomial,
    Seq,
    check_realizable,
    denominator_prime_scan,
    fibonacci_like,
    fibonacci_term,
    luca_ward_check,
    minimal_multiplier,
    sample,
    scale,
)

fib = fibonacci_like(1, 900)
squares = sample(fib, Monomial(2), 30)
print("largest sampled term F_900 has", len(str(squares[30])), "digits")

m = minimal_multiplier(squares, 30)
print("minimal multiplier for F_{n^2} up to N=30:", m.multiplier)
print("unscaled verdict:  ", check_realizable(squares, 30).verdict)
print("scaled by 5:       ", check_realizable(scale(squares, 5), 30).verdict)

# fourth powers, same story; indices reach 20736 so terms are computed
# one by one by fibonacci_term instead of materializing a prefix
quartics = Seq(tuple(fibonacci_term(n**4) for n in range(1, 13)))
print("F_{n^4} multiplier up to N=12:", minimal_multiplier(quartics, 12).multiplier)

# cubes: the set of primes dividing denominators grows with the horizon,
# so (C F_{n^3}) fails for every fixed C
cubes = Seq(tuple(fibonacci_term(n**3) for n in range(1, 61)))
for N in (20, 40, 60):
    print(f"denominator primes of F(n^3)/orbit counts up to N={N}:",
          sorted(denominator_prime_scan(cubes, N)))

# the repair constant 5 is no accident: it is the discriminant of the
# Fibonacci recurrence, and the exponent 2 matches its Galois group
params = LUCA_WARD_PARAMETER_SETS[0]
print()
print(f"{params.name}: multiplier {params.congruence_multiplier}, "
      f"admissible exponents {params.admissible_exponents(8)}")
print("M=5, s=2, N=20:", luca_ward_check(params.recurrence, 5, 2, 20).verdict)
print("M=1, s=2, N=20:", luca_ward_check(params.recurrence, 1, 2, 20).verdict)
