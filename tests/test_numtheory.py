import pytest
from hypothesis import given
from hypothesis import strategies as st

from realizable.numtheory import (
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    divisors,
    factorize,
    is_prime,
    mobius,
    padic_valuation,
    primes_upto,
)

from helpers import naive_divisors, naive_mobius


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def test_primes_upto_matches_trial_division():
    expected = [n for n in range(2, 501) if trial_division_is_prime(n)]
    assert primes_upto(500) == expected


def test_primes_upto_edge_bounds():
    assert primes_upto(0) == []
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(3) == [2, 3]


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert is_prime(10**18 + 9)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_at_and_beyond_the_deterministic_bound():
    # the least strong pseudoprime to the first 12 prime bases (Sorenson &
    # Webster, Math. Comp. 2017), which Miller-Rabin on those bases passes
    assert not is_prime(1287836182261 * 2575672364521)
    assert is_prime(2**127 - 1)
    assert is_prime(2**521 - 1)
    assert not is_prime(2**128 + 1)  # 59649589127497217 * 5704689200685129054721


def test_baillie_psw_matches_trial_division_on_a_small_range():
    # each half alone passes composites here, the strong base-2 pseudoprimes
    # (A001262) and the strong Lucas pseudoprimes with Selfridge's parameters
    # (A217255); both together pass none
    base2, lucas = [], []
    for n in range(3, 12000, 2):
        prime = trial_division_is_prime(n)
        strong = _strong_probable_prime(n, (2,))
        strong_lucas = _strong_lucas_probable_prime(n)
        assert (strong and strong_lucas) == prime, n
        if strong and not prime:
            base2.append(n)
        if strong_lucas and not prime:
            lucas.append(n)
    assert base2 == [2047, 3277, 4033, 4681, 8321]
    assert lucas == [5459, 5777, 10877]


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_beyond_trial_division():
    # both primes exceed the trial-division bound, forcing the rho path
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}
    assert factorize(617 * (2**61 - 1)) == {617: 1, 2**61 - 1: 1}
    # a strong pseudoprime to the first 12 prime bases is split, not kept
    assert factorize(3317044064679887385961981) == {
        1287836182261: 1,
        2575672364521: 1,
    }


@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_product_round_trip(n: int):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert list(fac) == sorted(fac)


def test_mobius_matches_recursive_definition():
    assert [mobius(n) for n in range(1, 301)] == [
        naive_mobius(n) for n in range(1, 301)
    ]


def test_mobius_divisor_sums_collapse():
    # sum of mu over the divisors of n vanishes except at n = 1
    for n in range(1, 401):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        mobius(-6)


def test_divisors_matches_naive():
    for n in range(1, 201):
        assert divisors(n) == naive_divisors(n)


def test_divisors_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisors(0)


def test_padic_valuation_values():
    assert padic_valuation(40, 2) == 3
    assert padic_valuation(40, 5) == 1
    assert padic_valuation(40, 3) == 0
    assert padic_valuation(-9, 3) == 2
    assert padic_valuation(1, 7) == 0


def test_padic_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        padic_valuation(0, 2)
    with pytest.raises(ValueError):
        padic_valuation(12, 6)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_padic_valuation_splits_off_exact_power(x: int, p: int):
    v = padic_valuation(x, p)
    assert x % p**v == 0
    assert (x // p**v) % p != 0
