from fractions import Fraction

import pytest

from phicong.errors import DomainError, UnsupportedPrimeError
from phicong.rationals import (INF, factorize, is_prime,
                               padic_val, require_prime, split_power)


def test_split_power():
    assert split_power(96, 2) == (5, 3)
    assert split_power(-45, 3) == (2, -5)
    assert split_power(7, 5) == (0, 7)
    # long valuations, found by squaring p, as qexp's denominators have
    for v in (1, 2, 3, 1000, 1023, 1024):
        assert split_power(-(13 ** v) * 12, 13) == (v, -12)
        assert split_power(2 ** v * 3, 2) == (v, 3)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    for n in range(1, 500):
        prod = 1
        for q, e in factorize(n).items():
            assert q > 1 and all(q % d for d in range(2, q))
            prod *= q ** e
        assert prod == n


def test_is_prime():
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13,
                                                         17, 19, 23, 29]


def test_require_prime():
    require_prime(11, 7)
    for bad in (7, 9, 15, 121, 0, -11):
        with pytest.raises(UnsupportedPrimeError):
            require_prime(bad, 7)


def test_padic_val():
    assert padic_val(40, 2) == 3
    assert padic_val(-9 * 7, 3) == 2
    assert padic_val(40, 3) == 0
    assert padic_val(0, 5) == INF
    with pytest.raises(DomainError, match="Fraction"):
        padic_val(Fraction(40, 9), 2)


def test_padic_val_refuses_non_int():
    with pytest.raises(DomainError, match="0.5"):
        padic_val(0.5, 2)
    with pytest.raises(DomainError, match="'1/2'"):
        padic_val("1/2", 2)
