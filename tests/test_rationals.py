from fractions import Fraction

import pytest

from phicong import qexp
from phicong.errors import DomainError, UnsupportedPrimeError
from phicong.rationals import (INF, factorize, is_prime, padic_val,
                               require_int, require_prime, split_power)


def test_split_power():
    assert split_power(96, 2) == (5, 3)
    assert split_power(-45, 3) == (2, -5)
    assert split_power(7, 5) == (0, 7)
    # long valuations, found by squaring p, as qexp's denominators have
    for v in (1, 2, 3, 1000, 1023, 1024):
        assert split_power(-(13 ** v) * 12, 13) == (v, -12)
        assert split_power(2 ** v * 3, 2) == (v, 3)
    # m = 0 or p < 2 would divide forever
    for m, p in ((0, 3), (12, 1), (12, 0), (12, -2)):
        with pytest.raises(DomainError):
            split_power(m, p)


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
    # zero is v_p = INF before split_power, which checks the others, runs
    with pytest.raises(DomainError, match="0.0"):
        padic_val(0.0, 2)
    with pytest.raises(DomainError, match="'1/2'"):
        padic_val("1/2", 2)


def test_require_int():
    require_int(5, "k", 5)
    require_int(-5, "n")
    with pytest.raises(DomainError, match=r"^k must be an int >= 1, got 0$"):
        require_int(0, "k", 1)
    with pytest.raises(DomainError, match=r"^n must be an int, got 2\.0$"):
        require_int(2.0, "n")
    with pytest.raises(DomainError, match=r"^N must be an int >= 2, got Fraction\(3, 1\)$"):
        require_int(Fraction(3), "N", 2)


def _xtilde_int_then_float():
    """The float call after the int one: an untyped cache would hand it
    the int's entry, since 3.0 == 3 and (3.0, 17) == (3, 17)."""
    qexp.xtilde_terms(3, 17)
    qexp.xtilde_terms(3.0, 17)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: qexp.xtilde(3.0, 17), id="xtilde"),
    pytest.param(lambda: qexp.xtilde_terms(3.0, 17), id="xtilde_terms"),
    pytest.param(lambda: qexp.denominator_report(3.0, 173), id="denominator_report"),
    pytest.param(lambda: qexp.basis_series(20.0), id="basis_series"),
    pytest.param(lambda: qexp.ytilde(2, 20.0), id="ytilde"),
    pytest.param(lambda: is_prime(17.0), id="is_prime"),
    pytest.param(lambda: factorize(12.0), id="factorize"),
    pytest.param(lambda: split_power(12.0, 2), id="split_power"),
    pytest.param(_xtilde_int_then_float, id="xtilde_terms_int_then_float"),
])
def test_float_refused_at_the_boundary(call):
    with pytest.raises(DomainError, match="must be an int"):
        call()
