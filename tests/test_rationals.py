from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from linkchi.rationals import QQ, bernoulli, binomial, divisors, mobius, qq_str, totient


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(2) == -1
    assert mobius(30) == -1


def test_mobius_rejects_zero():
    with pytest.raises(ValueError):
        mobius(0)


def test_totient_values():
    assert totient(1) == 1
    assert totient(6) == 2
    assert totient(12) == 4
    with pytest.raises(ValueError):
        totient(0)


def test_mobius_divisor_sum_up_to_1e4():
    for n in range(1, 10_001):
        s = sum(mobius(l) for l in divisors(n))
        assert s == (1 if n == 1 else 0), n


def test_totient_divisor_sum_up_to_1e4():
    for n in range(1, 10_001):
        assert sum(totient(a) for a in divisors(n)) == n, n


def test_bernoulli_values():
    assert bernoulli(0) == 1
    # expanding x/(e^x - 1) to order 1 gives -1/2
    assert bernoulli(1) == QQ(-1, 2)
    assert bernoulli(2) == QQ(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == QQ(-691, 2730)


def test_bernoulli_odd_vanish():
    for n in range(1, 31):
        assert bernoulli(2 * n + 1) == 0, n


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(-1, 3) == -1
    assert binomial(-2, 3) == -4
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_qq_str():
    assert qq_str(QQ(3)) == "3"
    assert qq_str(QQ(-1, 2)) == "-1/2"


rationals = st.builds(QQ, st.integers(-50, 50), st.integers(1, 30))


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_caches_fill_correctly_under_threads():
    import threading

    import linkchi.rationals as rat

    # empty the caches, then race several fillers
    for fn in (rat.divisors, rat.mobius, rat.totient, rat.bernoulli):
        fn.cache_clear()
    errors = []

    def worker():
        try:
            assert bernoulli(40) == QQ(
                "-261082718496449122051/13530"
            )
            assert bernoulli(3) == 0
            assert sum(mobius(l) for l in divisors(360)) == 0
            assert totient(97) == 96
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert rat.bernoulli.cache_info().currsize == 41


def test_every_cache_is_bounded():
    import importlib
    import pkgutil

    import linkchi
    from linkchi.rationals import CACHE_SIZE

    bounded = set()
    for info in pkgutil.iter_modules(linkchi.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        mod = importlib.import_module(f"linkchi.{info.name}")
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    maxsize = value.cache_parameters()["maxsize"]
                    assert maxsize is not None, f"{mod.__name__}.{name} has no maxsize"
                    bounded.add(name)
        for name in vars(mod):
            assert not (name.startswith("_") and name.endswith("_cache")), (
                f"{mod.__name__}.{name}: hand-written memo table"
            )
    memos = {
        "divisors": "rationals", "mobius": "rationals", "totient": "rationals",
        "bernoulli": "rationals", "e_poly": "special", "f_poly": "special",
        "s_poly": "special", "_column_polys": "special", "_v_factors": "special",
        "_w_factors": "special",
        "_class_shapes": "graphs", "_row_fillings": "graphs", "_layout": "series",
    }
    assert set(memos) <= bounded
    for name, mod in memos.items():
        fn = getattr(importlib.import_module(f"linkchi.{mod}"), name)
        assert fn.cache_parameters()["maxsize"] == CACHE_SIZE
