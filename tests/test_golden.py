"""The search battery's golden digests (tests/golden/search_battery.py): every
entry outside the slow slice, which CI checks in its own step."""

from golden import search_battery


def test_golden_file_covers_the_grid():
    assert list(search_battery.load()) == [" ".join(argv) for argv in search_battery.grid()]


def test_search_battery_matches_golden_digests():
    argvs = [argv for argv in search_battery.grid() if not search_battery.is_slow(argv)]
    assert len(argvs) == 870
    assert search_battery.mismatches(argvs, search_battery.load()) == []
