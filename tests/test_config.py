import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from remixed.config import (
    Configuration,
    NoWeaklyShift,
    all_configurations,
    classify,
    core,
    heights,
    left_to_right_order,
    max_weakly_shift,
    parse_config,
    reverse,
    shifted_config,
)
from config_reference import classify_reference, weak_bound_reference


def test_parse_examples():
    assert parse_config("0,3,0,2,0").c == (0, 3, 0, 2, 0)
    assert parse_config("1").n == 1
    with pytest.raises(ValueError, match=re.escape("2 balls on 3 sites")):
        parse_config("2,0,0")
    with pytest.raises(ValueError, match=re.escape("negative entry in (3, -1)")):
        parse_config("3,-1")
    with pytest.raises(ValueError, match=re.escape("empty configuration text")):
        parse_config("")
    with pytest.raises(ValueError):
        parse_config("1,a")


def test_rejects_what_has_no_site_or_a_negative_entry():
    with pytest.raises(ValueError, match=re.escape("a configuration needs at least one site")):
        Configuration(())
    with pytest.raises(ValueError, match=re.escape("empty core")):
        shifted_config((), 0)
    with pytest.raises(ValueError, match=re.escape("negative entry in (1, -1, 2)")):
        shifted_config((1, -1, 2), 0)


def test_rejects_non_int_entries():
    for ct in [(1.0,), (2.0, 0), (Fraction(1),), (True, True)]:
        with pytest.raises(TypeError):
            Configuration(ct)


def test_heights_examples():
    assert heights(Configuration((3, 0, 0, 2, 0))) == (2, 1, 0, 1, 0)
    assert heights(Configuration((1, 1, 1))) == (0, 0, 0)
    assert heights(Configuration((0, 3, 0, 2, 0))) == (-1, 1, 0, 1, 0)


def test_left_to_right_order_examples():
    assert left_to_right_order(Configuration((0, 3, 0, 2, 0))) == (2, 2, 2, 4, 4)
    assert left_to_right_order(Configuration((1, 1, 1))) == (1, 2, 3)
    assert left_to_right_order(Configuration((3, 0, 0))) == (1, 1, 1)


def test_core_example():
    dec = core(Configuration((0, 0, 4, 0, 1, 2, 0)))
    assert (dec.left_zeros, dec.gamma) == (2, (4, 0, 1, 2))


def test_reverse():
    assert reverse(Configuration((0, 3, 0, 2, 0))).c == (0, 2, 0, 3, 0)


@given(st.integers(1, 7), st.data())
def test_reverse_involution(n, data):
    cfgs = list(all_configurations(n))
    c = data.draw(st.sampled_from(cfgs))
    assert reverse(reverse(c)) == c


def test_classify_examples():
    assert classify(Configuration((3, 0, 0, 2, 0))).is_lukasiewicz
    assert classify(Configuration((1, 0, 3, 0, 1))).almost_defect == 2
    flags = classify(Configuration((0, 3, 0, 2, 0)))
    assert flags.is_weakly_lukasiewicz and not flags.is_connected and not flags.is_lukasiewicz
    assert classify(Configuration((0, 1, 2, 2, 0))).is_connected
    one = classify(Configuration((1,)))
    assert one.is_lukasiewicz and one.is_connected and one.is_weakly_lukasiewicz
    assert not one.is_one_hole and one.almost_defect is None


def test_classify_overlapping_families():
    flags = classify(Configuration((0, 3, 0, 2, 0)))
    assert flags.almost_defect == 1
    assert flags.is_one_hole


@given(st.integers(1, 8), st.data())
def test_family_containment(n, data):
    c = data.draw(st.sampled_from(list(all_configurations(n))))
    flags = classify(c)
    if flags.is_lukasiewicz:
        assert flags.is_weakly_lukasiewicz
    if flags.is_connected:
        assert flags.is_weakly_lukasiewicz


def test_characterizations_against_heights():
    # every configuration with n <= 8, 8788 in all
    for n in range(1, 9):
        for c in all_configurations(n):
            u = left_to_right_order(c)
            flags = classify(c)
            assert flags.is_lukasiewicz == all(u[j - 1] <= j for j in range(1, n + 1))
            assert flags.is_connected == all(u[j - 1] <= u[j - 2] + 1 for j in range(2, n + 1))
            assert flags.is_weakly_lukasiewicz == all(
                u[j - 1] <= max(u[j - 2] + 1, j) for j in range(2, n + 1)
            )


def brute_weakly_shifts(gamma, n):
    """Every shift of gamma whose start sites u meet u_j <= max(u_{j-1} + 1, j)."""
    good = []
    for i in range(n - len(gamma) + 1):
        u = left_to_right_order(shifted_config(gamma, i))
        if all(u[j - 1] <= max(u[j - 2] + 1, j) for j in range(2, n + 1)):
            good.append(i)
    return good


def test_max_weakly_shift_examples():
    assert max_weakly_shift((3, 0, 2)) == 1
    for n in range(1, 8):
        assert max_weakly_shift((n,)) == n - 1
    assert max_weakly_shift((1, 2, 2)) == 2
    with pytest.raises(NoWeaklyShift):
        max_weakly_shift((1, 0, 2))
    # every core with n <= 8 against the search over all its shifts
    for n in range(1, 9):
        for gamma in {core(c).gamma for c in all_configurations(n)}:
            good = brute_weakly_shifts(gamma, n)
            if not good:
                with pytest.raises(NoWeaklyShift):
                    max_weakly_shift(gamma)
                continue
            # the good shifts form a prefix
            assert good == list(range(len(good)))
            assert max_weakly_shift(gamma) == good[-1]


def test_single_walk_matches_the_multi_pass_reference():
    # every configuration with n <= 9, 33098 in all, and every core among them
    seen = 0
    for n in range(1, 10):
        cores = set()
        for c in all_configurations(n):
            assert classify(c) == classify_reference(c)
            cores.add(core(c).gamma)
            seen += 1
        for gamma in cores:
            want = weak_bound_reference(gamma, n)
            if want < 0:
                with pytest.raises(NoWeaklyShift):
                    max_weakly_shift(gamma)
            else:
                assert max_weakly_shift(gamma) == want
    assert seen == 33098


@given(st.integers(2, 8), st.data())
def test_weakly_prefix_and_stability(n, data):
    c = data.draw(st.sampled_from([x for x in all_configurations(n) if classify(x).is_weakly_lukasiewicz]))
    dec = core(c)
    k = max_weakly_shift(dec.gamma)
    assert dec.left_zeros <= k
    # every smaller shift keeps the flag
    for i in range(k + 1):
        assert classify(shifted_config(dec.gamma, i)).is_weakly_lukasiewicz
    # dropping the rightmost ball keeps the flag on the truncated order
    u = left_to_right_order(c)[:-1]
    assert all(u[j - 1] <= max(u[j - 2] + 1, j) for j in range(2, len(u) + 1))


@given(st.integers(2, 8), st.data())
def test_one_hole_or_reverse_is_weakly(n, data):
    pool = [c for c in all_configurations(n) if classify(c).is_one_hole]
    if not pool:
        return
    c = data.draw(st.sampled_from(pool))
    assert classify(c).is_weakly_lukasiewicz or classify(reverse(c)).is_weakly_lukasiewicz


def test_heights_end_at_zero_exhaustive():
    for n in range(1, 7):
        for c in all_configurations(n):
            assert heights(c)[-1] == 0


def test_enumeration_is_lexicographic_and_complete():
    from math import comb

    for n in range(1, 7):
        cfgs = [c.c for c in all_configurations(n)]
        assert cfgs == sorted(cfgs)
        assert len(cfgs) == comb(2 * n - 1, n)
        assert len(set(cfgs)) == len(cfgs)
    assert list(all_configurations(0)) == []
