import hashlib
from functools import lru_cache
from math import lcm

import pytest

from skewmorph import enumeration
from skewmorph.enumeration import (
    EnumerationReport,
    _search_general,
    brute_force_oracle,
    cached_enumeration,
    coprime_split,
    enumerate_skew_morphisms,
    smooth_only_predicate,
    theorem2_necessary,
    verify_theorem1,
)
from skewmorph.groups import (
    SizeGuardError,
    enumerate_automorphisms,
    make_group,
    parse_group_literal,
    perm_power,
    primary_split,
)
from skewmorph.morphisms import conjugate, is_smooth, kernel, relabel, try_validate


def test_oracle_z5_all_automorphisms():
    report = brute_force_oracle(make_group([5]))
    assert report.total == 4
    assert report.automorphisms == 4
    assert report.proper == 0


def test_oracle_z4():
    report = brute_force_oracle(make_group([4]))
    assert report.total == 2
    assert report.proper == 0


def test_oracle_z3xz3_structure():
    """48 automorphisms; the proper morphisms split 4 per kernel line.

    The fixed-basis closed-form family gives the 4 with kernel <a>; the
    other lines carry their conjugates (16 proper in total).
    """
    report = brute_force_oracle(make_group([3, 3]))
    assert report.total == 64
    assert report.automorphisms == 48
    assert report.proper == 16
    assert all(not is_smooth(sm) for sm in report.morphisms if sm.is_proper)
    from skewmorph.constructions import nse_construct, nse_params_range
    from skewmorph.morphisms import kernel

    nse = {nse_construct(3, d, nu, r).perm for (d, nu, r) in nse_params_range(3)}
    fixed_kernel = {
        sm.perm
        for sm in report.morphisms
        if sm.is_proper and kernel(sm).members == (0, 3, 6)
    }
    assert nse == fixed_kernel


def test_oracle_guard():
    with pytest.raises(SizeGuardError):
        brute_force_oracle(make_group([11]))


@pytest.mark.parametrize("factors", [(6,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3)])
def test_search_matches_oracle(factors):
    group = make_group(factors)
    oracle = brute_force_oracle(group)
    fast = enumerate_skew_morphisms(group)
    assert [sm.perm for sm in oracle.morphisms] == [sm.perm for sm in fast.morphisms]


def test_enumeration_guard_and_override():
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([65]))
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([2, 18]))  # non-cyclic guard is 32
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([9]), max_order=8)
    assert enumerate_skew_morphisms(make_group([9]), max_order=9).total == 10


def test_max_order_reaches_the_recursion(monkeypatch):
    """A raised guard also covers the quotients the search enumerates (Z10 for Z20)."""
    monkeypatch.setattr(enumeration, "CYCLIC_GUARD", 8)
    fresh = lru_cache(maxsize=None)(enumeration.cached_enumeration.__wrapped__)
    monkeypatch.setattr(enumeration, "cached_enumeration", fresh)
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([20]))
    report = enumerate_skew_morphisms(make_group([20]), max_order=20)
    assert (report.total, report.automorphisms, report.nonsmooth) == (24, 8, 0)


def test_report_counts_consistent():
    report = cached_enumeration((12,))
    assert report.total == report.automorphisms + report.proper
    assert report.total == report.smooth + report.nonsmooth
    assert len({sm.perm for sm in report.morphisms}) == report.total
    perms = [sm.perm for sm in report.morphisms]
    assert perms == sorted(perms)


def test_z16_all_smooth_z9_not():
    assert cached_enumeration((16,)).nonsmooth == 0
    assert cached_enumeration((9,)).nonsmooth > 0
    assert cached_enumeration((12,)).nonsmooth == 0


def test_z32_contains_the_closed_form_witness():
    from skewmorph.constructions import pns_witness_two

    report = cached_enumeration((32,))
    assert report.nonsmooth > 0
    witness = pns_witness_two(5)
    assert witness.perm in {sm.perm for sm in report.morphisms}


def test_every_automorphism_is_enumerated():
    for factors in ((9,), (12,), (2, 4)):
        group = make_group(factors)
        report = cached_enumeration(factors)
        perms = {sm.perm for sm in report.morphisms}
        autos = enumerate_automorphisms(group)
        assert report.automorphisms == len(autos)
        assert all(a.table in perms for a in autos)


def test_output_closed_under_conjugation_and_powers():
    for factors in ((9,), (2, 4), (3, 3), (2, 2, 2)):
        group = make_group(factors)
        report = cached_enumeration(factors)
        perms = {sm.perm for sm in report.morphisms}
        for theta in enumerate_automorphisms(group):
            for sm in report.morphisms:
                assert conjugate(sm, theta).perm in perms
        for sm in report.morphisms:
            for j in range(2, sm.order):
                pj = perm_power(sm.perm, j)
                if try_validate(group, pj) is not None:
                    assert pj in perms


@pytest.mark.parametrize(
    "n,expected",
    [(1, True), (9, False), (16, True), (32, False), (105, True), (12, True), (18, False)],
)
def test_smooth_only_predicate(n, expected):
    assert smooth_only_predicate(n) == expected


def test_theorem2_necessary():
    assert theorem2_necessary(parse_group_literal("Z2xZ2"))
    assert not theorem2_necessary(parse_group_literal("Z32xZ2"))
    assert not theorem2_necessary(parse_group_literal("Z3xZ3"))
    assert theorem2_necessary(parse_group_literal("Z2xZ4"))
    with pytest.raises(ValueError):
        theorem2_necessary(make_group([6]))
    with pytest.raises(ValueError):
        theorem2_necessary(make_group([2, 3]))  # cyclic despite two factors


def test_verify_theorem1_to_20():
    verdict = verify_theorem1(20)
    assert verdict.ok
    assert verdict.nonsmooth_orders == (9, 18)


def test_verify_theorem1_guard():
    with pytest.raises(SizeGuardError):
        verify_theorem1(100)


def test_non_cyclic_enumeration_cross_sections():
    report = cached_enumeration((2, 6))
    assert report.automorphisms == len(enumerate_automorphisms(make_group([2, 6])))
    assert report.total == report.smooth + report.nonsmooth
    report33 = cached_enumeration((3, 3))
    assert (report33.total, report33.automorphisms) == (64, 48)


@pytest.mark.parametrize("factors", [(2, 2, 2), (3, 3), (2, 6), (4, 4), (2, 2, 4)])
def test_general_search_yields_each_morphism_once(factors):
    """One search per Aut(A)-orbit of kernels, exact kernels only: no duplicates."""
    perms = [sm.perm for sm in _search_general(make_group(factors))]
    assert len(perms) == len(set(perms)) == cached_enumeration(factors).total


# sha256 of repr(sorted perm list), pinned before the search ran once per
# Aut(A)-orbit of kernels; these groups are beyond the oracle's reach.
NONCYCLIC_PINS = {
    (2, 2): (6, "3006c2cfe12e0c3258386f794ac83c121621de425c8237bd4992f558c317ac66"),
    (2, 4): (16, "87469e649584fd65f36b20bde3296240c59511ed135b160e5268c3a9d736501e"),
    (2, 2, 2): (168, "9e3919964a4414a26074012c132eb3f4c48aa118056d85b2b08dd7c9f788059f"),
    (3, 3): (64, "755831a0412b82f6627a5a1d6b2c76018257d60a005997a562697fefb8b96083"),
    (2, 6): (24, "b639d182552c644744520d02a830d505c9c4847c5963425c39fe3f2c877f2a7c"),
    (2, 8): (56, "d78b95b38f1703c39c7fc6c20e7401a0966c3a5aaee36561c4d82543c36ae6a8"),
    (4, 4): (120, "707bba301f256cfb511f890d637507423d9215702417577e91bf278e617de061"),
    (2, 2, 4): (288, "f2906f1e101349bc96b6c088e43439a2ffbd4738399de071a1a785e0bd6e7dda"),
    (3, 6): (96, "960af534fd94d67ca1b7e7f1fd6d5164145d8dc8505f766caba17d70b1baaba0"),
    (2, 10): (48, "fcd6537f032aa569095e381c284dcf391eb8069242ed1b1e44c2dfa109bb18cd"),
    (5, 5): (768, "3aa59dabe62492a992aebc35e4f6d93ac1a3f1c366b9e96a92ea279d975c7148"),
}


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_noncyclic_morphism_sets_pinned(factors):
    report = cached_enumeration(factors)
    digest = hashlib.sha256(repr([sm.perm for sm in report.morphisms]).encode()).hexdigest()
    assert (report.total, digest) == NONCYCLIC_PINS[factors]


@pytest.mark.parametrize("n", [12, 15, 18, 20, 21, 24, 28])
def test_cyclic_route_equals_general_route(n):
    """Z_n on the cyclic route equals its primary split on the general route.

    Z15 takes the coprime decomposition; the others run the pruned lifting
    cells, including cells with k equal to the quotient order.
    """
    cyclic = make_group([n])
    split, _, back = primary_split(cyclic)
    assert len(split.factors) == 2
    carried = {relabel(sm, back, cyclic).perm for sm in cached_enumeration(split.factors).morphisms}
    assert carried == {sm.perm for sm in cached_enumeration((n,)).morphisms}


def _order_on(perm, members):
    order = 1
    for a in members:
        length, x = 1, perm[a]
        while x != a:
            x = perm[x]
            length += 1
        order = lcm(order, length)
    return order


def test_kernel_order_divides_every_power_minus_one():
    """phi^(pi(b) - 1) fixes Ker phi pointwise, for every skew morphism of Z_n."""
    for n in range(2, 31):
        for sm in cached_enumeration((n,)).morphisms:
            o = _order_on(sm.perm, kernel(sm).members)
            assert all((p - 1) % o == 0 for p in sm.power), (n, sm.perm)


@pytest.mark.parametrize(
    "n,expected",
    [(45, (9, 5)), (33, (3, 11)), (15, (3, 5)), (30, None), (39, None), (42, None), (27, None), (1, None)],
)
def test_coprime_split(n, expected):
    assert coprime_split(n) == expected


@pytest.mark.parametrize(
    "n,expected", [(35, (24, 24, 0)), (45, (40, 24, 16)), (51, (32, 32, 0))]
)
def test_decomposed_orders(n, expected):
    report = cached_enumeration((n,))
    assert (report.total, report.automorphisms, report.nonsmooth) == expected
    assert (report.nonsmooth == 0) == smooth_only_predicate(n)
