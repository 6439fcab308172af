import hashlib
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm, prod

import pytest

from skewmorph import enumeration
from skewmorph.constructions import nonsmooth_witness
from skewmorph.enumeration import (
    EnumerationReport,
    _orbit_plan,
    _power_web,
    _powers_fit,
    _region_holds,
    _search_cyclic,
    _search_general,
    _subgroup_automorphisms,
    brute_force_oracle,
    cached_enumeration,
    coprime_split,
    enumerate_skew_morphisms,
    smooth_only_predicate,
    theorem2_necessary,
    verify_theorem1,
)
from skewmorph.groups import (
    Automorphism,
    SizeGuardError,
    abelian_group_presentations,
    cycles,
    enumerate_automorphisms,
    enumerate_subgroups,
    factorint,
    invert,
    make_group,
    parse_group_literal,
    perm_order,
    perm_power,
    primary_split,
    quotient_group,
    totient,
)
from skewmorph.morphisms import (
    conjugate,
    is_smooth,
    kernel,
    quotient_skew,
    relabel,
    skew_type,
    try_validate,
)


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
        enumerate_skew_morphisms(make_group([5, 7]))  # two factors: the general route
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


def test_cached_enumeration_shares_one_entry_per_group():
    """Positional, explicit-None and keyword calls hit the same cache entry."""
    before = cached_enumeration.cache_info()
    first = cached_enumeration((2, 3))
    assert cached_enumeration((2, 3), None) is first
    assert cached_enumeration([2, 3], max_order=None) is first
    after = cached_enumeration.cache_info()
    assert after.currsize - before.currsize <= 1
    assert after.hits - before.hits >= 2


def test_cached_enumeration_is_bounded():
    maxsize = cached_enumeration.cache_info().maxsize
    assert maxsize is not None and maxsize == enumeration.ENUMERATION_CACHE_SIZE


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
    """The cyclic route lists x -> t*x over the units t; the isomorphism
    search of enumerate_automorphisms is the independent check."""
    for factors in [(9,), (12,), (2, 4)] + [(n,) for n in range(2, 65)]:
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


def test_smooth_only_predicate_refuses_zero():
    with pytest.raises(ValueError, match="positive"):
        smooth_only_predicate(0)


def test_theorem2_necessary():
    assert theorem2_necessary(parse_group_literal("Z2xZ2"))
    assert not theorem2_necessary(parse_group_literal("Z32xZ2"))
    assert not theorem2_necessary(parse_group_literal("Z3xZ3"))
    assert theorem2_necessary(parse_group_literal("Z2xZ4"))
    with pytest.raises(ValueError):
        theorem2_necessary(make_group([6]))
    with pytest.raises(ValueError):
        theorem2_necessary(make_group([2, 3]))  # cyclic despite two factors


def test_theorem2_necessary_fails_exactly_where_a_witness_is_built():
    """The arithmetic test against the independent encoding of the witness
    families in constructions (_witness_seed), on every non-cyclic
    presentation of order <= 64."""
    groups = [
        group
        for n in range(1, 65)
        for group in abelian_group_presentations(n)
        if not group.is_cyclic
    ]
    assert len(groups) == 53
    for group in groups:
        assert theorem2_necessary(group) == (nonsmooth_witness(group) is None), group.label


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
# Aut(A)-orbit of kernels (Z2xZ12 and Z2xZ14: before the region check);
# these groups are beyond the oracle's reach.
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
    (2, 12): (80, "b37e9cb3f8d291ea25263a40c93d5ef620ba6c58ed9df6ea0beff0d520623f19"),
    (2, 14): (72, "b1a84153b48c18761117436e496ddd7d1f6d3675eaf6a1f23d99ebe47d201dd6"),
    # pinned before the stabilizer cuts, at 4 s to 90 s each
    (3, 9): (172, "146a0b04f18b8e68dc439f733e5163b3eee1ac9c8b7ff5e7f463153220ac4454"),
    (2, 2, 6): (560, "e5b312f52f50cb57bbe3a1377cbc4374e448d8e9f3001e7dea3a3c91c4573260"),
    (2, 16): (224, "6dee88ddf8bc9aea5b972f435f3d7e6421d8a892a187ff2ead914b9acbfc618e"),
    (4, 8): (448, "bff923790cd88600a2e3ee94cb4faba34e2c6ee27be50fba602d1b6dcbf129dc"),
    (2, 2, 2, 2): (20160, "cff81e0cf7ee6e6c7934a7360cac5881894a47c899c3df5a1405d4a93a412bc5"),
    (3, 3, 3): (13312, "331aa35025eb900eb0a3e68f337b5890aea84667a7540fc7f6fce1afe122b58f"),
    (2, 2, 8): (984, "c094fa8416f191dbdf4b65b908dc2c9d244cc7e04c675099b1ac05aee2ed58f3"),
    (2, 4, 4): (2304, "f9d485ecc656b5e995525ee05f88b849f4bdf7e33a2f8ee988ea14d15731925b"),
}


# the same digests for Z_n, pinned before the lifting cell dropped its path
# tracking; the differential test against the general route stops at 28
CYCLIC_PINS = {
    2: (1, "4c461d4a0ab0fe42d5dfe0398002bac0ee02261aa3b5641fe9d4d1f8d99633a3"),
    3: (2, "8d3cb971d3e9f7f8c30d7843e493e246790666a9ec72b41fb26c90a195a332c2"),
    4: (2, "1ec34c76cfeb77c77571323f2c4a54d91f7bdac89b7de133e89df2de0df0520f"),
    5: (4, "484ef5dd7db0cdd0607accefc5e5b6857bd0db6bca85f50306f12b29868dc014"),
    6: (4, "6daffb1bbdd52aea037500593d674388a2e3b62bafa3d8a50c43922475903cd1"),
    7: (6, "81cf9ad084897a01b31fd14cc8ed35b942bf520612feea02bd87b3a5483d0e91"),
    8: (6, "3be9124b55f7309d12370c29c8537f05998e4da935667fac3f5fb97832fa99ec"),
    9: (10, "96f163b60ce951307d688a79d2dbe66f31249e1c1275b36d0c28cbdf9a14124e"),
    10: (8, "2bfa249a12efdfc7b3598127b2a332a8ce82e262f70fdeb082cbf101271ee009"),
    11: (10, "a03d4c7f7c40ed6cc2e63c49ce5bf308c8c155b43cef31c71745b37c4329cb03"),
    12: (8, "bbca1554fa5decfb22415f9b855544cda762f53c8248a31d16ae0c5c8190607e"),
    13: (12, "04ff82d999e1577369f458d9cea3699e6cc5a05f9dc39d1feecfecb0a9ddfe7a"),
    14: (12, "59a3642e322c40bf364985dcec73c9b2c741798129933831bc2b4546731aadd5"),
    15: (8, "c826dea11b2a4817bbd9ecb904eb814de1ae5e86d3c28adcf7c788d48db03b69"),
    16: (20, "933056f99573da5d3eed0e3ed91a09637f4a30d3efd3285fd2606dba31ccb8d1"),
    17: (16, "a2611051746582aad1bc505083d6a67a299aae9aaacb8fc284bccd5af839024d"),
    18: (30, "4f3038b2ff89f2de396f4ce6c3ac942ba6890527dd048d1c8edaf7c98a762d23"),
    19: (18, "a950ea6482297b04d4c6fc26a820bf4c158a1b9e12aac128de7d3a788dc17540"),
    20: (24, "3dc1d952423158876b71545e0cdc76938bc552b729673345b57d3dbcb2bb142a"),
    21: (24, "7eae562e8ef3944d562c1872aa853ef7344afdca50e910f1d6f053f306f7653b"),
    22: (20, "708f7b8849b1873118a3b477f0e7cb7b7d83e5dc843d34080513e1e8f84f8134"),
    23: (22, "2601cf6655cdd12eaa1c3813f2431ea2bace97fcd76c3906264fd97c911cffe2"),
    24: (24, "fa003eabac46ae4a1b1f671a9de8cd13b5ec3d325346fc4b16bead179fe72ddf"),
    25: (68, "eba603c4e60a45589bf8ceab2d88deb1c14db96f5aa5d6ac53fc33b35392bca6"),
    26: (24, "185cc071130689c248d7ac75fb3af43004ec1cc914b478e8e940b95dbbcc1a4c"),
    27: (82, "aa0cc74ab9b34c5d093748c0fa86f38a9d81bfc9adf12b2583a3cbe8ab1e558f"),
    28: (24, "cd06c33830499bb5722cb687d8eec968c81a57600ccda7b5e0062575ee6baf9c"),
    29: (28, "25594bfe878fd7b3c053d55e6ed45695be3e8dac3817640706959b86aa4e5448"),
    30: (32, "73cb2373f4b770f03a2aec73d215e5fe7c26e2b2655c2ae63ddbc99e18a4a41d"),
    31: (30, "2bc8b9a2452f696d749829a3eababa748b23b14e6bc3e162d0bfabe31cc92833"),
    32: (76, "762acf592efae8c192c40b245ec27ea659be7d0714ab7d6ef1c25ff6cddf263a"),
    33: (20, "8a1f34cc6677f4355bba82c3a1e0ec65a1b243a916bad571699b62e3c1c3a625"),
    34: (32, "0386b9b1b8cdf9a39b6aa461dbb732d0a41b3315b1ef61455b167a9087f3daad"),
    35: (24, "af1f2adec28b898153442c88666c2511d0ce6f6ae8916074cb85c6f7926ad06d"),
    36: (60, "a90d6d2556b2fc3da7d0b0e2f5af78352d192e1dd865209a7759743c3e74d676"),
    37: (36, "657d6ff2c4806aa5a36a8b7f17bf93136de26a955129db8bdbc50b52d0bffeea"),
    38: (36, "8c2d956764b9fa1bb3c1aeb2f1edf063786f580ca9f4bfd6bdb3b97d1d96730d"),
    39: (48, "6ea7ed926c623df63ab757557ea6c046a1931b25e8821fc2251f765cb46fac64"),
    40: (60, "d9766e955f263bd411b638e68c52eb5063bbc010effe3de09e4773893fdf6f6a"),
    # Z41..Z64 pinned before the lifting cell solved its power web first,
    # except Z63, which took more than 120 s cold then and is pinned after;
    # its set equals the general route's on Z9xZ7 (about 260 s, not run here)
    41: (40, "6d55d40ba6863124775976296b4c36a0eb25c59ec27572e25e762093077ba6f2"),
    42: (64, "75e8928fe89081b6fc2e87430452b0a5ef096ddf8507692cc317500ab3950373"),
    43: (42, "057d9fc61e336fa6e4fe00cea02977888fe44e9cb21314a8f6d90f639ca1f599"),
    44: (40, "58a150640e0bd7d70e28500f14815bfa8d2cf5237a48734f9a921be0dfdd8fd4"),
    45: (40, "bda7b5621568a3293291df5ecff02ffc1f85758768fbc9877f67cbec0ae0e7c4"),
    46: (44, "566ab0b84cc847e3bbaa629dfeee416b5b1eeb18557adf6af3991e7efaeb0460"),
    47: (46, "72337b184a7e0a5a7248a607916787a8ce674b864f169e5724224fca38b62075"),
    48: (80, "46de811c7134301f764356f96c38558149bfb3ba6a45ceebd707c99dc95c2111"),
    49: (222, "2fceda04e4d4d35dbe9d313f282e293a4732c0db810b73d9d64395e5cf43193a"),
    50: (172, "6d1eba5ed3d7309d109837fdde4ae8bfdd98ada0a698f59167903242a94095e1"),
    51: (32, "b4c87075c255114b30859a8ca25cf0b35f1aa9a2fb1bd915568df323c8b5f757"),
    52: (72, "14dda687dba8ed0fe8a9b6276fbb6611504a4659c3925cf301f3a64f146195b5"),
    53: (52, "dd432bda0529e62d3dbe6a76ea2818d26f8a450021e4176f3a23a59ae30b5d36"),
    54: (264, "68332941160fcffe1812cf6c280507e087e268772e64c8b33c23bfb05da25c09"),
    55: (80, "7b95ce09f8869f024d1574a090acc7e022cc39ae881a374e40bae339523bb5a3"),
    56: (72, "c8548724487456e4772b3e35108ddfeaad5bd4abfe76cf900df3c02cbb4462e9"),
    57: (72, "0a82f5d0884d1f183aaa93562c945476be14ceb6e5ff419cc77327a00e139ab4"),
    58: (56, "d08e9ff01f069cc6fa34afc5b16331c47893e1c5bed2fc5fc8cc4227feed8f4c"),
    59: (58, "19443bfe256feb12a4fcfc5c1afd4d148541979f320e3c6fb267e573fa6fe2c0"),
    60: (96, "f4d75730600dca4f5397a09b2163d7e88913d1c8e1c5a54fc0d823b408e40227"),
    61: (60, "b447a49959c9af596ef68d8670bc17dba159d4e6ab9d0fe2faedaf805c73e389"),
    62: (60, "8808b20760f0eca15382a7c2489002ef04ceaa084ab050493c6812696a2b1f0f"),
    63: (80, "693cd051457509befaeb39e8bf67da77a32b5c45dd0eedbe0bb6953b07934b68"),
    64: (300, "58b28f05a14dabc23f14741c0ab4ce60860e2a25d1cf49bfe8675cd17142a129"),
}


def _pin(report):
    digest = hashlib.sha256(repr([sm.perm for sm in report.morphisms]).encode()).hexdigest()
    return report.total, digest


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_noncyclic_morphism_sets_pinned(factors):
    assert _pin(cached_enumeration(factors)) == NONCYCLIC_PINS[factors]


@pytest.mark.parametrize("n", sorted(CYCLIC_PINS))
def test_cyclic_morphism_sets_pinned(n):
    assert _pin(cached_enumeration((n,))) == CYCLIC_PINS[n]


def _region_plan(sm):
    """The kernel, the quotient morphism and the region checks, in search
    order, that the general search runs for sm's own kernel."""
    group = sm.group
    sub = kernel(sm)
    quotient, proj = quotient_group(group, sub)
    coset_elems = [[] for _ in range(quotient.order)]
    for x in range(group.order):
        coset_elems[proj[x]].append(x)
    tau = quotient_skew(sm, sub)
    _, checks = _orbit_plan(group, coset_elems, proj[0], tau)
    return sub, tau, [check for check in checks if check is not None]


def _passes_regions(table, sub, tau, checks):
    return all(_region_holds(sub.group, table, *check, tau.order) for check in checks)


def _assert_region_checks_pass(morphisms):
    """Each morphism survives every tau-orbit prefix of its own table,
    reading only entries inside the region, which it maps into itself.
    Automorphisms are skipped: their kernel is the whole group, so their
    plan has no region check."""
    for sm in morphisms:
        if not sm.is_proper:
            continue
        _, tau, checks = _region_plan(sm)
        for check in checks:
            region = check[0]
            assert all(sm.perm[x] in region for x in region)
            hidden = [sm.perm[x] if x in region else 0 for x in range(len(sm.perm))]
            assert _region_holds(sm.group, hidden, *check, tau.order)
            assert _region_holds(sm.group, sm.perm, *check, tau.order), sm.perm


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_every_morphism_passes_its_own_region_checks(factors):
    """Completeness of the region check on everything the search finds."""
    _assert_region_checks_pass(cached_enumeration(factors).morphisms)


@pytest.mark.parametrize("factors", [(2, 4), (2, 2, 2), (3, 3)])
def test_oracle_morphisms_pass_their_own_region_checks(factors):
    """The same on morphisms found without the search, so a check that
    drops morphisms cannot hide them from this test."""
    _assert_region_checks_pass(brute_force_oracle(make_group(factors)).morphisms)


def test_closed_form_morphisms_pass_their_own_region_checks():
    """Also without the search: the Z5xZ5 family with r = 4 has the tau-orbits
    {1, 4} and {2, 3}, so its first region holds pairs with r + b outside it."""
    from skewmorph.constructions import nse_construct, nse_params_range

    _assert_region_checks_pass(nse_construct(5, *params) for params in nse_params_range(5))


def _moving_quotients(factors):
    """Each proper morphism whose quotient morphism moves a coset, with its
    region plan and one tau-orbit of length > 1."""
    for sm in cached_enumeration(factors).morphisms:
        sub, tau, checks = _region_plan(sm)
        orbit = next((cyc for cyc in cycles(tau.perm) if len(cyc) > 1), None)
        if orbit is not None:
            yield sm, sub, tau, checks, orbit


def test_region_check_enforces_the_quotient_power():
    """On the whole group, a power class shifted off pi_tau is rejected."""
    checked = 0
    for factors in ((3, 3), (3, 6)):
        for sm, _, tau, checks, _ in _moving_quotients(factors):
            region, tests = checks[-1]
            assert len(region) == len(sm.perm)
            shifted = [(r, (e0 + 1) % tau.order, *picks) for r, e0, *picks in tests]
            assert _region_holds(sm.group, sm.perm, region, tests, tau.order)
            assert not _region_holds(sm.group, sm.perm, region, shifted, tau.order)
            checked += 1
    assert checked == 32


def test_region_check_rejects_swapped_coset_images():
    """Near misses: exchange the images of two cosets in one tau-orbit."""
    group = make_group((3, 3))
    add = group.add_table
    checked = 0
    for sm, sub, tau, checks, orbit in _moving_quotients(group.factors):
        _, proj = quotient_group(group, sub)
        r1, r2 = (proj.index(j) for j in orbit[:2])
        swapped = list(sm.perm)
        for a in sub.members:
            swapped[add[a][r1]] = sm.perm[add[a][r2]]
            swapped[add[a][r2]] = sm.perm[add[a][r1]]
        assert _passes_regions(sm.perm, sub, tau, checks)
        assert try_validate(group, swapped) is None
        assert not _passes_regions(swapped, sub, tau, checks)
        checked += 1
    assert checked == 16


def _naive_region_holds(group, table, region, tests, tau_order):
    """_region_holds by a scan of exponents: the order m of the table on
    region, found by iterating it there, must be below |A|, and each test
    needs some e = e0 (mod tau_order) below lcm(tau_order, m) with
    table[r + b] - table[r] = phi**e(b) at every usable b, iterating phi."""
    n = group.order
    m = 1
    for x in region:
        length, y = 1, table[x]
        while y != x:
            length, y = length + 1, table[y]
        m = lcm(m, length)
    if m >= n:
        return False
    for r, e0, at_bs, at_rbs in tests:
        bs, rbs = at_bs(range(n)), at_rbs(range(n))
        target = [group.sub(table[rb], table[r]) for rb in rbs]
        image = list(bs)  # phi**e(b) for each usable b
        for e in range(lcm(tau_order, m)):
            if e % tau_order == e0 % tau_order and image == target:
                break
            image = [table[x] for x in image]
        else:
            return False
    return True


def _seeded_tables(group, rng):
    """Tables as the general search builds them, on every plan it runs: for
    each proper kernel candidate K and quotient morphism tau, a random
    additive bijection of K and a random image for each coset
    representative r in the coset tau(r mod K), the rest of the coset placed
    by the kernel.  Yields (table, tau, region checks)."""
    n = group.order
    add = group.add_table
    for sub in enumerate_subgroups(group):
        if not 1 < sub.size < n:
            continue
        quotient, proj = quotient_group(group, sub)
        coset_elems = [[] for _ in range(quotient.order)]
        for x in range(n):
            coset_elems[proj[x]].append(x)
        thetas = _subgroup_automorphisms(group, sub)
        for tau in cached_enumeration(quotient.factors).morphisms:
            order, checks = _orbit_plan(group, coset_elems, proj[0], tau)
            for _ in range(3):
                theta = rng.choice(thetas)
                table = list(range(n))
                for j in [proj[0], *order]:
                    y = rng.choice(coset_elems[tau.perm[j]])
                    for a in sub.members:
                        table[add[a][coset_elems[j][0]]] = add[theta[a]][y]
                yield table, tau, [check for check in checks if check is not None]


@pytest.mark.parametrize("factors", [(3, 3), (3, 6), (2, 2, 4)])
def test_region_check_equals_a_naive_exponent_scan(factors):
    """The residue-class scan over the listed powers of phi|R decides the
    same as trying every exponent e = e0 (mod |tau|) below lcm(|tau|,
    |phi|R|), on each find's own plan and on seeded tables.  On Z3xZ6 and
    Z2xZ2xZ4 some seeded regions have an order |phi|R| that is no multiple
    of |tau|, so the class mod gcd(|tau|, |phi|R|) holds exponents that
    the class mod |tau| misses, and some of them pass only through those."""
    group = make_group(factors)
    finds = [sm for sm in cached_enumeration(factors).morphisms if sm.is_proper]
    plans = [(sm.perm, *_region_plan(sm)[1:]) for sm in finds]
    verdicts = {True: 0, False: 0}
    for table, tau, checks in plans + list(_seeded_tables(group, random.Random(2207))):
        for region, tests in checks:
            verdict = _region_holds(group, table, region, tests, tau.order)
            assert verdict == _naive_region_holds(group, table, region, tests, tau.order)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 0, verdicts


def test_region_check_refuses_a_region_of_order_at_least_the_group_order():
    """Every skew morphism of A has order at most |A| - 1, and so has its
    table on a phi-closed region.  On Z2xZ8 a region table made of a
    3-cycle and a 7-cycle has order 21 >= 16 and is refused before any
    test is read; a 3-cycle and a 5-cycle, of order 15, pass."""
    group = make_group((2, 8))
    region = set(range(group.order))
    for lengths, holds in (((3, 7), False), ((3, 5), True)):
        table = list(range(group.order))
        start = 1
        for length in lengths:
            for x in range(start, start + length):
                table[x] = x + 1 if x + 1 < start + length else start
            start += length
        assert perm_order(table) == prod(lengths)
        assert _region_holds(group, table, region, [], 1) is holds
        assert _naive_region_holds(group, table, region, [], 1) is holds


@pytest.mark.parametrize("n", [12, 15, 18, 20, 21, 24, 28, 30, 36])
def test_cyclic_route_equals_general_route(n):
    """Z_n on the cyclic route equals its primary split on the general route.

    Z15 takes the coprime decomposition; the others run the pruned lifting
    cells, including cells with k equal to the quotient order, which the
    unit-conjugation orbit cut shrinks most on Z30 (Z2xZ3xZ5) and Z36
    (Z4xZ9).  Z36 is above GENERAL_GUARD, so the guard is set to n.
    """
    cyclic = make_group([n])
    split, _, back = primary_split(cyclic)
    assert len(split.factors) > 1
    general = cached_enumeration(split.factors, n)
    carried = {relabel(sm, back, cyclic).perm for sm in general.morphisms}
    assert carried == {sm.perm for sm in cached_enumeration((n,)).morphisms}


def test_a_route_yielding_a_morphism_twice_fails_loudly(monkeypatch):
    """enumerate_skew_morphisms passes the search's finds straight through,
    so a duplicate is an error, not silently merged."""
    group = make_group([6])
    found = list(enumeration._search_morphisms(group))
    monkeypatch.setattr(enumeration, "_search_morphisms", lambda g, m=None: iter(found + found[:1]))
    with pytest.raises(AssertionError):
        enumerate_skew_morphisms(group)


def test_a_duplicate_fails_loudly_under_python_O():
    """The duplicate check is raised, not asserted, so python -O keeps it."""
    script = (
        "from skewmorph import enumeration\n"
        "from skewmorph.groups import make_group\n"
        "group = make_group([6])\n"
        "found = list(enumeration._search_morphisms(group))\n"
        "enumeration._search_morphisms = lambda g, m=None: iter(found + found[:1])\n"
        "try:\n"
        "    enumeration.enumerate_skew_morphisms(group)\n"
        "except AssertionError:\n"
        "    print('refused')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "refused"


@pytest.mark.parametrize(
    "n,tables,conjugates",
    [(30, 26, 12), (36, 69, 13), (39, 2, 22)],
    ids=["Z30", "Z36", "Z39"],
)
def test_cyclic_search_revalidates_a_pinned_number_of_tables(monkeypatch, n, tables, conjugates):
    """Pins how hard the lifting cells prune: a cold enumeration, quotients
    and decomposed products included, revalidates exactly this many
    completed tables and expands exactly this many finds by unit
    conjugation, so a check that stops firing, or an orbit cut that stops
    expanding, shows here and not only as lost time or lost morphisms.  The
    automorphisms are listed, not searched, so no cell has skew type 1.  A
    fresh cache per n makes the counts independent of test order."""
    calls = []
    expanded = []
    cell_types = set()
    lift_cell = enumeration._lift_cell

    def cell(group, q, k, L):
        cell_types.add(k)
        return lift_cell(group, q, k, L)

    def counted(group, table):
        calls.append(table)
        return try_validate(group, table)

    def transported(sm, iso, target):
        expanded.append(iso)
        return relabel(sm, iso, target)

    monkeypatch.setattr(enumeration, "try_validate", counted)
    monkeypatch.setattr(enumeration, "relabel", transported)
    monkeypatch.setattr(enumeration, "_lift_cell", cell)
    fresh = lru_cache(maxsize=None)(enumeration.cached_enumeration.__wrapped__)
    monkeypatch.setattr(enumeration, "cached_enumeration", fresh)
    enumerate_skew_morphisms(make_group([n]))
    assert (len(calls), len(expanded)) == (tables, conjugates)
    assert cell_types and 1 not in cell_types


@pytest.mark.parametrize(
    "factors,tables,conjugates,regions",
    [
        ((2, 2, 4), 130, (42, 48, 8), 592),
        ((5, 5), 32, (240, 0, 36), 761),
        ((3, 6), 39, (24, 22, 12), 277),
    ],
    ids=["Z2xZ2xZ4", "Z5xZ5", "Z3xZ6"],
)
def test_general_search_revalidates_a_pinned_number_of_tables(
    monkeypatch, factors, tables, conjugates, regions
):
    """Pins how hard the general route prunes: a cold enumeration, quotients
    included, revalidates exactly this many completed tables, runs exactly
    this many region checks, and conjugates exactly this many finds onto
    another kernel of the kernel's Aut(A)-orbit, onto another (tau, theta)
    pair of the kernel's stabilizer orbit, and onto another image at some
    placed coset of the pair (the stabilizer chain), in that order.  Each
    conjugate is sorted by what it changes, so a cut that stops expanding
    shows here and not only as lost time.  A fresh cache makes the counts
    independent of test order."""
    calls = []
    checked = [0]
    expanded = [0, 0, 0]

    def counted(group, table):
        calls.append(table)
        return try_validate(group, table)

    def region_counted(*args):
        checked[0] += 1
        return _region_holds(*args)

    def transported(sm, sigma):
        psi = conjugate(sm, sigma)
        sub = kernel(sm)
        if kernel(psi) != sub:
            expanded[0] += 1
        elif quotient_skew(psi, sub) != quotient_skew(sm, sub) or any(
            psi.perm[a] != sm.perm[a] for a in sub.members
        ):
            expanded[1] += 1
        else:
            expanded[2] += 1
        return psi

    monkeypatch.setattr(enumeration, "try_validate", counted)
    monkeypatch.setattr(enumeration, "_region_holds", region_counted)
    monkeypatch.setattr(enumeration, "conjugate", transported)
    fresh = lru_cache(maxsize=None)(enumeration.cached_enumeration.__wrapped__)
    monkeypatch.setattr(enumeration, "cached_enumeration", fresh)
    enumerate_skew_morphisms(make_group(factors))
    assert (len(calls), tuple(expanded), checked[0]) == (tables, conjugates, regions)


@pytest.mark.parametrize("n", sorted(CYCLIC_PINS))
def test_order_divides_n_times_totient(n):
    """The Kovacs-Nedela order bound that _search_cyclic skips cells by."""
    assert all(n * totient(n) % sm.order == 0 for sm in cached_enumeration((n,)).morphisms)


def test_unit_conjugation_preserves_the_lifting_cell():
    """The lemma behind the orbit cut of _lift_cell, checked on every
    enumerated morphism and not through the cell's code: for phi of skew
    type k with phi(k) = t*k and any unit u = 1 (mod k), psi = u.phi.u^-1
    is enumerated, has phi's order, skew type and reduction mod k, and
    psi(1) - t = u*(phi(1) - t).  The cut uses the units u = 1 (mod d) for
    the quotient order d, a multiple of k, so they are among these."""
    checked = 0
    for n in range(2, 41):
        group = make_group([n])
        morphisms = cached_enumeration((n,)).morphisms
        perms = {sm.perm for sm in morphisms}
        for sm in morphisms:
            k = skew_type(sm)
            t, rest = divmod(sm.perm[k], k)
            assert rest == 0 and gcd(t, n // k) == 1
            for u in range(1, n, k):
                if gcd(u, n) != 1:
                    continue
                psi = conjugate(sm, Automorphism(group, tuple(u * x % n for x in range(n))))
                assert psi.perm in perms
                assert (psi.order, skew_type(psi)) == (sm.order, k)
                assert all(psi.perm[x] % k == sm.perm[x] % k for x in range(n))
                assert psi.perm[1] == (t + u * (sm.perm[1] - t)) % n
                checked += 1
    assert checked == 13229


# the groups of the benchmark's noncyclic-sweep pool
SWEEP_GROUPS = [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4), (3, 6), (2, 10), (5, 5)
]


def test_stabilizer_conjugation_preserves_the_kernel_assembly():
    """The lemma behind both cuts of _search_general, checked on every
    enumerated proper morphism of the sweep's groups and not through the
    search's code: for phi with kernel K, quotient tau and restriction
    theta = phi|K, and every automorphism sigma with sigma(K) = K, inducing
    sigma_bar on A/K, psi = sigma phi sigma^-1 is enumerated, has kernel K,
    quotient sigma_bar tau sigma_bar^-1 and restriction sigma theta
    sigma^-1, and psi(r) = sigma(theta(sigma^-1 r - r) + phi(r)) at every r
    whose coset sigma_bar fixes.  Automorphisms have kernel A, where this
    is the closure under conjugation tested above."""
    checked = 0
    for factors in SWEEP_GROUPS:
        group = make_group(factors)
        n, add, neg = group.order, group.add_table, group.neg_list
        morphisms = cached_enumeration(factors).morphisms
        by_perm = {sm.perm: sm for sm in morphisms}
        autos = enumerate_automorphisms(group)
        for sm in morphisms:
            if not sm.is_proper:
                continue
            phi = sm.perm
            sub = kernel(sm)
            _, proj = quotient_group(group, sub)
            tau = quotient_skew(sm, sub).perm
            for sigma in autos:
                s = sigma.table
                if sorted(s[a] for a in sub.members) != list(sub.members):
                    continue
                back = invert(s)
                bar = {proj[x]: proj[s[x]] for x in range(n)}
                perm = tuple(s[phi[back[x]]] for x in range(n))
                assert perm in by_perm, (phi, s)
                psi = by_perm[perm]
                assert kernel(psi) == sub
                assert all(proj[perm[s[x]]] == bar[tau[proj[x]]] for x in range(n))
                assert all(perm[s[a]] == s[phi[a]] for a in sub.members)
                for r in range(n):
                    if bar[proj[r]] == proj[r]:
                        a = add[back[r]][neg[r]]
                        assert perm[r] == s[add[phi[a]][phi[r]]], (phi, s, r)
                checked += 1
    assert checked == 37216


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


def test_coset_power_capacity_holds_on_every_morphism():
    """The premises of the coset-power capacity rule of _search_general,
    checked on morphisms found without the search (oracle, every abelian
    group of order 2..10) and with it (the NONCYCLIC_PINS groups of order
    <= 20): |phi| < |A|, pi is constant exactly on the cosets of the
    kernel, 1 mod the order o of phi on the kernel and pi_tau's class mod
    |tau| for the quotient morphism tau; and the rule admits each
    morphism's own (tau, o).  The automorphisms (kernel A, power 1) meet
    all but the first trivially."""
    oracle = [
        sm
        for n in range(2, 11)
        for factors in [(n,)] + [g.factors for g in abelian_group_presentations(n) if not g.is_cyclic]
        for sm in _oracle_morphisms(*factors)
    ]
    found = [
        sm
        for factors in sorted(NONCYCLIC_PINS)
        if prod(factors) <= 20
        for sm in cached_enumeration(factors).morphisms
    ]
    for sm in oracle + found:
        group, power = sm.group, sm.power
        assert sm.order < group.order, sm.perm
        if not sm.is_proper:
            continue
        sub = kernel(sm)
        _, proj = quotient_group(group, sub)
        tau = quotient_skew(sm, sub)
        on_coset = dict(zip(proj, power))
        assert all(on_coset[proj[x]] == p for x, p in enumerate(power)), sm.perm
        assert len(set(on_coset.values())) == len(on_coset), sm.perm
        o = _order_on(sm.perm, sub.members)
        assert all((p - 1) % o == 0 for p in power), sm.perm
        assert all((p - tau.power[proj[x]]) % tau.order == 0 for x, p in enumerate(power))
        assert _powers_fit(group.order, tau, o), sm.perm
    assert (len(oracle), len(found)) == (297, 21046)


def test_power_web_holds_on_every_morphism():
    """The power web that _lift_cell solves before its table walk, checked
    on morphisms found with the cell (enumeration, Z2..Z48) and without it
    (oracle, Z2..Z10): with sigma(i) the sum of pi(phi^j(1)) over j < i,
    mod |phi|, every x has pi(x + 1) = sigma(pi(x)), and sigma(|phi|) = 0."""
    oracle = [sm for n in range(2, 11) for sm in _oracle_morphisms(n)]
    found = [sm for n in range(2, 49) for sm in cached_enumeration((n,)).morphisms]
    for sm in oracle + found:
        n, m, perm, power = sm.group.order, sm.order, sm.perm, sm.power
        sigma = [0]
        x = 1
        for _ in range(m):
            sigma.append((sigma[-1] + power[x]) % m)
            x = perm[x]
        assert sigma[m] == 0, sm.perm
        assert all(power[(x + 1) % n] == sigma[power[x]] for x in range(n)), sm.perm
    assert (len(oracle), len(found)) == (43, 1367)


def _power_web_by_scan(q, k, L, classes):
    """The power web's solutions by a scan of every cvals with cvals[0] = 1
    and cvals[j] drawn from classes[j - 1], without propagation."""
    coset = []  # the coset of <k> holding slot i, that of q^i(1)
    x = 1
    for _ in range(L):
        coset.append(x % k)
        x = q.perm[x]
    found = []
    for rest in product(*classes):
        cvals = (1, *rest)
        if len(set(cvals)) < k:
            continue
        svals = [0]
        for i in range(L):
            svals.append((svals[-1] + cvals[coset[i]]) % L)
        if svals[L] == 0 and all(cvals[(j + 1) % k] == svals[cvals[j]] for j in range(k)):
            found.append(cvals)
    return found


def test_power_web_equals_a_scan_of_its_constraints(monkeypatch):
    """_power_web is exact: on every cell (q, k, L) that _search_cyclic
    opens for Z2..Z40 with at most 20,000 candidates, it returns the cvals
    that a scan keeps among all cvals with cvals[0] = 1, each cvals[j] in
    q's power class at j mod |q| within [0, L), and distinct values, where
    svals is the running sum of the slots' powers, svals[L] = 0 and
    cvals[j + 1] = svals[cvals[j]] for every j, indices mod k.  Table walk
    and revalidation hide a web that keeps too much, so the web is checked
    on its own."""
    cells = {}
    lift_cell = enumeration._lift_cell

    def cell(group, q, k, L):
        cells[q.perm, k, L] = q
        return lift_cell(group, q, k, L)

    monkeypatch.setattr(enumeration, "_lift_cell", cell)
    for n in range(2, 41):
        list(_search_cyclic(make_group([n])))
    scanned = solutions = 0
    for (_, k, L), q in cells.items():
        classes = [range(q.power[j], L, q.order) for j in range(1, k)]
        if prod(map(len, classes)) > 20_000:
            continue
        expected = _power_web_by_scan(q, k, L, classes)
        assert sorted(_power_web(q, k, L)) == expected, (q.perm, k, L)
        scanned += 1
        solutions += len(expected)
    assert (len(cells), scanned, solutions) == (626, 569, 346)


def test_slot_composition_holds_on_every_morphism():
    """The composition rule that _lift_cell closes its table under, checked
    on morphisms found with the cell (enumeration, Z2..Z64) and without it
    (oracle, Z2..Z10): with u_s = phi^s(1) and sigma(i) the sum of pi(u_j)
    over j < i, indices and values mod |phi|, every x and every slot s have
    phi(x + u_s) = phi(x) + u_(s + pi(x)) and pi(x + u_s) = sigma(s +
    pi(x)) - sigma(s)."""
    oracle = [sm for n in range(2, 11) for sm in _oracle_morphisms(n)]
    found = [sm for n in range(2, 65) for sm in cached_enumeration((n,)).morphisms]
    for sm in oracle + found:
        n, m, perm, power = sm.group.order, sm.order, sm.perm, sm.power
        orbit = [1]
        for _ in range(m - 1):
            orbit.append(perm[orbit[-1]])
        assert perm[orbit[-1]] == 1, sm.perm
        sigma = [0]
        for u in orbit[:-1]:
            sigma.append((sigma[-1] + power[u]) % m)
        for x in range(n):
            p = power[x]
            ys = [(x + b) % n for b in orbit]
            assert [perm[y] for y in ys] == [(perm[x] + u) % n for u in orbit[p:] + orbit[:p]], sm.perm
            assert [power[y] for y in ys] == [(sigma[(s + p) % m] - sigma[s]) % m for s in range(m)], sm.perm
    assert (len(oracle), len(found)) == (43, 3115)


def _closed_form_morphisms():
    from skewmorph.constructions import (
        ParameterRejection,
        csm_construct,
        enumerate_csm_params,
        nse_construct,
        nse_params_range,
        root_construct,
        root_params,
    )

    for n in (12, 24, 36, 40):
        yield from (csm_construct(params) for params in enumerate_csm_params(n))
    for n in (8, 9, 18, 25, 27, 32, 36):
        for k in range(1, n + 1):
            for s in range(n):
                try:
                    yield root_construct(root_params(n, k, s))
                except ParameterRejection:
                    pass
    for p in (3, 5):
        yield from (nse_construct(p, *params) for params in nse_params_range(p))


@lru_cache(maxsize=None)
def _oracle_morphisms(*factors):
    return brute_force_oracle(make_group(factors)).morphisms


def test_reductions_permute_the_cosets_of_the_skew_type():
    """The lemma behind the congruence argument of _lift_cell, checked on
    morphisms found with the cell (enumeration, Z2..Z48) and without it
    (oracle, Z2..Z10): for phi of skew type k on Z_n and a prime p with
    k | d = n/p, the reduction q = phi mod d is well defined, q(k) is a
    multiple of k, and q(c + a) - q(c) lies in <k> for every c and every
    a in <k> of Z_d."""
    oracle = [sm for n in range(2, 11) for sm in _oracle_morphisms(n)]
    found = [sm for n in range(2, 49) for sm in cached_enumeration((n,)).morphisms]
    checked = 0
    for sm in oracle + found:
        n, k = sm.group.order, skew_type(sm)
        for p in factorint(n):
            d = n // p
            if d % k:
                continue
            q = [sm.perm[x] % d for x in range(d)]
            assert all(sm.perm[x] % d == q[x % d] for x in range(n)), sm.perm
            assert q[k % d] % k == 0, (sm.perm, d)
            assert all(
                (q[(c + a) % d] - q[c]) % k == 0 for c in range(d) for a in range(0, d, k)
            ), (sm.perm, d)
            checked += 1
    assert checked == 49 + 2011


def test_phi_shifts_each_kernel_coset_by_a_unit_multiple():
    """The coset writes of the cyclic lifting cell, checked on routes that
    do not use them: phi(x + a) = phi(x) + phi(a) for a in Ker phi = <g>,
    and phi(m*g) = m*t*g with t a unit mod |Ker phi|.  The oracle covers
    Z2..Z10; the closed forms reach Z40 and, for nse, Z_p x Z_p."""
    oracle = (sm for n in range(2, 11) for sm in _oracle_morphisms(n))
    checked = 0
    for sm in (*oracle, *_closed_form_morphisms()):
        perm, add = sm.perm, sm.group.add_table
        members = kernel(sm).members
        assert all(
            perm[add[x][a]] == add[perm[x]][perm[a]]
            for x in range(sm.group.order)
            for a in members
        ), sm.perm
        size, g = len(members), members[1]
        multiples = [0]
        while len(multiples) < size:
            multiples.append(add[multiples[-1]][g])
        assert sorted(multiples) == list(members)  # Ker phi = <g>
        t = multiples.index(perm[g])
        assert gcd(t, size) == 1, sm.perm
        assert [perm[a] for a in multiples] == [multiples[m * t % size] for m in range(size)]
        checked += 1
    assert checked == 43 + 227


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


@pytest.mark.parametrize("factors", [(2, 4), (4, 4), (2, 2, 4), (2, 12)])
def test_subgroup_automorphisms_are_the_additive_bijections(factors):
    group = make_group(factors)
    add = group.add_table
    for sub in enumerate_subgroups(group):
        if sub.size > 8:
            continue
        members = sub.members
        brute = set()
        for rest in permutations(members[1:]):
            image = dict(zip(members, (0,) + rest))
            if all(image[add[a][b]] == add[image[a]][image[b]] for a in members for b in members):
                brute.add(tuple(sorted(image.items())))
        found = [tuple(sorted(theta.items())) for theta in _subgroup_automorphisms(group, sub)]
        assert len(found) == len(set(found))
        assert set(found) == brute, sub.members
