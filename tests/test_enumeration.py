import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import permutations, product, zip_longest
from math import gcd, lcm, prod

import pytest

from skewmorph import enumeration, groups
from skewmorph.constructions import nonsmooth_witness
from skewmorph.enumeration import (
    EnumerationReport,
    _orbit_plan,
    _cyclic_cells,
    _expand,
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
    automorphism_generators,
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
    stabilizer_chain,
    totient,
)
from skewmorph.morphisms import (
    conjugate,
    equivalence_classes,
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
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([20]))
    report = enumerate_skew_morphisms(make_group([20]), max_order=20)
    assert (report.total, report.automorphisms, report.nonsmooth) == (24, 8, 0)


def test_cached_enumeration_shares_one_entry_per_group():
    """Positional, explicit-None and keyword calls hit the same cache entry.
    The first call may also cache the quotients it recurses into, so the
    baseline is taken after it."""
    first = cached_enumeration((2, 3))
    before = cached_enumeration.cache_info()
    assert cached_enumeration((2, 3), None) is first
    assert cached_enumeration([2, 3], max_order=None) is first
    after = cached_enumeration.cache_info()
    assert after.currsize == before.currsize
    assert after.hits - before.hits >= 2


def test_cached_enumeration_and_enumerate_skew_morphisms_read_one_cache():
    """enumerate_skew_morphisms keeps its report where cached_enumeration
    finds it, and the other way round."""
    assert enumerate_skew_morphisms(make_group([12])) is cached_enumeration((12,))
    assert cached_enumeration((2, 4)) is enumerate_skew_morphisms(make_group([2, 4]))


def test_cached_enumeration_keeps_no_group_above_the_subgroup_guard():
    """Like make_group, the cache keeps no report of a group above
    SUBGROUP_GUARD that it is asked for, so a raised guard does not fill
    it with large groups and their tables."""
    order = 257  # a prime, so its search is quick
    assert order > enumeration.SUBGROUP_GUARD
    first = cached_enumeration((order,), order)
    again = cached_enumeration((order,), order)
    assert first is not again
    assert first.total == again.total == order - 1


def test_cached_enumeration_ignores_max_order():
    """The report does not depend on the guard, so one entry serves both calls."""
    assert cached_enumeration((6,)) is cached_enumeration((6,), 81)


def test_guard_is_checked_once_per_enumeration(monkeypatch):
    """A cold enumeration of Z40 recurses into Z20, Z8 and their quotients,
    and checks the guard only for Z40 itself."""
    checked = []
    check = enumeration.check_search_guard
    monkeypatch.setattr(enumeration, "check_search_guard",
                        lambda group, max_order=None: checked.append(group) or check(group, max_order))
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    enumerate_skew_morphisms(make_group([40]))
    assert fresh.cache_info().misses > 0
    assert [group.factors for group in checked] == [(40,)]


def _recursion_targets(group):
    """Every group a search of the group can recurse into, as the search
    builds it: Z_n1, Z_n2 and Z_(n/p) from a one-factor Z_n, and from a
    multi-factor A one group per quotient type of a proper nontrivial
    subgroup, in invariant-factor form (quotient_group's), from the
    per-prime partitions mu <= lambda of A's type."""
    n = group.order
    if len(group.factors) == 1:
        orders = list(coprime_split(n) or ()) + [n // p for p in factorint(n)]
        return [make_group([d] if d > 1 else []) for d in orders]
    lambdas = {}  # prime -> exponents of A's p-part, largest first
    for f in group.factors:
        for p, e in factorint(f).items():
            lambdas.setdefault(p, []).append(e)
    per_prime = []
    for p, lam in lambdas.items():
        lam.sort(reverse=True)
        mus = [mu for mu in product(*(range(e + 1) for e in lam))
               if all(x >= y for x, y in zip(mu, mu[1:]))]
        per_prime.append([[p**e for e in mu] for mu in mus])
    targets = []
    for combo in product(*per_prime):
        # the k-th largest invariant factor takes the k-th largest part of each p-part
        factors = sorted(prod(parts) for parts in zip_longest(*combo, fillvalue=1))
        factors = [f for f in factors if f > 1]
        if 1 < prod(factors) < n:
            targets.append(make_group(factors))
    return targets


@pytest.mark.parametrize("max_order", [None, enumeration.SUBGROUP_GUARD])
def test_admission_lemma(max_order):
    """The lemma of _search_morphisms that lets the recursion skip the
    guard: every group a search of an admitted group recurses into passes
    check_search_guard under the same max_order, and check_expansion_guard,
    as the search reads its morphisms.  Every abelian group up to the
    largest guard is tried, each type in its primary presentation and as
    one cyclic factor, under the live guard constants."""
    top = max(enumeration.CYCLIC_GUARD, enumeration.GENERAL_GUARD, enumeration.SUBGROUP_GUARD)
    admitted = set()
    for n in range(1, top + 1):
        for group in abelian_group_presentations(n) + [make_group([n] if n > 1 else [])]:
            try:
                enumeration.check_search_guard(group, max_order)
            except SizeGuardError:
                continue
            admitted.add(group.factors)
            for target in _recursion_targets(group):
                enumeration.check_search_guard(target, max_order)
                enumeration.check_expansion_guard(target)
    # Z2^5 (9,999,360 automorphisms) is counted, its morphisms are not built,
    # and Z2^6, whose quotient Z2^5 a search would expand, is refused
    assert (2, 2, 2, 4) in admitted and (2, 2, 2, 2, 2) in admitted and (2,) * 6 not in admitted
    with pytest.raises(SizeGuardError, match="automorphism guard"):
        enumeration.check_expansion_guard(make_group([2] * 5))
    assert (enumeration.CYCLIC_GUARD if max_order is None else max_order,) in admitted


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
    perms = [sm.perm for sm in _expand(_search_general(make_group(factors)))]
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


def _with_regions(checks, proj):
    """The region checks of _orbit_plan, in search order, each as (region,
    tests): the region R as a set, K and the cosets of the tests'
    representatives, and the tests."""
    out = []
    for tests in filter(None, checks):
        placed = {proj[0]} | {proj[r] for r, _, _ in tests}
        out.append(({x for x, j in enumerate(proj) if j in placed}, tests))
    return out


def _region_plan(sm):
    """The kernel, the quotient morphism, the order o of sm on the kernel
    and the region checks (_with_regions) that the general search runs for
    sm's own kernel."""
    group = sm.group
    sub = kernel(sm)
    quotient, proj = quotient_group(group, sub)
    coset_elems = [[] for _ in range(quotient.order)]
    for x in range(group.order):
        coset_elems[proj[x]].append(x)
    tau = quotient_skew(sm, sub)
    _, checks = _orbit_plan(group, coset_elems, proj[0], tau)
    return sub, tau, _order_on(sm.perm, sub.members), _with_regions(checks, proj)


def _passes_regions(group, table, tau, o, checks):
    return all(_region_holds(group, table, tests, tau.order, o) for _, tests in checks)


def _assert_region_checks_pass(morphisms):
    """Each morphism survives every tau-orbit prefix of its own table,
    reading only entries inside the region, which it maps into itself.
    Automorphisms are skipped: their kernel is the whole group, so their
    plan has no region check."""
    for sm in morphisms:
        if not sm.is_proper:
            continue
        _, tau, o, checks = _region_plan(sm)
        for region, tests in checks:
            assert all(sm.perm[x] in region for x in region)
            hidden = [sm.perm[x] if x in region else 0 for x in range(len(sm.perm))]
            assert _region_holds(sm.group, hidden, tests, tau.order, o)
            assert _region_holds(sm.group, sm.perm, tests, tau.order, o), sm.perm


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_every_morphism_passes_its_own_region_checks(factors):
    """Completeness of the region check on everything the search finds."""
    _assert_region_checks_pass(cached_enumeration(factors).morphisms)


@pytest.mark.parametrize("factors", [(2, 4), (2, 2, 2), (3, 3)])
def test_oracle_morphisms_pass_their_own_region_checks(factors):
    """The same on morphisms found without the search, so a check that
    drops morphisms cannot hide them from this test."""
    _assert_region_checks_pass(brute_force_oracle(make_group(factors)).morphisms)


def _assert_offset_lemma(morphisms) -> int:
    """The lemma that lets the region check read only the representatives
    (_search_general), on each region of each proper morphism's own plan
    and not through _region_holds: D_r(b + a) = theta(a) + D_r(b) for the
    representative r of every test, every usable b (b and r + b in R) and
    every a in K, theta = phi|K; and |phi_R| = lcm(|theta|, the cycle
    lengths of the representatives), phi_R the table on R and the identity
    off it.  Returns the number of regions checked."""
    checked = 0
    for sm in morphisms:
        if not sm.is_proper:
            continue
        group, phi = sm.group, sm.perm
        add, neg = group.add_table, group.neg_list
        sub, _, o, checks = _region_plan(sm)
        for region, tests in checks:
            for r, _, _ in tests:
                shift = add[neg[phi[r]]]  # D_r(b) = shift[phi[r + b]]
                for b in region:
                    if add[r][b] in region:
                        d = shift[phi[add[r][b]]]
                        assert all(shift[phi[add[add[r][b]][a]]] == add[phi[a]][d] for a in sub.members)
            phi_r = [phi[x] if x in region else x for x in range(group.order)]
            assert perm_order(phi_r) == lcm(o, *(_order_on(phi, [r]) for r, _, _ in tests))
            checked += 1
    return checked


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_region_offset_lemma_on_the_pinned_morphisms(factors):
    """Every group with a proper morphism has a region to check."""
    report = cached_enumeration(factors)
    assert (_assert_offset_lemma(report.morphisms) > 0) == (report.proper > 0)


@pytest.mark.parametrize("factors", [(2, 4), (2, 2, 2), (3, 3)])
def test_region_offset_lemma_on_the_oracle_morphisms(factors):
    """The same on morphisms found without the search."""
    report = brute_force_oracle(make_group(factors))
    assert (_assert_offset_lemma(report.morphisms) > 0) == (report.proper > 0)


def test_closed_form_morphisms_pass_their_own_region_checks():
    """Also without the search: the Z5xZ5 family with r = 4 has the tau-orbits
    {1, 4} and {2, 3}, so its first region holds pairs with r + b outside it."""
    from skewmorph.constructions import nse_construct, nse_params_range

    _assert_region_checks_pass(nse_construct(5, *params) for params in nse_params_range(5))


def _moving_quotients(factors):
    """Each proper morphism whose quotient morphism moves a coset, with its
    region plan and one tau-orbit of length > 1."""
    for sm in cached_enumeration(factors).morphisms:
        sub, tau, o, checks = _region_plan(sm)
        orbit = next((cyc for cyc in cycles(tau.perm) if len(cyc) > 1), None)
        if orbit is not None:
            yield sm, sub, tau, o, checks, orbit


def test_region_check_enforces_the_quotient_power():
    """On the whole group, a power class shifted off pi_tau is rejected."""
    checked = 0
    for factors in ((3, 3), (3, 6)):
        for sm, _, tau, o, checks, _ in _moving_quotients(factors):
            region, tests = checks[-1]
            assert len(region) == len(sm.perm)
            shifted = [(r, (e0 + 1) % tau.order, *picks) for r, e0, *picks in tests]
            assert _region_holds(sm.group, sm.perm, tests, tau.order, o)
            assert not _region_holds(sm.group, sm.perm, shifted, tau.order, o)
            checked += 1
    assert checked == 32


def test_region_check_rejects_swapped_coset_images():
    """Near misses: exchange the images of two cosets in one tau-orbit."""
    group = make_group((3, 3))
    add = group.add_table
    checked = 0
    for sm, sub, tau, o, checks, orbit in _moving_quotients(group.factors):
        _, proj = quotient_group(group, sub)
        r1, r2 = (proj.index(j) for j in orbit[:2])
        swapped = list(sm.perm)
        for a in sub.members:
            swapped[add[a][r1]] = sm.perm[add[a][r2]]
            swapped[add[a][r2]] = sm.perm[add[a][r1]]
        assert _passes_regions(group, sm.perm, tau, o, checks)
        assert try_validate(group, swapped) is None
        assert not _passes_regions(group, swapped, tau, o, checks)
        checked += 1
    assert checked == 16


def _naive_region_holds(group, table, region, tests, tau_order):
    """_region_holds by a scan of exponents over every usable b, not only
    the representatives: the order m of the table on region, found by
    iterating it there, must be below |A|, and each test (r, e0, pairs)
    needs some e = e0 (mod tau_order) below lcm(tau_order, m) with
    table[r + b] - table[r] = phi**e(b) at every b in region with r + b in
    region, iterating phi.  It reads neither the pairs nor |theta|."""
    n = group.order
    m = 1
    for x in region:
        length, y = 1, table[x]
        while y != x:
            length, y = length + 1, table[y]
        m = lcm(m, length)
    if m >= n:
        return False
    for r, e0, _ in tests:
        bs = [b for b in sorted(region) if group.add(r, b) in region]
        target = [group.sub(table[group.add(r, b)], table[r]) for b in bs]
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
    additive bijection theta of K, placed on K itself, and a random image
    for each nonzero coset representative r in the coset tau(r mod K), the
    rest of the coset placed by the kernel, phi(a + r) = theta(a) + phi(r).
    Yields (table, tau, |theta|, region checks (_with_regions))."""
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
            regions = _with_regions(checks, proj)
            for _ in range(3):
                theta = rng.choice(thetas)
                table = list(range(n))
                for a in sub.members:
                    table[a] = theta[a]
                for j in order:
                    y = rng.choice(coset_elems[tau.perm[j]])
                    for a in sub.members:
                        table[add[a][coset_elems[j][0]]] = add[theta[a]][y]
                yield table, tau, _order_on(table, sub.members), regions


# (seeded tables, region checks passed, refused) of _seeded_tables(group, random.Random(2207))
SEEDED_REGIONS = {(3, 3): (24, 26, 10), (3, 6): (267, 200, 535), (2, 2, 4): (963, 1243, 1619)}


@pytest.mark.parametrize("factors", list(SEEDED_REGIONS))
def test_region_check_equals_a_naive_exponent_scan(factors):
    """The CRT merge over the cycles of the representatives decides the
    same as trying every exponent e = e0 (mod |tau|) below lcm(|tau|,
    |phi|R|) at every usable b, on each find's own plan and on seeded
    tables, which the search could build: theta on K and every coset
    placed by the kernel.  The builder's counts are pinned
    (SEEDED_REGIONS), so both verdicts are seen where the tables are not
    skew morphisms."""
    group = make_group(factors)
    finds = [sm for sm in cached_enumeration(factors).morphisms if sm.is_proper]
    plans = [(sm.perm, *_region_plan(sm)[1:]) for sm in finds]
    verdicts = {True: 0, False: 0}
    for table, tau, o, checks in plans:
        for region, tests in checks:
            assert _region_holds(group, table, tests, tau.order, o)
            assert _naive_region_holds(group, table, region, tests, tau.order)
    tables = list(_seeded_tables(group, random.Random(2207)))
    for table, tau, o, checks in tables:
        for region, tests in checks:
            verdict = _region_holds(group, table, tests, tau.order, o)
            assert verdict == _naive_region_holds(group, table, region, tests, tau.order)
            verdicts[verdict] += 1
    assert (len(tables), verdicts[True], verdicts[False]) == SEEDED_REGIONS[factors]


def test_region_check_refuses_a_region_of_order_at_least_the_group_order():
    """Every skew morphism of A has order at most |A| - 1, and so has its
    table on a phi-closed region.  On Z2xZ8 with K of order 2 and theta the
    identity, a kernel-placed table that cycles the nonzero cosets in a
    3-cycle and a 4-cycle has order lcm(3, 4) = 12 when its images close the
    4-cycle of cosets on itself, and lcm(3, 8) = 24 >= 16 when they close it
    one kernel element on.  With tests that hold no pair the check reads
    only the cycles of the representatives: the first table passes and the
    second is refused."""
    group = make_group((2, 8))
    n, add = group.order, group.add_table
    sub = next(sub for sub in enumerate_subgroups(group) if sub.size == 2)
    k = sub.members[1]
    _, proj = quotient_group(group, sub)
    reps = [min(x for x in range(n) if proj[x] == j) for j in range(1, 8)]
    images = reps[1:3] + reps[:1] + reps[4:7] + reps[3:4]  # cosets (1 2 3)(4 5 6 7)
    tests = [(r, 1, ()) for r in reps]
    for twist, (order, holds) in ((0, (12, True)), (k, (24, False))):
        table = list(range(n))
        for r, y in zip(reps, images[:-1] + [add[images[-1]][twist]]):
            for a in sub.members:
                table[add[a][r]] = add[a][y]
        assert all(table[add[a][x]] == add[a][table[x]] for a in sub.members for x in range(n))
        assert perm_order(table) == order
        assert _region_holds(group, table, tests, 1, 1) is holds
        assert _naive_region_holds(group, table, set(range(n)), [], 1) is holds


@pytest.mark.parametrize("n", [8, 9, 12, 15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32, 36])
def test_cyclic_route_equals_general_route(n):
    """Z_n on the cyclic route equals its primary split on the general route,
    or, for a prime power, which has no split, Z_n itself on the general
    route (_search_general takes a one-factor group as it stands).

    Z15 takes the coprime decomposition; the others run the pruned lifting
    cells, including cells with k equal to the quotient order, which the
    unit-conjugation orbit cut shrinks most on Z30 (Z2xZ3xZ5) and Z36
    (Z4xZ9).  Z36 is above GENERAL_GUARD, so the guard is set to n.
    """
    cyclic = make_group([n])
    split, _, back = primary_split(cyclic)
    if len(split.factors) > 1:
        general = cached_enumeration(split.factors, n).morphisms
        carried = {relabel(sm, back, cyclic).perm for sm in general}
    else:
        carried = {sm.perm for sm in _expand(_search_general(cyclic))}
    assert carried == {sm.perm for sm in cached_enumeration((n,)).morphisms}


def test_odd_prime_powers_match_the_kovacs_nedela_count():
    """The skew morphisms of Z_(p^e), p an odd prime, number (p - 1)(p^(2e-1)
    - p^(2e-2) + 2)/(p + 1) (Kovacs and Nedela, Skew-morphisms of cyclic
    p-groups, J. Group Theory 20 (2017)).  A cross-check of the cyclic
    route on all 26 odd prime powers up to 81, past the cyclic guard, not a
    pruning rule: no search reads the formula."""
    powers = [n for n in range(3, 82) if len(factorint(n)) == 1 and n % 2]
    assert len(powers) == 26
    for n in powers:
        [(p, e)] = factorint(n).items()
        count = (p - 1) * (p ** (2 * e - 1) - p ** (2 * e - 2) + 2) // (p + 1)
        assert cached_enumeration((n,), 81).total == count, n


def test_a_route_yielding_a_morphism_twice_fails_loudly(monkeypatch):
    """enumerate_skew_morphisms passes the search's finds straight through,
    so a duplicate is an error, not silently merged."""
    group = make_group([6])
    found = list(enumeration._search_morphisms(group))
    monkeypatch.setattr(enumeration, "_search_morphisms", lambda g, m=None: iter(found + found[:1]))
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
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
    "n,tables,conjugates,unexpanded",
    [(30, 17, (12, 0, 5), (0, 0, 0)), (36, 23, (37, 0, 0), (1, 0, 0)), (39, 1, (0, 12, 11), (0, 0, 0))],
    ids=["Z30", "Z36", "Z39"],
)
def test_cyclic_search_revalidates_a_pinned_number_of_tables(monkeypatch, n, tables, conjugates, unexpanded):
    """Pins how hard the lifting cells prune: a cold enumeration, quotients
    and decomposed products included, revalidates exactly this many
    completed tables and expands exactly this many finds by unit
    conjugation, onto another quotient morphism of the class of the cell's
    q, onto another web solution of the cell and onto another phi(1) under
    the same solution, in that order.  A conjugate is sorted by whether it
    changes the reduction mod d = n/p, p the prime its skew type k is
    designated to (_cyclic_cells), and if not, by whether it changes the
    coset powers power[:k], so a check that stops firing, or a cut that
    stops expanding, shows at its own level and not only as lost time or
    lost morphisms.  The automorphisms are listed, not
    searched, so no cell has skew type 1.  A fresh cache per n makes the
    counts independent of test order.  The counts of the report are read
    first: the same tables are validated, and the only conjugates then are
    the leaves of quotients that the recursion moves onto the least perm of
    their unit class (_unit_classes), as it expands no quotient report
    (unexpanded); reading the morphisms expands the group's own finds."""
    calls = []
    expanded = [0, 0, 0]
    cell_types = set()
    lift_cell = enumeration._lift_cell

    def cell(group, q, k, L, solutions, fixing):
        cell_types.add(k)
        return lift_cell(group, q, k, L, solutions, fixing)

    def counted(group, table):
        calls.append(table)
        return try_validate(group, table)

    def transported(sm, iso, target):
        psi = relabel(sm, iso, target)
        m = target.order
        k = skew_type(sm)
        d = m // min(factorint(m // k))
        if any(psi.perm[x] % d != sm.perm[x] % d for x in range(d)):
            expanded[0] += 1
        else:
            expanded[1 + (psi.power[:k] == sm.power[:k])] += 1
        return psi

    monkeypatch.setattr(enumeration, "try_validate", counted)
    monkeypatch.setattr(enumeration, "relabel", transported)
    monkeypatch.setattr(enumeration, "_lift_cell", cell)
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    report = enumerate_skew_morphisms(make_group([n]))
    assert (len(calls), tuple(expanded)) == (tables, unexpanded)
    report.morphisms
    assert (len(calls), tuple(expanded)) == (tables, conjugates)
    assert cell_types and 1 not in cell_types


@pytest.mark.parametrize(
    "factors,tables,conjugates,regions,unexpanded",
    [
        ((2, 2, 4), 130, (42, 48, 8), 592, (2, 2, 2)),
        ((5, 5), 32, (240, 0, 36), 761, (0, 0, 0)),
        ((3, 6), 39, (24, 22, 12), 277, (12, 0, 2)),
    ],
    ids=["Z2xZ2xZ4", "Z5xZ5", "Z3xZ6"],
)
def test_general_search_revalidates_a_pinned_number_of_tables(
    monkeypatch, factors, tables, conjugates, regions, unexpanded
):
    """Pins how hard the general route prunes: a cold enumeration, quotients
    included, revalidates exactly this many completed tables, runs exactly
    this many region checks, and conjugates exactly this many finds onto
    another kernel of the kernel's Aut(A)-orbit, onto another (tau, theta)
    pair of the kernel's stabilizer orbit, and onto another image at some
    placed coset of the pair (the stabilizer chain), in that order.  Each
    conjugate is sorted by what it changes, so a cut that stops expanding
    shows here and not only as lost time.  A fresh cache makes the counts
    independent of test order.  The report's counts are read first: every
    table and region check is already done then, and the conjugates are the
    expanded quotients' alone (unexpanded); reading the morphisms expands the
    rest."""
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
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    report = enumerate_skew_morphisms(make_group(factors))
    assert (len(calls), tuple(expanded), checked[0]) == (tables, unexpanded, regions)
    report.morphisms
    assert (len(calls), tuple(expanded), checked[0]) == (tables, conjugates, regions)


# the groups the count path is gated on: every pinned group, and every
# abelian group of order <= 20 as abelian_group_presentations writes it
COUNT_GATE = sorted(
    {(n,) for n in CYCLIC_PINS}
    | set(NONCYCLIC_PINS)
    | {g.factors for order in range(1, 21) for g in abelian_group_presentations(order)}
)


@pytest.mark.parametrize("factors", COUNT_GATE, ids=lambda f: "x".join(f"Z{x}" for x in f) or "Z1")
def test_counts_equal_the_expanded_morphisms(monkeypatch, factors):
    """A report counts its morphisms from the validated leaves of its
    search times the orbit sizes above them, and builds them only when they
    are read.  From a fresh cache, the five counts read before the
    morphisms equal the counts of the expanded set, and the expansion keeps
    every pinned digest."""
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    report = cached_enumeration(factors)
    counts = (report.total, report.automorphisms, report.proper, report.smooth, report.nonsmooth)
    morphisms = report.morphisms
    autos = sum(sm.is_automorphism for sm in morphisms)
    smooth = sum(is_smooth(sm) for sm in morphisms)
    total = len({sm.perm for sm in morphisms})
    assert counts == (total, autos, total - autos, smooth, total - smooth)
    pins = {**{(n,): pin for n, pin in CYCLIC_PINS.items()}, **NONCYCLIC_PINS}
    if factors in pins:
        assert _pin(report) == pins[factors]


@pytest.mark.parametrize("factors,counts", [((5, 5), (768, 480, 288)), ((36,), (60, 12, 32))])
def test_counts_build_no_top_level_conjugate(monkeypatch, factors, counts):
    """Reading only the counts of Z5xZ5 and Z36 builds no conjugate of a
    morphism of the group itself (the general route reads its quotients'
    reports as morphisms, so Z5xZ5's quotients' conjugates are built; the
    cyclic route reads its quotients' finds and builds at most a leaf's
    move onto the least perm of its class); reading the morphisms then
    builds them, which shows that the sentinel is live."""
    for name in ("conjugate", "_by_unit"):
        transport = getattr(enumeration, name)

        def refuse(sm, sigma, transport=transport):
            if sm.group.factors == factors:
                raise AssertionError(f"top-level transport of {sm.group.label}")
            return transport(sm, sigma)

        monkeypatch.setattr(enumeration, name, refuse)
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    report = enumerate_skew_morphisms(make_group(factors))
    assert (report.total, report.automorphisms, report.nonsmooth) == counts
    with pytest.raises(AssertionError, match="top-level transport"):
        report.morphisms


@pytest.mark.parametrize("fault", ["repeated", "corrupted"])
@pytest.mark.parametrize("name,factors", [("_by_unit", (36,)), ("conjugate", (5, 5))])
def test_a_faulty_transport_fails_when_the_morphisms_are_read(monkeypatch, fault, name, factors):
    """The counts never build a transport, so a transport that breaks its
    lemma shows when the morphisms are built: one that returns its find
    unchanged (a repeated table), or one whose result claims power 1
    everywhere (a corrupted table, an automorphism too many), makes
    reading the morphisms raise, after the counts were returned."""
    transport = getattr(enumeration, name)

    def faulty(sm, sigma):
        psi = transport(sm, sigma)
        if sm.group.factors != factors:
            return psi
        if fault == "repeated":
            return sm
        return dataclasses.replace(psi, power=(1 % psi.order,) * len(psi.power))

    monkeypatch.setattr(enumeration, name, faulty)
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    report = enumerate_skew_morphisms(make_group(factors))
    assert report.total == {(36,): 60, (5, 5): 768}[factors]
    match = "twice" if fault == "repeated" else "expanded"
    with pytest.raises(AssertionError, match=match):
        report.morphisms


@pytest.mark.parametrize("factors", [(2, 4), (3, 3), (2, 6)])
def test_a_short_automorphism_list_fails_the_count(monkeypatch, factors):
    """The automorphisms are counted, not validated one by one, on the
    count path: a stabilizer chain built from automorphism_generators
    stops at |Aut(A)| (automorphism_count, Hillar-Rhea), and generators
    that fall short of it fail at once, before any morphism is read.
    Without its last generator, a transvection, the set of each of these
    groups generates a proper subgroup (the transvections of Z2^3 would
    still generate it all)."""
    monkeypatch.setattr(groups, "automorphism_generators", lambda group: automorphism_generators(group)[:-1])
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    with pytest.raises(AssertionError, match="the generators reach a group of order"):
        enumerate_skew_morphisms(make_group(factors))


def test_z2_to_the_fifth_is_counted_not_expanded():
    """Z2^5 has 9,999,360 automorphisms and no other skew morphism: the
    count path counts them from the chain's order, and reading the
    morphisms, which would build each, is refused by the expansion guard."""
    report = enumerate_skew_morphisms(make_group([2] * 5))
    assert (report.total, report.automorphisms, report.nonsmooth) == (9999360, 9999360, 0)
    with pytest.raises(SizeGuardError, match="automorphism guard"):
        report.morphisms


@pytest.mark.parametrize("factors", sorted(NONCYCLIC_PINS))
def test_every_cut_of_the_general_search_meets_orbit_stabilizer(monkeypatch, factors):
    """At every level of _search_general, kernel, tau, theta, coset and
    image, the acting group that the cut is handed has the order it is
    said to have, and its orbit size times the order of the stabilizer it
    returns is that order: each checked by a full Schreier-Sims run on the
    sigmas and on the stabilizer's generators (groups.stabilizer_chain,
    no order given).  The cyclic route's unit lists are left out."""
    checked = []

    @lru_cache(maxsize=None)
    def group_order(sigmas):
        return stabilizer_chain(sigmas, len(next(iter(sigmas)))).order if sigmas else 1

    def checked_orbit(x, sigmas, order, act):
        moves, stab = orbit(x, sigmas, order, act)
        if sigmas and isinstance(sigmas[0], tuple):
            assert group_order(frozenset(sigmas)) == order
            assert (1 + len(moves)) * group_order(frozenset(stab())) == order
            checked.append(order)
        return moves, stab

    orbit = groups._orbit
    monkeypatch.setattr(groups, "_orbit", checked_orbit)
    monkeypatch.setattr(enumeration, "_orbit", checked_orbit)
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    enumerate_skew_morphisms(make_group(factors))
    assert checked


def test_a_miscounted_unit_list_fails_the_count(monkeypatch):
    """The same check on the cyclic route, whose units of Z_n must number
    totient(n) (automorphism_count of Z_n): an expected count off by one
    fails at once."""
    monkeypatch.setattr(enumeration, "automorphism_count", lambda group: totient(group.order) + 1)
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    with pytest.raises(AssertionError, match="automorphisms listed"):
        enumerate_skew_morphisms(make_group([9]))


@pytest.mark.parametrize("n", sorted(CYCLIC_PINS))
def test_order_divides_n_times_totient(n):
    """The Kovacs-Nedela order bound that _search_cyclic skips cells by."""
    assert all(n * totient(n) % sm.order == 0 for sm in cached_enumeration((n,)).morphisms)


def test_unit_conjugation_preserves_the_lifting_cell():
    """The lemma behind the orbit cut of _lift_cell, checked on every
    enumerated morphism and not through the cell's code: for phi of skew
    type k with phi(k) = t*k and any unit u = 1 (mod k), psi = u.phi.u^-1
    is enumerated, has phi's order, skew type and reduction mod k, and
    psi(1) - t = u*(phi(1) - t).  The cut uses the units u = 1 (mod k)
    whose reduction mod the quotient order d fixes the cell's quotient
    morphism q, so they are among these."""
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


def test_unit_conjugation_moves_the_quotient_morphism():
    """The lemma behind the quotient-level cut of _search_cyclic, checked on
    every enumerated morphism of Z2..Z40 and not through the search's code:
    for phi of skew type k with phi(k) = t*k, every unit u and each prime p
    with k | d = n/p, d > 1, so that phi reduces mod d to a skew morphism q
    of Z_d, psi = u.phi.u^-1 is enumerated, has phi's order, skew type and
    seed t, and reduces mod d to u q u^-1, with u read mod d."""
    checked = 0
    for n in range(2, 41):
        by_perm = {sm.perm: sm for sm in cached_enumeration((n,)).morphisms}
        for sm in by_perm.values():
            k = skew_type(sm)
            phi = sm.perm
            for u in range(1, n):
                if gcd(u, n) != 1:
                    continue
                back = pow(u, -1, n)
                perm = tuple(u * phi[back * x % n] % n for x in range(n))
                assert perm in by_perm, (phi, u)
                psi = by_perm[perm]
                assert (psi.order, skew_type(psi), perm[k]) == (sm.order, k, phi[k])
                for p in factorint(n):
                    d = n // p
                    if d == 1 or d % k:
                        continue
                    q = [phi[x] % d for x in range(d)]
                    assert all(phi[x] % d == q[x % d] for x in range(n))
                    moved = [u * q[back * x % d] % d for x in range(d)]
                    assert all(perm[x] % d == moved[x % d] for x in range(n)), (phi, u, d)
                    checked += 1
    assert checked == 16700


def test_unit_conjugation_moves_the_web_solution():
    """The lemma behind the web-solution cut of _lift_cell, checked on every
    enumerated proper morphism of Z2..Z40 and not through the cell's code:
    for phi of skew type k, d = n/p with p the least prime of n/k (the
    prime k is designated to), q = phi mod d, and every unit u with u q
    u^-1 = q on Z_d, psi = u.phi.u^-1 is enumerated, has phi's order, skew
    type and seed phi(k), and moves the coset powers, psi.power[j] =
    phi.power[u^-1 j mod k] for j < k; these change exactly when u != 1
    (mod k), as the k coset powers are pairwise distinct."""
    pairs = moved = 0
    for n in range(2, 41):
        by_perm = {sm.perm: sm for sm in cached_enumeration((n,)).morphisms}
        for sm in by_perm.values():
            k = skew_type(sm)
            if k == 1:
                continue
            phi = sm.perm
            d = n // min(factorint(n // k))
            q = [phi[x] % d for x in range(d)]
            for u in range(1, n):
                if gcd(u, n) != 1 or any(u * q[pow(u, -1, d) * x % d] % d != q[x] for x in range(d)):
                    continue
                back = pow(u, -1, n)
                perm = tuple(u * phi[back * x % n] % n for x in range(n))
                assert perm in by_perm, (phi, u)
                psi = by_perm[perm]
                assert (psi.order, skew_type(psi), perm[k]) == (sm.order, k, phi[k])
                assert all(psi.power[j] == sm.power[back * j % k] for j in range(k))
                assert (psi.power[:k] == sm.power[:k]) == (u % k == 1), (phi, u)
                pairs += 1
                moved += u % k != 1
    assert (pairs, moved) == (4634, 1592)


def test_cyclic_search_walks_one_leaf_per_class(monkeypatch):
    """The chain of unit cuts in _search_cyclic is tight: on every Z_n, n
    <= 64, with no coprime split, the validated tables among a report's
    finds, its leaves, number exactly the Aut(Z_n)-conjugacy classes of its
    proper morphisms (morphisms.equivalence_classes), 305 in all.  A cut
    that lost a level would walk more leaves than classes; one that cut
    too hard would lose morphisms, which the pinned digests catch."""
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)

    def leaves(found) -> int:
        return sum(
            leaves(item.finds) if isinstance(item, enumeration._Orbit) else not isinstance(item, enumeration._Listed)
            for item in found
        )

    walked = classes = 0
    for n in range(2, 65):
        if coprime_split(n) is not None:
            continue
        report = cached_enumeration((n,))
        proper = [sm for sm in report.morphisms if not sm.is_automorphism]
        walked += leaves(report.found)
        classes += len(equivalence_classes(proper))
        assert walked == classes, n
    assert (walked, classes) == (305, 305)


def test_quotient_classes_are_the_least_perm_of_each_class():
    """The quotient morphisms that _cyclic_cells reads for Z_d
    (_unit_classes, from the report's finds) are, for every d in 2..64,
    split or not, exactly the least perm of each class that
    morphisms.equivalence_classes finds among the expanded morphisms of
    Z_d, each with the order and power of the expanded morphism of that
    perm.  And the skew type _cyclic_cells reads off the powers, d over
    the number of powers 1, is skew_type on every morphism of Z2..Z64."""
    for d in range(2, 65):
        morphisms = cached_enumeration((d,)).morphisms
        by_perm = {sm.perm: sm for sm in morphisms}
        least = sorted(min(sm.perm for sm in cls) for cls in equivalence_classes(morphisms))
        read = enumeration._unit_classes(d)
        assert [sm.perm for sm in read] == least, d
        assert all((sm.order, sm.power) == (by_perm[sm.perm].order, by_perm[sm.perm].power) for sm in read), d
        assert all(d // sm.power.count(1 % sm.order) == skew_type(sm) for sm in morphisms), d


def test_cyclic_counts_expand_no_quotient(monkeypatch):
    """The cyclic recursion reads its quotients' finds, one morphism per
    unit class, and expands no report: counting Z36, Z72 and Z100 from a
    fresh cache calls _expand on nothing, and none of the groups reached
    takes the coprime split, which reads its factors' morphisms.  Reading
    Z36's morphisms then expands its finds, which shows the sentinel is
    live."""
    expanded = []
    expand = enumeration._expand

    def recorded(found):
        expanded.append(found)
        return expand(found)

    reached = []

    def search(factors):
        reached.append(factors)
        return enumeration._search_report(factors)

    monkeypatch.setattr(enumeration, "_expand", recorded)
    monkeypatch.setattr(enumeration, "_cached_search", lru_cache(maxsize=None)(search))
    counts = [enumerate_skew_morphisms(make_group([n]), max_order=100).total for n in (36, 72, 100)]
    assert counts == [60, 180, 552] and expanded == []
    assert all(coprime_split(n) is None for n, in reached), reached
    report = enumerate_skew_morphisms(make_group([36]))
    report.morphisms
    assert expanded and expanded[0] is report.found


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
        assert _powers_fit(group.order - 1, tau.power[1:], tau.order, o), sm.perm
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
    """_power_web is exact, and _search_cyclic refuses only empty webs.  On
    every cell (q, k, L) that the search would consider (_cyclic_cells) for
    Z2..Z40 with q over all the morphisms of Z_d, not one per unit class
    (_unit_classes), a scan keeps the cvals with cvals[0] = 1, each
    cvals[j] in q's power class at j mod |q| within [0, L), and distinct
    values, where svals is the running sum of the slots' powers, svals[L]
    = 0 and cvals[j + 1] = svals[cvals[j]] for every j, indices mod k.
    Where the scan has at most 20,000 candidates, it keeps what _power_web
    returns on a cell the capacity rule admits and nothing on a cell it
    refuses.  The search
    opens exactly the admitted cells whose web has a solution and whose q
    is the first point of its class under the units of Z_d, the least of
    the perms u q u^-1, and hands each the web built from its own q,
    though it solves each web once per signature; _cyclic_cells lists
    exactly the cells of those first points.  Table walk and revalidation
    hide a web that keeps too much, so the web is checked on its own."""
    opened = {}
    lift_cell = enumeration._lift_cell

    def cell(group, q, k, L, solutions, fixing):
        opened[q.perm, k, L] = solutions
        return lift_cell(group, q, k, L, solutions, fixing)

    def first_of_class(perm):
        d = len(perm)
        units = [u for u in range(1, d) if gcd(u, d) == 1]
        return perm == min(tuple(u * perm[pow(u, -1, d) * x % d] % d for x in range(d)) for u in units)

    monkeypatch.setattr(enumeration, "_lift_cell", cell)
    considered = {}
    for n in range(2, 41):
        list(_search_cyclic(make_group([n])))
        if coprime_split(n) is None:
            listed = {(q.perm, k, L) for q, k, L in _cyclic_cells(n)}
            with monkeypatch.context() as every_q:
                every_q.setattr(enumeration, "_unit_classes", lambda d: cached_enumeration((d,)).morphisms)
                cells_of_n = {(q.perm, k, L): q for q, k, L in _cyclic_cells(n)}
            assert listed == {key for key in cells_of_n if first_of_class(key[0])}, n
            considered.update(cells_of_n)
    # cells and scanned cells, by whether the capacity rule admits them
    cells = {True: 0, False: 0}
    scanned = {True: 0, False: 0}
    solutions = 0
    for key, q in considered.items():
        _, k, L = key
        fits = _powers_fit(L, q.power[1:k], q.order, 1)
        word = tuple(perm_power(q.perm, i)[1] % k for i in range(q.order))
        web = _power_web(word, q.power[:k], q.order, k, L) if fits else []
        assert opened.get(key, web) == web and (key in opened) == (bool(web) and first_of_class(q.perm)), key
        cells[fits] += 1
        classes = [range(q.power[j], L, q.order) for j in range(1, k)]
        if prod(map(len, classes)) > 20_000:
            continue
        expected = _power_web_by_scan(q, k, L, classes)
        assert sorted(web) == expected, key
        scanned[fits] += 1
        solutions += len(expected)
    assert (cells[True], cells[False], len(opened)) == (305, 830, 126)
    assert (scanned[True], scanned[False], solutions) == (303, 698, 346)


def test_power_web_pins_every_web_to_64(monkeypatch):
    """Every power web that the search solves for Z2..Z64, up to the
    default cyclic guard, with its solutions: 247 signatures and 382
    solutions, and a sha256 over repr((args, sorted(solutions))) in sorted
    args order.  The scan test above reaches only the webs of Z2..Z40 that
    it can scan.  Each web also meets the period-sum lemma of _power_web:
    q's powers summed over one period of word are 0 mod m."""
    fresh = lru_cache(maxsize=None)(enumeration._cached_search.__wrapped__)
    monkeypatch.setattr(enumeration, "_cached_search", fresh)
    webs = {}
    power_web = enumeration._power_web

    def recorded(*args):
        solutions = power_web(*args)
        webs[args] = sorted(solutions)
        return solutions

    monkeypatch.setattr(enumeration, "_power_web", recorded)
    for n in range(2, 65):
        cached_enumeration((n,))
    digest = hashlib.sha256()
    for args in sorted(webs):
        digest.update(repr((args, webs[args])).encode())
    assert (len(webs), sum(map(len, webs.values()))) == (247, 382)
    assert digest.hexdigest() == "0152c8c7c2d73d06915fea216621b20d2d6d455a57f95d7be448bfddb5884799"
    for word, powers, m, _, _ in webs:
        assert sum(powers[j] for j in word) % m == 0, (word, powers, m)


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
