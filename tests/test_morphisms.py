import random
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from skewmorph.groups import (
    Automorphism,
    enumerate_automorphisms,
    make_group,
    perm_order,
    subgroup_generated_by,
    totient,
)
from skewmorph.morphisms import (
    SkewMorphismRejection,
    as_skew_morphism,
    conjugate,
    core,
    core_of_translations,
    equivalence_classes,
    identity_morphism,
    is_corefree_cyclic_part,
    is_reciprocal_pair,
    is_smooth,
    kernel,
    quotient_skew,
    skew_product_group,
    skew_type,
    try_validate,
    validate,
)

Z6 = make_group([6])
Z9 = make_group([9])

PNS9_TABLE = tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9))
CSM6_TABLE = (0, 3, 2, 5, 4, 1)


@pytest.fixture(scope="module")
def pns9():
    return validate(Z9, PNS9_TABLE)


@pytest.fixture(scope="module")
def csm6():
    return validate(Z6, CSM6_TABLE)


def test_identity_is_a_skew_morphism():
    sm = validate(Z6, tuple(range(6)))
    assert sm.order == 1
    assert sm.power == (0,) * 6
    assert sm.is_automorphism


def test_pns9_matches_closed_forms(pns9):
    assert pns9.order == 6
    assert pns9.power == tuple((1 - 2 * x) % 6 for x in range(9))
    assert not is_smooth(pns9)
    assert kernel(pns9).members == (0, 3, 6)
    assert core(pns9).members == (0, 3, 6)
    assert skew_type(pns9) == 3


def test_validate_rejects_swap():
    with pytest.raises(SkewMorphismRejection) as err:
        validate(make_group([4]), (0, 1, 3, 2))
    assert err.value.reason == "no-power"
    assert err.value.element == 1
    assert err.value.witness == 1


def test_validate_rejects_moved_identity_and_non_bijection():
    with pytest.raises(SkewMorphismRejection) as err:
        validate(Z6, (1, 0, 2, 3, 4, 5))
    assert err.value.reason == "identity-moved"
    with pytest.raises(SkewMorphismRejection) as err:
        validate(Z6, (0, 0, 2, 3, 4, 5))
    assert err.value.reason == "not-bijection"


def test_defining_identity_holds_pointwise(pns9, csm6):
    for sm in (pns9, csm6):
        g = sm.group
        for a in range(g.order):
            pw = sm.power_tables[sm.power[a]]
            for b in range(g.order):
                assert sm.perm[g.add(a, b)] == g.add(sm.perm[a], pw[b])


def test_power_at_identity_is_one(pns9, csm6):
    for sm in (pns9, csm6):
        assert sm.power[0] == 1 % sm.order


def test_csm6_invariants(csm6):
    assert csm6.order == 3
    assert is_smooth(csm6)
    assert csm6.power == tuple(pow(2, x, 3) for x in range(6))
    assert kernel(csm6).members == (0, 2, 4)
    assert skew_type(csm6) == 2


def test_smoothness_constant_on_cycles(pns9, csm6):
    from skewmorph.groups import cycles

    for sm in (pns9, csm6):
        expected = all(
            len({sm.power[x] for x in cyc}) == 1 for cyc in cycles(sm.perm)
        )
        assert is_smooth(sm) == expected


def test_automorphisms_are_smooth_with_full_kernel():
    for theta in enumerate_automorphisms(Z6):
        sm = validate(Z6, theta.table)
        assert sm.is_automorphism
        assert is_smooth(sm)
        assert kernel(sm).size == 6
        assert skew_type(sm) == 1


def test_skew_product_group_orders(pns9):
    ident = identity_morphism(Z6)
    spg = skew_product_group(ident)
    assert spg.order == 6
    spg9 = skew_product_group(pns9)
    assert spg9.order == 54
    spg9.verify_closure()
    five = validate(Z6, tuple((5 * x) % 6 for x in range(6)))
    assert skew_product_group(five).order == 12


def test_skew_product_inverses(pns9):
    spg = skew_product_group(pns9)
    for pair in spg.pairs:
        inv = spg.inverse_pair(pair)
        assert spg.compose_pairs(pair, inv) == (0, 0)
        assert spg.compose_pairs(inv, pair) == (0, 0)


def test_core_of_translations(pns9):
    ident = identity_morphism(Z6)
    spg = skew_product_group(ident)
    assert core_of_translations(spg).members == tuple(range(6))
    assert is_corefree_cyclic_part(spg)
    spg9 = skew_product_group(pns9)
    assert core_of_translations(spg9).members == (0, 3, 6)
    assert is_corefree_cyclic_part(spg9)


def test_quotient_skew_edge_cases(pns9):
    same = quotient_skew(pns9, subgroup_generated_by(Z9, []))
    assert same.perm == pns9.perm
    trivial = quotient_skew(pns9, subgroup_generated_by(Z9, [1]))
    assert trivial.group.order == 1
    q = quotient_skew(pns9, subgroup_generated_by(Z9, [3]))
    assert q.group.factors == (3,)
    assert q.perm == (0, 2, 1)
    assert q.is_automorphism


def test_quotient_skew_rejects_non_invariant_partition():
    five = validate(Z6, tuple((5 * x) % 6 for x in range(6)))
    sub = subgroup_generated_by(Z6, [3])
    quotient_skew(five, sub)  # negation respects every subgroup
    csm = validate(Z6, CSM6_TABLE)
    with pytest.raises(SkewMorphismRejection) as err:
        quotient_skew(csm, sub)  # cosets of {0,3} are shuffled by the orbit (1 3 5)
    assert err.value.reason == "coset-partition"


def test_conjugate_by_identity(pns9):
    ident = Automorphism(Z9, tuple(range(9)))
    assert conjugate(pns9, ident).perm == pns9.perm


def test_conjugate_pns9_by_doubling(pns9):
    theta = Automorphism(Z9, tuple((2 * x) % 9 for x in range(9)))
    conj = conjugate(pns9, theta)
    # direct transport of the table through x -> 2x
    inv = tuple((5 * x) % 9 for x in range(9))
    expected = tuple(theta.table[pns9.perm[inv[x]]] for x in range(9))
    assert conj.perm == expected
    assert conj.order == pns9.order
    assert skew_type(conj) == skew_type(pns9)
    assert is_smooth(conj) == is_smooth(pns9)
    assert kernel(conj).size == kernel(pns9).size


@given(st.sampled_from(enumerate_automorphisms(Z9)))
@settings(max_examples=6, deadline=None)
def test_conjugation_preserves_invariants(theta):
    sm = validate(Z9, PNS9_TABLE)
    conj = conjugate(sm, theta)
    assert conj.order == sm.order
    assert is_smooth(conj) == is_smooth(sm)
    assert skew_type(conj) == skew_type(sm)


def test_conjugate_refuses_an_automorphism_of_another_group(pns9):
    with pytest.raises(ValueError, match="different group"):
        conjugate(pns9, Automorphism(Z6, tuple(range(6))))


def test_equivalence_classes_of_nothing_and_of_two_groups(pns9, csm6):
    assert equivalence_classes([]) == []
    with pytest.raises(ValueError, match="different groups"):
        equivalence_classes([pns9, csm6])


def test_equivalence_classes_on_nse_outputs():
    from skewmorph.constructions import nse_construct, nse_params_range

    morphs = [nse_construct(3, d, nu, r) for (d, nu, r) in nse_params_range(3)]
    classes = equivalence_classes(morphs)
    assert [len(c) for c in classes] == [4]  # one conjugation orbit


def test_reciprocal_identity_pairs():
    for m, n in ((1, 1), (3, 5), (4, 6)):
        a = identity_morphism(make_group([m] if m > 1 else []))
        b = identity_morphism(make_group([n] if n > 1 else []))
        assert is_reciprocal_pair(a, b)


def test_reciprocal_unique_pair_for_z3():
    from skewmorph.enumeration import brute_force_oracle

    morphs = brute_force_oracle(make_group([3])).morphisms
    hits = [
        (a.perm, b.perm)
        for a in morphs
        for b in morphs
        if is_reciprocal_pair(a, b)
    ]
    assert len(hits) == 1
    assert hits[0] == (tuple(range(3)), tuple(range(3)))


def test_reciprocal_fails_for_pns_pair(pns9):
    assert not is_reciprocal_pair(pns9, pns9)  # 6 does not divide 9


def test_reciprocal_requires_cyclic_groups(pns9):
    other = identity_morphism(make_group([2, 2]))
    with pytest.raises(ValueError):
        is_reciprocal_pair(pns9, other)
    # Z2xZ3 is cyclic, but its element 1 is not a generator of one factor
    split = identity_morphism(make_group([2, 3]))
    with pytest.raises(ValueError):
        is_reciprocal_pair(split, split)
    with pytest.raises(ValueError):
        is_reciprocal_pair(identity_morphism(Z6), split)


def _cyclic_morphisms(n):
    from skewmorph.enumeration import cached_enumeration

    return cached_enumeration((n,) if n > 1 else ()).morphisms


@pytest.mark.parametrize("m,n,divisible,reciprocal", [(3, 6, 6, 4), (6, 6, 16, 8)])
def test_reciprocal_crossed_power_conditions_reject(m, n, divisible, reciprocal):
    """Of the pairs that pass the order test (|phi| divides n, |phi~|
    divides m), the crossed power conditions reject some."""
    passing = [
        (a, b)
        for a in _cyclic_morphisms(m)
        for b in _cyclic_morphisms(n)
        if n % a.order == 0 and m % b.order == 0
    ]
    assert len(passing) == divisible
    assert sum(is_reciprocal_pair(a, b) for a, b in passing) == reciprocal


def test_reciprocal_relation_is_symmetric():
    for m in range(1, 13):
        for n in range(1, 13):
            for a in _cyclic_morphisms(m):
                for b in _cyclic_morphisms(n):
                    assert is_reciprocal_pair(a, b) == is_reciprocal_pair(b, a), (a.perm, b.perm)


def test_reciprocal_pair_unique_iff_orders_and_totients_coprime():
    """(Z_m, Z_n) has exactly one reciprocal pair, the identities, iff
    gcd(m, phi(n)) = gcd(phi(m), n) = 1: the criterion for a unique complete
    regular dessin on K_{m,n}."""
    for m in range(1, 17):
        for n in range(1, 17):
            count = sum(
                is_reciprocal_pair(a, b)
                for a in _cyclic_morphisms(m)
                for b in _cyclic_morphisms(n)
            )
            unique = gcd(m, totient(n)) == 1 and gcd(totient(m), n) == 1
            assert (count == 1) == unique, (m, n, count)


def test_try_validate_matches_validate():
    assert try_validate(make_group([4]), (0, 1, 3, 2)) is None
    sm = try_validate(Z9, PNS9_TABLE)
    assert sm is not None and sm.order == 6


def test_power_equal_iff_kernel_coset_corrected_reading():
    """pi(a) = pi(b) exactly when a - b lies in the kernel.

    This is the corrected reading of the congruence (the source statement
    degenerates to a tautology); checked exhaustively over every enumerated
    morphism of a spread of groups up to order 32.
    """
    from skewmorph.enumeration import cached_enumeration

    for factors in ((6,), (9,), (12,), (2, 4), (3, 3), (32,)):
        group = make_group(factors)
        n = group.order
        for sm in cached_enumeration(factors).morphisms:
            ker = set(kernel(sm).members)
            for a in range(n):
                for b in range(n):
                    assert (sm.power[a] == sm.power[b]) == (group.sub(a, b) in ker)


def test_kernel_nontrivial_for_nontrivial_groups():
    from skewmorph.enumeration import cached_enumeration

    for factors in ((4,), (9,), (2, 4), (3, 3), (16,)):
        for sm in cached_enumeration(factors).morphisms:
            assert kernel(sm).size > 1


def test_as_skew_morphism_equals_full_validation():
    """The automorphism shortcut gives the record that full validation
    derives, and rejects a bijection that is not additive and an additive
    map that is not a bijection."""
    for factors in [(), (6,), (2, 4), (3, 3), (2, 2, 2)]:
        group = make_group(factors)
        for theta in enumerate_automorphisms(group):
            assert as_skew_morphism(theta) == try_validate(group, theta.table)
    group = make_group([2, 4])
    for table in [(0, 2, 1, 3, 4, 5, 6, 7), (0,) * 8]:
        with pytest.raises(ValueError):
            as_skew_morphism(Automorphism(group, table))


def test_automorphism_iff_power_constant_one():
    from skewmorph.enumeration import cached_enumeration
    from skewmorph.groups import is_homomorphism

    for factors in ((9,), (2, 4), (3, 3)):
        group = make_group(factors)
        for sm in cached_enumeration(factors).morphisms:
            assert sm.is_automorphism == is_homomorphism(group, sm.perm)


# ---------------------------------------------------------------------------
# Differential test of the validation core against a naive validator
# ---------------------------------------------------------------------------

DIFFERENTIAL_GROUPS = [(), (8,), (12,), (2, 2), (2, 4), (3, 3)]


def naive_validate(group, perm):
    """(order, power) or (reason, element, witness), straight from the definition.

    For every a it tries each power perm**j, j < |perm|, against
    perm(a + b) == perm(a) + perm**j(b) for all b, using the checked add.
    The witness of the first failing a is the smallest b by which every
    power has disagreed at least once.
    """
    n = group.order
    if sorted(perm) != list(range(n)):
        return "not-bijection", None, None
    if perm[0] != 0:
        return "identity-moved", 0, None
    powers = [tuple(range(n))]
    while True:
        nxt = tuple(perm[x] for x in powers[-1])
        if nxt == powers[0]:
            break
        powers.append(nxt)
    power = []
    for a in range(n):
        # the first b at which perm**j disagrees, n when it never does
        first = [
            next((b for b in range(n) if perm[group.add(a, b)] != group.add(perm[a], pw[b])), n)
            for pw in powers
        ]
        if n not in first:
            return "no-power", a, max(first)
        power.append(first.index(n))
    return len(powers), tuple(power)


@st.composite
def differential_inputs(draw):
    from skewmorph.enumeration import cached_enumeration

    factors = draw(st.sampled_from(DIFFERENTIAL_GROUPS))
    group = make_group(factors)
    n = group.order
    if draw(st.booleans()):
        perm = (0,) + tuple(draw(st.permutations(range(1, n))))
    else:
        morphisms = cached_enumeration(factors).morphisms
        perm = list(draw(st.sampled_from(morphisms)).perm)
        if n > 2 and draw(st.booleans()):  # a near miss: swap two images
            i, j = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
            perm[i], perm[j] = perm[j], perm[i]
        perm = tuple(perm)
    return group, perm


def _assert_matches_naive(group, perm):
    expected = naive_validate(group, perm)
    fast = try_validate(group, perm)
    if isinstance(expected[0], int):
        assert fast is not None
        assert (fast.order, fast.power) == expected
        sm = validate(group, perm)
        assert (sm.order, sm.power) == expected
    else:
        assert fast is None
        with pytest.raises(SkewMorphismRejection) as info:
            validate(group, perm)
        assert (info.value.reason, info.value.element, info.value.witness) == expected


@given(differential_inputs())
@settings(max_examples=300, deadline=None)
def test_validation_core_matches_naive_validator(case):
    _assert_matches_naive(*case)


# the groups of CYCLIC_PINS and NONCYCLIC_PINS (test_enumeration.py) up to order 24
PINNED_GROUPS_TO_24 = [(n,) for n in range(2, 25)] + [
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (2, 8), (4, 4), (2, 2, 4), (3, 6), (2, 10), (2, 12),
]
RANDOM_PERMS = 20


def _differential_cases(factors):
    """Every morphism, one transposition near miss of each, and random perms fixing 0."""
    from skewmorph.enumeration import cached_enumeration

    rng = random.Random(repr(factors))
    n = prod(factors)
    for sm in cached_enumeration(factors).morphisms:
        yield sm.perm
        if n > 2:
            i, j = rng.sample(range(1, n), 2)
            perm = list(sm.perm)
            perm[i], perm[j] = perm[j], perm[i]
            yield tuple(perm)
    for _ in range(RANDOM_PERMS):
        rest = list(range(1, n))
        rng.shuffle(rest)
        yield (0, *rest)


@pytest.mark.parametrize("factors", PINNED_GROUPS_TO_24, ids=lambda f: make_group(f).label)
def test_validation_core_matches_naive_validator_exhaustively(factors):
    group = make_group(factors)
    for perm in _differential_cases(factors):
        _assert_matches_naive(group, perm)


def _over_order_perms(n, rng, count=10, tries=400):
    """Up to count random permutations fixing 0 of order >= n."""
    found = set()
    for _ in range(tries):
        rest = list(range(1, n))
        rng.shuffle(rest)
        perm = (0, *rest)
        if perm_order(perm) >= n:
            found.add(perm)
            if len(found) == count:
                break
    return sorted(found)


@pytest.mark.parametrize("factors", PINNED_GROUPS_TO_24, ids=lambda f: make_group(f).label)
def test_over_order_tables_match_naive_validator(factors):
    """Tables of order >= |A|, which no skew morphism has, are refused by
    try_validate, and validate reports the naive validator's smallest
    failing element and witness.  Such tables fix 0 only when some
    partition of |A| - 1 has lcm >= |A|: not for |A| in 2, 3, 4, 5, 7."""
    group = make_group(factors)
    n = group.order
    perms = _over_order_perms(n, random.Random(repr(factors)))
    assert bool(perms) == (n not in (2, 3, 4, 5, 7))
    for perm in perms:
        assert naive_validate(group, perm)[0] == "no-power"
        _assert_matches_naive(group, perm)


def test_validation_compares_only_the_orbit_of_one(monkeypatch):
    """On Z_n only the rows of the orbit of 1 are looked up in the index of
    powers; the power function elsewhere comes from the orbit recurrence."""
    from skewmorph import morphisms
    from skewmorph.constructions import csm_construct, enumerate_csm_params
    from skewmorph.groups import cycles

    sm = csm_construct(enumerate_csm_params(64)[-1])
    n = sm.group.order
    orbit = next(cyc for cyc in cycles(sm.perm) if 1 in cyc)
    orbit_rows = {
        tuple((sm.perm[(a + b) % n] - sm.perm[a]) % n for b in range(n)) for a in orbit
    }
    lookups = []

    class CountingIndex(dict):
        def get(self, key, default=None):
            lookups.append(key)
            return super().get(key, default)

    real = morphisms._power_index
    monkeypatch.setattr(morphisms, "_power_index", lambda perm: CountingIndex(real(perm)))
    assert validate(sm.group, sm.perm) == sm
    assert 0 < len(lookups) <= len(orbit) < 64
    assert set(lookups) <= orbit_rows


def test_additive_square_check_is_validation_with_power_one():
    """For every skew morphism of Z_n, n <= 32, as_skew_morphism accepts
    its square exactly when validation gives the square power 1 everywhere,
    the check root_construct makes on phi^2; squares of both kinds occur."""
    from skewmorph.enumeration import cached_enumeration

    seen = set()
    for n in range(2, 33):
        for sm in cached_enumeration((n,)).morphisms:
            square = tuple(sm.perm[y] for y in sm.perm)
            validated = try_validate(sm.group, square)
            try:
                as_skew_morphism(Automorphism(sm.group, square))
                additive = True
            except ValueError:
                additive = False
            assert additive == (validated is not None and validated.is_automorphism), (n, sm.perm)
            seen.add(additive)
    assert seen == {True, False}
