import random
from itertools import combinations, permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from skewmorph import groups
from skewmorph.groups import (
    GROUP_CACHE_SIZE,
    InvalidFactorError,
    SizeGuardError,
    _is_closed,
    _orbits,
    abelian_group_presentations,
    automorphism_chain,
    automorphism_count,
    automorphism_generators,
    compose,
    cycles,
    enumerate_automorphisms,
    enumerate_subgroups,
    invariant_factors,
    invert,
    is_bijection,
    is_homomorphism,
    make_group,
    multiplicative_order,
    parse_group_literal,
    perm_order,
    perm_power,
    primary_pieces,
    quotient_group,
    remap,
    stabilizer_chain,
    subgroup_from_members,
    subgroup_generated_by,
)

small_factors = st.lists(st.integers(2, 6), min_size=0, max_size=3).filter(
    lambda fs: prod(fs) <= 48
)


def test_make_group_basics():
    assert make_group([6]).order == 6
    assert make_group([]).order == 1
    g = make_group([2, 4])
    assert g.order == 8
    assert g.index_of((1, 3)) == 7
    assert g.coords(7) == (1, 3)


@pytest.mark.parametrize("bad", [[1], [0], [-2], [2, 1]])
def test_make_group_rejects_factors_below_two(bad):
    with pytest.raises(InvalidFactorError):
        make_group(bad)


def test_make_group_shares_one_instance_per_factor_tuple():
    group = make_group((5, 5))
    assert make_group([5, 5]) is group
    assert make_group(iter([5, 5])) is group
    assert make_group([25]) is not group
    with pytest.raises(TypeError):
        group.add_table[0][0] = 1
    with pytest.raises(TypeError):
        group.neg_list[0] = 1


@pytest.mark.parametrize("bad", [(2.0,), (True,), (2, 2.0), (2, True), (5.0, 5)])
def test_make_group_checks_factors_before_the_shared_lookup(bad):
    """2.0 == 2, so a lookup by value alone would answer (2.0,) with the
    cached Z2; the factors are checked first.  Booleans, an int subclass,
    stay refused as well."""
    for valid in ((2,), (2, 2), (5, 5)):
        make_group(valid)
    with pytest.raises(InvalidFactorError):
        make_group(bad)


def test_group_cache_stays_within_its_bound():
    """More distinct groups than the bound evict the least recently used;
    the cache never holds more than GROUP_CACHE_SIZE groups."""
    assert GROUP_CACHE_SIZE >= 49  # the distinct groups of one families pass
    last = [make_group((2, n)) for n in range(2, GROUP_CACHE_SIZE + 20)]
    info = groups._shared.cache_info()
    assert info.maxsize == GROUP_CACHE_SIZE
    assert info.currsize == GROUP_CACHE_SIZE
    assert make_group(last[-1].factors) is last[-1]


def test_groups_past_the_guard_are_built_afresh():
    """Only groups within SUBGROUP_GUARD are kept, so a raised --max-order
    adds nothing to the cache's worst case."""
    assert make_group((2, 128)) is make_group((2, 128))
    big = make_group((2, 129))
    assert big is not make_group((2, 129))
    assert big == make_group((2, 129))


def test_add_examples():
    assert make_group([6]).add(4, 5) == 3
    g = make_group([2, 4])
    assert g.add(g.index_of((1, 3)), g.index_of((1, 2))) == g.index_of((0, 1))


def test_element_order_examples():
    assert make_group([9]).element_order(3) == 3
    assert make_group([6]).element_order(5) == 6
    assert make_group([6]).element_order(0) == 1


def test_out_of_range_indices_raise():
    g = make_group([6])
    with pytest.raises(IndexError):
        g.add(0, 6)
    with pytest.raises(IndexError):
        g.element_order(-1)


def test_wrong_arity_and_unclosed_members_raise():
    g = make_group([2, 4])
    with pytest.raises(ValueError, match="arity"):
        g.index_of((1,))
    with pytest.raises(ValueError, match="not closed"):
        subgroup_from_members(g, [0, 1, 2])


@given(small_factors, st.data())
@settings(max_examples=60, deadline=None)
def test_group_laws(factors, data):
    g = make_group(factors)
    n = g.order
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert g.add(a, 0) == a
    assert g.add(a, b) == g.add(b, a)
    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    assert g.add(a, g.neg(a)) == 0
    assert g.add_table[a][b] == g.add(a, b)
    assert g.neg_list[a] == g.neg(a)


@pytest.mark.parametrize(
    "group",
    [g for n in range(1, 65) for g in abelian_group_presentations(n)]
    + [make_group(f) for f in ((4, 2), (3, 2), (2, 3, 2), (5, 3, 4), (2, 8, 4))],
    ids=lambda g: g.label,
)
def test_tables_equal_the_checked_arithmetic(group):
    """add_table and neg_list, built from the factors, agree with the
    checked per-element add and neg on every pair, in every presentation of
    every order up to 64 and in some that are not in invariant-factor form.
    Both are tuples, so a group shared by make_group cannot be changed."""
    n = group.order
    assert group.add_table == tuple(tuple(group.add(a, b) for b in range(n)) for a in range(n))
    assert group.neg_list == tuple(group.neg(a) for a in range(n))


def test_addition_is_group_table_exhaustively_small():
    for factors in ([4], [2, 2], [2, 4], [3, 3], [16], [2, 2, 2]):
        g = make_group(factors)
        n = g.order
        for a in range(n):
            assert g.add(a, 0) == a
            assert g.add(a, g.neg(a)) == 0
        if n <= 16:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def _subgroups_by_pairs(g):
    """Independent oracle: closures of all subsets generated by <= 2 elements."""
    found = set()
    elements = list(range(g.order))
    for gens in [()] + [(x,) for x in elements] + list(combinations(elements, 2)):
        span = {0}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in span:
                continue
            new = {g.add(s, g.scalar(t, x)) for s in span for t in range(g.element_order(x))}
            span |= new
            frontier.extend(new)
        closed = span
        while True:
            bigger = {g.add(a, b) for a in closed for b in closed}
            if bigger <= closed:
                break
            closed |= bigger
        found.add(frozenset(closed))
    return found


def test_enumerate_subgroups_examples():
    assert len(enumerate_subgroups(make_group([6]))) == 4
    assert len(enumerate_subgroups(make_group([]))) == 1
    g33 = make_group([3, 3])
    subs = enumerate_subgroups(g33)
    assert len(subs) == 6
    assert {frozenset(s.members) for s in subs} == _subgroups_by_pairs(g33)


def test_enumerate_subgroups_sorted_and_lagrange():
    g = make_group([2, 4])
    subs = enumerate_subgroups(g)
    sizes = [s.size for s in subs]
    assert sizes == sorted(sizes)
    for s in subs:
        assert g.order % s.size == 0
        assert 0 in s.members


def _closed_by_pairs(group, members):
    """The O(|S|^2) predicate: 0 in S and S + S inside S."""
    add = group.add_table
    return 0 in members and all(add[x][y] in members for x in members for y in members)


def test_is_closed_matches_the_pairwise_check():
    """Every subgroup up to order 32, as is, less one member, plus one non-member."""
    rng = random.Random(32)
    for n in range(1, 33):
        for g in abelian_group_presentations(n):
            for sub in enumerate_subgroups(g):
                members = frozenset(sub.members)
                outside = [x for x in range(g.order) if x not in members]
                variants = [members, members - {rng.choice(sub.members)}]
                if outside:
                    variants.append(members | {rng.choice(outside)})
                for s in variants:
                    assert _is_closed(g, s) == _closed_by_pairs(g, s), (g.label, sorted(s))


def test_subgroup_guard():
    with pytest.raises(SizeGuardError):
        enumerate_subgroups(make_group([17, 17]))


def _gl2_count(p):
    """Invertible 2x2 matrices over F_p, by brute force."""
    count = 0
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p != 0:
            count += 1
    return count


def test_enumerate_automorphisms_counts():
    assert len(enumerate_automorphisms(make_group([9]))) == 6
    assert len(enumerate_automorphisms(make_group([2]))) == 1
    assert len(enumerate_automorphisms(make_group([3, 3]))) == _gl2_count(3) == 48


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 24, 30])
def test_cyclic_automorphism_count_is_totient(n):
    phi = sum(1 for t in range(1, n + 1) if gcd(t, n) == 1)
    assert len(enumerate_automorphisms(make_group([n]))) == phi


def test_automorphism_count_is_the_closed_form():
    """automorphism_count equals the listed automorphisms on every group of
    order 16 to 32 but Z2^5, whose 9,999,360 tables are not listed."""
    checked = 0
    for n in range(16, 33):
        for group in abelian_group_presentations(n):
            if group.factors != (2, 2, 2, 2, 2):
                assert automorphism_count(group) == len(enumerate_automorphisms(group)), group.label
                checked += 1
    assert checked == 34
    assert automorphism_count(make_group([2, 2, 2, 2, 2])) == 9999360
    assert automorphism_count(make_group([])) == 1


def test_automorphisms_form_a_group():
    for factors in ([6], [2, 4], [3, 3]):
        g = make_group(factors)
        autos = {a.table for a in enumerate_automorphisms(g)}
        for t1 in autos:
            assert invert(t1) in autos
            for t2 in autos:
                assert compose(t1, t2) in autos


def _is_automorphism(group, table):
    """A bijection that adds each basis weight: additive by induction."""
    add = group.add_table
    return is_bijection(table, group.order) and all(
        table[add[a][w]] == add[table[a]][table[w]] for a in range(group.order) for w in group.weights
    )


def test_generators_reach_the_closed_form_count():
    """automorphism_generators are automorphisms, and a Schreier-Sims run on
    them to the end, with no order to stop at, reaches |Aut(A)|
    (automorphism_count, Hillar-Rhea) on every multi-factor group of order
    at most 128: so they generate Aut(A), and a chain stopped at the count
    is complete."""
    checked = 0
    for n in range(1, 129):
        for group in abelian_group_presentations(n):
            if len(group.factors) > 1:
                gens = automorphism_generators(group)
                assert all(_is_automorphism(group, g) for g in gens), group.label
                assert stabilizer_chain(gens, n).order == automorphism_count(group), group.label
                checked += 1
    assert checked == 202


def test_chain_elements_are_the_listed_automorphisms():
    """The elements of automorphism_chain, each once, are the tables of
    enumerate_automorphisms, on every group of order at most 32 whose list
    has at most 50,000 entries (all but Z2^5)."""
    checked = 0
    for n in range(1, 33):
        for group in abelian_group_presentations(n):
            if automorphism_count(group) <= 50_000:
                elements = list(automorphism_chain(group))
                listed = {a.table for a in enumerate_automorphisms(group)}
                assert len(elements) == len(set(elements)) and set(elements) == listed, group.label
                checked += 1
    assert checked == 54


@pytest.mark.parametrize("seed", range(12))
def test_orbits_by_generators_equal_the_element_scan(seed):
    """On a random subgroup H of a random Aut(A), acting on random subsets
    of A, _orbits from a few generators of H (Schreier vectors and sifted
    Schreier generators) finds the orbits of the scan of H's element list,
    which its first ring decides alone; every move carries the orbit's
    first point x to its point, every stabilizer generator fixes x, and
    |orbit| * |stab| = |H|, with stab the scan's stabilizer."""
    rng = random.Random(seed)
    group = make_group(rng.choice([(2, 4), (3, 3), (2, 2, 4), (2, 2, 2, 2), (4, 4), (3, 9), (2, 2, 6)]))
    autos = list(automorphism_chain(group))
    h = stabilizer_chain(rng.sample(autos, rng.randint(1, 3)), group.order)
    size = rng.randint(1, 3)
    points = [tuple(sorted(rng.sample(range(group.order), size))) for _ in range(40)]

    def act(sigma, xs):
        return tuple(sorted(sigma[x] for x in xs))

    by_gens = list(_orbits(points, h.generators, h.order, act))
    by_scan = list(_orbits(points, list(h), h.order, act))
    assert [x for x, _, _ in by_gens] == [x for x, _, _ in by_scan]
    for (x, moves, stab), (_, scan_moves, scan_stab) in zip(by_gens, by_scan):
        assert set(moves) == set(scan_moves)
        assert all(act(sigma, x) == y for y, sigma in moves.items())
        gens = stab()
        assert all(act(sigma, x) == x for sigma in gens)
        assert set(stabilizer_chain(gens, group.order)) == set(scan_stab())
        assert (1 + len(moves)) * len(scan_stab()) == h.order


def _rank_merge(primary_factors):
    """Invariant factors, ascending: the k-th largest factor is the product of
    the k-th largest power of each prime among the primary factors."""
    by_prime = {}
    for q in primary_factors:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        by_prime.setdefault(p, []).append(q)
    columns = [sorted(powers, reverse=True) for powers in by_prime.values()]
    rank = max(map(len, columns), default=0)
    return tuple(reversed([prod(c[k] for c in columns if k < len(c)) for k in range(rank)]))


def test_invariant_factors_match_rank_merge():
    for n in range(1, 129):
        for g in abelian_group_presentations(n):
            orders = [g.element_order(x) for x in range(n)]
            assert invariant_factors(orders) == _rank_merge(g.factors), g.label


@pytest.mark.parametrize(
    "group",
    [g for n in range(1, 9) for g in abelian_group_presentations(n)],
    ids=lambda g: g.label,
)
def test_automorphisms_are_the_additive_bijections(group):
    n = group.order
    brute = [
        (0,) + rest
        for rest in permutations(range(1, n))
        if is_homomorphism(group, (0,) + rest)
    ]
    assert [a.table for a in enumerate_automorphisms(group)] == brute


def test_perm_power_and_order():
    ident = tuple(range(6))
    assert perm_order(ident) == 1
    table = tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9))
    assert sorted(map(len, cycles(table))) == [1, 2, 6]
    assert perm_order(table) == 6
    assert perm_power(table, 6) == tuple(range(9))
    assert perm_power(table, -1) == invert(table)
    assert perm_power(table, 7) == table


def test_quotient_group_examples():
    g6 = make_group([6])
    q, proj = quotient_group(g6, subgroup_generated_by(g6, [3]))
    assert q.factors == (3,)
    q2, _ = quotient_group(g6, range(6))
    assert q2.factors == ()
    g24 = make_group([2, 4])
    q3, _ = quotient_group(g24, subgroup_generated_by(g24, [g24.index_of((0, 2))]))
    assert q3.factors == (2, 2)


def test_quotient_rejects_non_closed():
    g = make_group([6])
    with pytest.raises(ValueError):
        quotient_group(g, [0, 1])


@given(small_factors, st.data())
@settings(max_examples=30, deadline=None)
def test_quotient_projection_is_surjective_homomorphism(factors, data):
    g = make_group(factors)
    subs = enumerate_subgroups(g)
    sub = data.draw(st.sampled_from(subs))
    q, proj = quotient_group(g, sub)
    assert set(proj) == set(range(q.order))
    assert sorted(x for x in range(g.order) if proj[x] == proj[0]) == list(sub.members)
    for a in range(g.order):
        for b in range(g.order):
            assert proj[g.add(a, b)] == q.add(proj[a], proj[b])


@pytest.mark.parametrize(
    "factors",
    [g.factors for n in range(1, 25) for g in abelian_group_presentations(n)]
    + [(2, 6), (3, 6), (2, 12), (2, 2, 6), (6, 4)],
)
def test_every_quotient_is_a_surjection_onto_invariant_factors(factors):
    """First isomorphism theorem: proj onto q with kernel K makes q = G/K."""
    g = make_group(factors)
    add = g.add_table
    for sub in enumerate_subgroups(g):
        q, proj = quotient_group(g, sub)
        assert all(b % a == 0 for a, b in zip(q.factors, q.factors[1:]))
        assert sorted(set(proj)) == list(range(q.order))
        assert tuple(x for x in range(g.order) if proj[x] == 0) == sub.members
        qadd = q.add_table
        for a in range(g.order):
            assert all(proj[add[a][b]] == qadd[proj[a]][proj[b]] for b in range(g.order))


def test_parse_group_literal():
    assert parse_group_literal("Z6").factors == (6,)
    assert parse_group_literal("z2xZ4").factors == (2, 4)
    assert parse_group_literal("Z1").factors == ()
    # the last has a factor past the interpreter's int-conversion digit limit
    for bad in ("", "Q5", "Z", "Z0", "Z6+Z2", "Z" + "9" * 5000):
        with pytest.raises(InvalidFactorError):
            parse_group_literal(bad)


@pytest.mark.parametrize("n", range(1, 33))
def test_remap_of_primary_pieces_is_an_isomorphism(n):
    """For each group of order n, in primary and in invariant-factor form,
    remap along its primary pieces, in order and reversed, is a bijective
    homomorphism onto the group of those pieces' moduli."""
    for primary in abelian_group_presentations(n):
        orders = [primary.element_order(x) for x in range(n)]
        for group in (primary, make_group(invariant_factors(orders))):
            add = group.add_table
            pieces = primary_pieces(group)
            for arranged in (pieces, pieces[::-1]):
                target, table = remap(group, arranged)
                assert target.factors == tuple(q for _, q in arranged)
                assert sorted(table) == list(range(n))
                sums = target.add_table
                assert all(
                    table[add[a][b]] == sums[table[a]][table[b]]
                    for a in range(n)
                    for b in range(n)
                )


def test_abelian_group_presentations():
    assert [g.factors for g in abelian_group_presentations(1)] == [()]
    assert [g.factors for g in abelian_group_presentations(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert len(abelian_group_presentations(16)) == 5


def test_multiplicative_order():
    assert multiplicative_order(2, 9) == 6
    assert multiplicative_order(1, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(3, 9)
