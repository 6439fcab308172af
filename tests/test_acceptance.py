"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  The
heavy enumerations are cached process-wide, so this module also warms the
cache for the rest of the suite.
"""

import time
from math import gcd

import pytest

from skewmorph.constructions import (
    DirectProductRejection,
    csm_construct,
    direct_product,
    enumerate_csm_params,
    nonsmooth_witness,
    nse_construct,
    nse_params_range,
    pns_witness_odd,
    pns_witness_two,
)
from skewmorph.enumeration import (
    brute_force_oracle,
    cached_enumeration,
    enumerate_skew_morphisms,
    smooth_only_predicate,
    verify_theorem1,
)
from skewmorph.groups import (
    SizeGuardError,
    abelian_group_presentations,
    make_group,
    parse_group_literal,
)
from skewmorph.morphisms import (
    core,
    core_of_translations,
    is_smooth,
    kernel,
    skew_product_group,
    try_validate,
)


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    """Every abelian group of order <= 9: search equals oracle, sorted."""
    start = time.perf_counter()
    checked = []
    for n in range(2, 10):
        for group in abelian_group_presentations(n):
            oracle = brute_force_oracle(group)
            fast = enumerate_skew_morphisms(group)
            assert [s.perm for s in oracle.morphisms] == [s.perm for s in fast.morphisms], group.label
            checked.append(group.label)
    elapsed = time.perf_counter() - start
    ok = elapsed < 300
    _line(1, ok, f"{len(checked)} groups oracle-equal in {elapsed:.1f}s (< 300s)")
    assert ok


def test_criterion_2_theorem1_to_40():
    """Non-smooth morphisms of Z_n, n <= 40, exactly at {9,18,25,27,32,36}."""
    start = time.perf_counter()
    verdict = verify_theorem1(40)
    elapsed = time.perf_counter() - start
    expected = (9, 18, 25, 27, 32, 36)
    ok = verdict.ok and verdict.nonsmooth_orders == expected and elapsed < 1800
    _line(2, ok, f"non-smooth at {verdict.nonsmooth_orders} in {elapsed:.1f}s (< 1800s)")
    assert verdict.ok
    assert verdict.nonsmooth_orders == expected
    assert elapsed < 1800


def test_criterion_2_theorem1_to_64():
    """Theorem 1 up to n = 64, the default cyclic guard: non-smooth
    morphisms exactly at the orders with 2^5 or an odd square dividing n."""
    start = time.perf_counter()
    verdict = verify_theorem1(64)
    elapsed = time.perf_counter() - start
    expected = (9, 18, 25, 27, 32, 36, 45, 49, 50, 54, 63, 64)
    ok = verdict.ok and verdict.nonsmooth_orders == expected
    _line(2, ok, f"non-smooth at {verdict.nonsmooth_orders} in {elapsed:.1f}s")
    assert verdict.ok
    assert verdict.nonsmooth_orders == expected


def test_criterion_3_squarefree_census_cases():
    """n in {15, 33, 12, 24, 48}: zero non-smooth; 105 by predicate only."""
    counts = {}
    for n in (15, 33, 12, 24, 48):
        counts[n] = cached_enumeration((n,)).nonsmooth
    ok = all(v == 0 for v in counts.values()) and smooth_only_predicate(105)
    with pytest.raises(SizeGuardError):
        enumerate_skew_morphisms(make_group([105]))
    _line(3, ok, f"non-smooth counts {counts}; 105 square-free by predicate")
    assert ok


def test_criterion_4_paper_value_regression():
    """The Z_9 and Z_32 witnesses match the closed forms exactly."""
    w9 = pns_witness_odd(3, 2)
    assert w9.perm == tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9))
    assert w9.order == 6
    assert kernel(w9).members == (0, 3, 6)
    from skewmorph.morphisms import skew_type

    assert skew_type(w9) == 3
    assert w9.power[1] == 5  # -1 mod 6
    assert w9.power[w9.perm[1]] == 3

    w32 = pns_witness_two(5)
    assert w32.perm == tuple((-x - 4 * x * (x - 1)) % 32 for x in range(32))
    assert w32.order == 8
    assert w32.power[1] == 7  # -1 mod 8
    assert w32.power[w32.perm[1]] == 3

    for w in (w9, w32):
        square = tuple(w.perm[w.perm[x]] for x in range(w.group.order))
        sq = try_validate(w.group, square)
        assert sq is not None and sq.is_automorphism
    _line(4, True, "Z9 and Z32 witnesses equal the closed forms; both squares are automorphisms")


def test_criterion_5_csm_completeness_to_40():
    """Deduplicated smooth family == proper smooth enumeration, n <= 40."""
    for n in range(2, 41):
        family = {csm_construct(p).perm for p in enumerate_csm_params(n)}
        report = cached_enumeration((n,))
        smooth_proper = {
            sm.perm for sm in report.morphisms if sm.is_proper and is_smooth(sm)
        }
        assert family == smooth_proper, f"n={n}: family {len(family)} vs {len(smooth_proper)}"
    _line(5, True, "smooth family equals the enumerated proper smooth set for every n <= 40")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated counts are wrong: Z_3 x Z_3 has 64 skew morphisms (48 "
        "automorphisms + 16 proper), not 52 = 48 + 4.  The closed-form family "
        "fixes the basis so that a generates the kernel; kernels range over "
        "the 4 order-3 subgroups, 4 proper morphisms each, and the 16 form "
        "one conjugation orbit.  Verified against the brute-force oracle and "
        "an independent defining-identity check; the corrected-values test "
        "below covers the verifiable content."
    ),
)
def test_criterion_6_zpzp_as_stated():
    """Faithful transcription of the stated criterion (total = 52 = 48 + 4)."""
    report = brute_force_oracle(make_group([3, 3]))
    nse = {nse_construct(3, d, nu, r).perm for (d, nu, r) in nse_params_range(3)}
    proper = {sm.perm for sm in report.morphisms if sm.is_proper}
    ok = report.total == 52 and report.automorphisms == 48 and proper == nse
    _line(6, ok, f"as stated: total={report.total} (stated 52), proper={len(proper)} (stated 4)")
    assert report.total == 52
    assert report.automorphisms == 48
    assert proper == nse


def test_criterion_6_zpzp_verified_content():
    """The verifiable content of criterion 6 with the corrected counts."""
    report = brute_force_oracle(make_group([3, 3]))
    assert report.total == 64
    assert report.automorphisms == 48
    assert report.proper == 16
    outs = [nse_construct(3, d, nu, r) for (d, nu, r) in nse_params_range(3)]
    assert len(outs) == 4 and len({sm.perm for sm in outs}) == 4
    k = 2
    for (d, nu, r), sm in zip(nse_params_range(3), outs):
        assert sm.order == 6
        assert not is_smooth(sm)
        assert sm.power == tuple(
            (1 + j * nu * k) % 6 for i in range(3) for j in range(3)
        )
    fixed_kernel = {
        sm.perm
        for sm in report.morphisms
        if sm.is_proper and kernel(sm).members == (0, 3, 6)
    }
    assert fixed_kernel == {sm.perm for sm in outs}
    _line(
        6,
        True,
        "corrected values: total=64=48+16; the 4 family outputs are exactly the "
        "proper morphisms with kernel <a>, each non-smooth of order 6 with the "
        "stated power function",
    )


def test_criterion_7_direct_product_criterion():
    """Over Z_9 x Z_2 morphism pairs: acceptance iff the gcd criterion holds."""
    z9 = cached_enumeration((9,)).morphisms
    z2 = cached_enumeration((2,)).morphisms
    accepted = rejected = 0
    for a in z9:
        for b in z2:
            d = gcd(a.order, b.order)
            one = 1 % d
            criterion = all(v % d == one for v in a.power) and all(
                v % d == one for v in b.power
            )
            try:
                prod = direct_product(a, b)
            except DirectProductRejection:
                assert not criterion
                rejected += 1
                continue
            assert criterion
            accepted += 1
            assert is_smooth(prod) == (is_smooth(a) and is_smooth(b))
    _line(7, True, f"{accepted} pairs accepted, {rejected} rejected, all per the gcd criterion")


def _structural_failures(sm):
    group = sm.group
    n = group.order
    add = group.add_table
    m = sm.order
    pw = sm.power_tables
    out = []
    if any(
        sm.perm[add[a][b]] != add[sm.perm[a]][pw[sm.power[a]][b]]
        for a in range(n)
        for b in range(n)
    ):
        out.append("defining-identity")
    ker = kernel(sm)  # raises if the member set is not closed
    kset = set(ker.members)
    if {sm.perm[x] for x in kset} != kset:
        out.append("kernel-preserved")
    if set(core(sm).members) != kset:
        out.append("core=kernel")
    spg = skew_product_group(sm)
    if spg.order != n * m:
        out.append("product-order")
    if set(core_of_translations(spg).members) != set(core(sm).members):
        out.append("core-of-translations")
    done = False
    for a in range(n):
        for b in range(n):
            total = sum(sm.power[pw[i][b]] for i in range(sm.power[a]))
            if (total - sm.power[add[a][b]]) % m != 0:
                out.append("sum-identity")
                done = True
                break
        if done:
            break
    return out


def test_criterion_8_structural_identities_to_20():
    """Exhaustive structural identities for every group of order <= 20."""
    checked = 0
    for n in range(2, 21):
        for group in abelian_group_presentations(n):
            report = cached_enumeration(group.factors)
            for sm in report.morphisms:
                bad = _structural_failures(sm)
                assert not bad, f"{group.label} perm={sm.perm}: {bad}"
                checked += 1
    _line(8, True, f"all identities hold for {checked} morphisms across every group of order <= 20")


def test_criterion_9_theorem2_witnesses():
    start = time.perf_counter()
    found = {}
    for literal in ("Z3xZ3", "Z9xZ2", "Z3xZ6", "Z32xZ2"):
        group = parse_group_literal(literal)
        w = nonsmooth_witness(group)
        assert w is not None, literal
        assert w.group == group
        assert not is_smooth(w)
        found[literal] = w.order
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    _line(9, ok, f"witness orders {found} in {elapsed:.1f}s (< 120s)")
    assert ok
