import os
import subprocess
import sys
from itertools import islice

import pytest

from skewmorph import constructions
from skewmorph.constructions import (
    DirectProductRejection,
    FamilyConsistencyError,
    ParameterRejection,
    _geometric_sums,
    csm_construct,
    csm_params,
    direct_product,
    enumerate_csm_params,
    nonsmooth_witness,
    nse_construct,
    nse_params_range,
    pns_witness_odd,
    pns_witness_two,
    root_construct,
    root_params,
)
from skewmorph.groups import Automorphism, make_group, multiplicative_order, parse_group_literal
from skewmorph.morphisms import (
    as_skew_morphism,
    identity_morphism,
    is_smooth,
    kernel,
    skew_type,
    try_validate,
)


def test_geometric_sums():
    # index t is tau(s, t), the sum of s**(i-1) for i = 1..t, mod the modulus
    assert next(islice(_geometric_sums(1, 100), 2, None)) == 2
    assert next(islice(_geometric_sums(2, 100), 3, None)) == 1 + 2 + 4


def test_csm_z6_example():
    sm = csm_construct(csm_params(6, 2, 1, 1, 2))
    assert sm.perm == (0, 3, 2, 5, 4, 1)
    assert sm.order == 3
    assert sm.power == tuple(pow(2, x, 3) for x in range(6))
    assert is_smooth(sm)
    assert skew_type(sm) == 2


def test_csm_rejects_r_zero():
    with pytest.raises(ParameterRejection) as err:
        csm_params(6, 2, 0, 1, 2)
    assert err.value.condition == "b"


def test_csm_rejects_bad_k():
    with pytest.raises(ParameterRejection):
        csm_params(6, 4, 1, 1, 2)
    with pytest.raises(ParameterRejection):
        csm_params(6, 6, 1, 1, 2)
    with pytest.raises(ParameterRejection, match="no proper divisors"):
        csm_params(1, 2, 1, 1, 2)
    with pytest.raises(ParameterRejection) as err:
        csm_params(12, 2, 1, 2, 1)  # 2 is not a unit mod 6
    assert err.value.condition == "s"


def test_enumerate_csm_params_small():
    tuples = [(p.k, p.r, p.s, p.t) for p in enumerate_csm_params(6)]
    assert (2, 1, 1, 2) in tuples
    assert enumerate_csm_params(4) == []
    assert enumerate_csm_params(5) == []


@pytest.mark.parametrize("n", range(2, 21))
def test_csm_outputs_are_proper_smooth(n):
    seen = set()
    for params in enumerate_csm_params(n):
        sm = csm_construct(params)  # internal assertions check order/type/power
        assert is_smooth(sm)
        assert sm.is_proper
        seen.add(sm.perm)
    # distinct tuples may repeat morphisms but never disagree
    assert len(seen) <= max(1, len(enumerate_csm_params(n)))


def test_root_z9_witness():
    params = root_params(9, 3, 8)
    assert (params.ell, params.w, params.w_inv, params.order) == (1, 2, 2, 6)
    sm = root_construct(params)
    assert sm.perm == tuple((-x - 3 * x * (x - 1) // 2) % 9 for x in range(9))
    assert sm.power == tuple((1 - 2 * x) % 6 for x in range(9))
    square = tuple(sm.perm[sm.perm[x]] for x in range(9))
    assert square == tuple((7 * x) % 9 for x in range(9))


def test_root_z32_witness():
    sm = root_construct(root_params(32, 4, 31))
    assert sm.order == 8
    assert sm.power == tuple((1 - 2 * x) % 8 for x in range(32))
    assert not is_smooth(sm)


def test_root_rejections():
    with pytest.raises(ParameterRejection):
        root_params(9, 2, 8)  # 2k^2 = 8 does not divide 9
    with pytest.raises(ParameterRejection):
        root_params(9, 3, 7)  # 7 is not -1 mod 3
    with pytest.raises(ParameterRejection, match="k >= 1"):
        root_params(9, 0, 8)


def test_root_sweep_squares_are_automorphisms():
    from skewmorph.morphisms import try_validate

    found = 0
    for n in range(4, 37):
        for k in range(2, 7):
            for s in range(1, n):
                try:
                    params = root_params(n, k, s)
                except ParameterRejection:
                    continue
                sm = root_construct(params)
                found += 1
                square = tuple(sm.perm[sm.perm[x]] for x in range(n))
                sq = try_validate(sm.group, square)
                assert sq is not None and sq.is_automorphism
                assert sm.order == params.order == 2 * params.k * params.ell
                assert skew_type(sm) == params.k
    assert found > 0


def test_pns_witness_odd():
    sm = pns_witness_odd(3, 2)
    assert sm.power[1] == 5  # -1 mod 6
    assert sm.power[sm.perm[1]] == 3
    assert not is_smooth(sm)
    with pytest.raises(ParameterRejection):
        pns_witness_odd(3, 1)
    with pytest.raises(ParameterRejection):
        pns_witness_odd(4, 2)


def test_pns_witness_two():
    sm = pns_witness_two(5)
    assert sm.group.order == 32
    assert sm.order == 8
    assert sm.power[1] == 7
    assert sm.power[sm.perm[1]] == 3
    with pytest.raises(ParameterRejection):
        pns_witness_two(4)


def test_nse_z3_all_triples():
    outs = {}
    for (d, nu, r) in nse_params_range(3):
        sm = nse_construct(3, d, nu, r)
        assert sm.order == 6
        assert not is_smooth(sm)
        assert kernel(sm).members == (0, 3, 6)
        k = 2  # multiplicative order of 2 mod 3
        assert sm.power == tuple((1 + j * nu * k) % 6 for i in range(3) for j in range(3))
        outs[(d, nu, r)] = sm.perm
    assert len(nse_params_range(3)) == 4
    assert len(set(outs.values())) == 4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nse_kernel_shift_is_the_closed_form(p):
    """For every (d, nu, r), exactly one beta in Z_p gives a table that
    validates with order p*k and the advertised power, and nse_construct's
    closed form r*d*(nu/2 + 1/k) names it."""
    group = make_group([p, p])
    inv2 = pow(2, -1, p)
    for d, nu, r in nse_params_range(p):
        k = multiplicative_order(r, p)
        power = tuple((1 + j * nu * k) % (p * k) for i in range(p) for j in range(p))
        hits = []
        for beta in range(p):
            table = tuple(
                ((r * i + d * r * nu * inv2 * j * (j - 1) + beta * j) % p) * p + (r * j) % p
                for i in range(p)
                for j in range(p)
            )
            sm = try_validate(group, table)
            if sm is not None and sm.order == p * k and sm.power == power:
                hits.append((beta, table))
        assert [beta for beta, _ in hits] == [r * d * (nu * inv2 + pow(k, -1, p)) % p]
        assert nse_construct(p, d, nu, r).perm == hits[0][1]


@pytest.mark.parametrize("build", [
    lambda: csm_construct(csm_params(6, 2, 1, 1, 2)),
    lambda: root_construct(root_params(9, 3, 8)),
], ids=["csm", "root"])
def test_a_table_that_fails_to_validate_is_a_family_inconsistency(monkeypatch, build):
    """A closed form whose table does not validate raises the module's
    FamilyConsistencyError, not the validator's rejection."""
    monkeypatch.setattr(constructions, "try_validate", lambda group, table: None)
    with pytest.raises(FamilyConsistencyError):
        build()


def test_closed_form_checks_fire_under_python_O():
    """The closed-form checks are raised, not asserted: with is_smooth
    negated, every family's smoothness check and the witness check still
    refuse under python -O, and so does quotient_skew's revalidation."""
    script = (
        "from skewmorph import constructions as c, morphisms as m\n"
        "from skewmorph.groups import make_group\n"
        "real = c.is_smooth\n"
        "c.is_smooth = lambda sm: not real(sm)\n"
        "builds = [\n"
        "    lambda: c.csm_construct(c.csm_params(6, 2, 1, 1, 2)),\n"
        "    lambda: c.nse_construct(3, 1, 1, 2),\n"
        "    lambda: c.pns_witness_odd(3, 2),\n"
        "    lambda: c.pns_witness_two(5),\n"
        "    lambda: c.nonsmooth_witness(make_group([3, 3])),\n"
        "]\n"
        "refused = 0\n"
        "for build in builds:\n"
        "    try:\n"
        "        build()\n"
        "    except c.FamilyConsistencyError:\n"
        "        refused += 1\n"
        "sm = m.identity_morphism(make_group([4]))\n"
        "m.try_validate = lambda group, table: None\n"
        "try:\n"
        "    m.quotient_skew(sm, [0, 2])\n"
        "except AssertionError:\n"
        "    refused += 1\n"
        "print(refused)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "6"


def test_nse_power_jump_at_x_generator():
    sm = nse_construct(3, 1, 1, 2)
    x = 1  # element (0, 1)
    assert sm.power[x] != sm.power[sm.perm[x]]


def test_nse_rejections():
    with pytest.raises(ParameterRejection):
        nse_construct(2, 1, 1, 1)
    with pytest.raises(ParameterRejection):
        nse_construct(3, 0, 1, 2)
    with pytest.raises(ParameterRejection):
        nse_construct(3, 1, 1, 1)


def test_direct_product_with_identity():
    pns = pns_witness_odd(3, 2)
    prod = direct_product(pns, identity_morphism(make_group([2])))
    assert prod.group.factors == (9, 2)
    assert prod.order == 6
    assert not is_smooth(prod)


def test_direct_product_rejection_witness():
    pns = pns_witness_odd(3, 2)
    with pytest.raises(DirectProductRejection) as err:
        direct_product(pns, pns)
    assert err.value.side == "left"
    assert err.value.element == 1
    # x -> 4x on Z9 has order 3, and the witness's power at 1 is 5, not 1 mod 3
    quartic = as_skew_morphism(Automorphism(pns.group, tuple(4 * x % 9 for x in range(9))))
    with pytest.raises(DirectProductRejection) as err:
        direct_product(quartic, pns)
    assert (err.value.side, err.value.element) == ("right", 1)


def test_direct_product_smooth_iff_both_smooth():
    from skewmorph.enumeration import cached_enumeration

    z9 = cached_enumeration((9,)).morphisms
    z2 = cached_enumeration((2,)).morphisms
    for a in z9:
        for b in z2:
            try:
                prod = direct_product(a, b)
            except DirectProductRejection:
                continue
            assert is_smooth(prod) == (is_smooth(a) and is_smooth(b))


@pytest.mark.parametrize(
    "literal,expected_order",
    [("Z18", 6), ("Z3xZ3", 6), ("Z32", 8), ("Z32xZ2", 8), ("Z9xZ2", 6), ("Z3xZ6", 6)],
)
def test_nonsmooth_witness_found(literal, expected_order):
    group = parse_group_literal(literal)
    w = nonsmooth_witness(group)
    assert w is not None
    assert w.group == group
    assert not is_smooth(w)
    assert w.order == expected_order


@pytest.mark.parametrize("literal", ["Z15", "Z16", "Z2xZ2", "Z4xZ4", "Z30"])
def test_nonsmooth_witness_none(literal):
    assert nonsmooth_witness(parse_group_literal(literal)) is None
