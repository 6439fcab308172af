"""Closed-form skew morphism families for cyclic groups and Z_p x Z_p.

Each constructor evaluates an explicit formula, then revalidates the table
once and checks the advertised order, skew-type, kernel and power function.
A failed parameter condition raises ParameterRejection naming the
condition; a failed check raises FamilyConsistencyError, which would mean
the implementation disagrees with the closed forms.  The checks are
raised, not asserted, so that they hold under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product as _cartesian
from math import gcd
from typing import Iterator

from .groups import (
    AbelianGroup,
    Automorphism,
    SizeGuardError,
    factorint,
    invert,
    make_group,
    multiplicative_order,
    primary_pieces,
    remap,
)
from .morphisms import (
    SkewMorphism,
    as_skew_morphism,
    identity_morphism,
    is_smooth,
    kernel,
    relabel,
    skew_type,
    try_validate,
)


# largest n enumerate_csm_params takes
CSM_GUARD = 128


class ParameterRejection(ValueError):
    """Constructor parameters violate a stated condition."""

    def __init__(self, condition: str, detail: str):
        self.condition = condition
        super().__init__(f"condition {condition}: {detail}")


class FamilyConsistencyError(RuntimeError):
    """A closed-form family disagrees with its revalidated table."""


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise FamilyConsistencyError(message)


def _geometric_sums(base: int, modulus: int) -> Iterator[int]:
    """1 + base + ... + base**(i-1) mod modulus for i = 0, 1, 2, ... (0 at i = 0)."""
    total, term = 0, 1
    while True:
        yield total
        total = (total + term) % modulus
        term = (term * base) % modulus


# ---------------------------------------------------------------------------
# Smooth family for cyclic groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsmParams:
    """Parameters (n, k, r, s, t) of the proper smooth cyclic family."""

    n: int
    k: int
    r: int
    s: int
    t: int
    order: int  # the derived m


def _csm_order(n: int, k: int, r: int, s: int) -> int:
    """Smallest m >= 1 with r * (1 + s + ... + s**(m-1)) = 0 mod n/k."""
    q = n // k
    bound = q * multiplicative_order(s % q if q > 1 else 0, q) + 2
    for m, total in enumerate(islice(_geometric_sums(s, q), 1, bound), 1):
        if (r * total) % q == 0:
            return m
    raise AssertionError("geometric order search did not terminate")


def csm_params(n: int, k: int, r: int, s: int, t: int) -> CsmParams:
    """Canonicalize and check conditions (a)-(d) of the smooth family."""
    if n < 2:
        raise ParameterRejection("k", f"no proper divisors of n={n}")
    if k <= 1 or k >= n or n % k != 0:
        raise ParameterRejection("k", f"k={k} is not a proper divisor > 1 of n={n}")
    q = n // k
    r %= q
    s %= q
    if gcd(s, q) != 1:
        raise ParameterRejection("s", f"s={s} is not a unit mod n/k={q}")
    return _csm_checked(n, k, r, s, t, _csm_order(n, k, r, s))


def _csm_checked(n: int, k: int, r: int, s: int, t: int, m: int) -> CsmParams:
    """Conditions (b)-(d) for t, given the canonical k, r, s and their order
    m = _csm_order(n, k, r, s), which enumerate_csm_params derives once for
    every t."""
    q = n // k
    given, t = t, t % (m if m > 1 else 1)
    if m == 1 or gcd(t, m) != 1:
        raise ParameterRejection("b", f"t={given} (= {t} mod m={m}) is not a unit mod m={m}")
    if multiplicative_order(t, m) != k:
        raise ParameterRejection(
            "b", f"t={given} (= {t} mod m={m}) does not have multiplicative order k={k} mod m={m}"
        )
    tv = next(islice(_geometric_sums(s, q), t, None))  # tau(s, t) mod n/k
    lhs = (s - 1) % q
    rhs = (r * next(islice(_geometric_sums(tv, q), k, None))) % q
    if lhs != rhs:
        raise ParameterRejection("c", f"s-1 != r*(tau^k-1)/(tau-1) mod n/k for {(n, k, r, s, t)}")
    if pow(s, t - 1, q) != 1 % q:
        raise ParameterRejection("d", f"s^(t-1) != 1 mod n/k for {(n, k, r, s, t)}")
    return CsmParams(n, k, r, s, t, m)


def csm_construct(params: CsmParams) -> SkewMorphism:
    """phi(x) = x + r*k*(tau^x - 1)/(tau - 1) mod n, via a running geometric sum."""
    n, k, r = params.n, params.k, params.r
    tv = next(islice(_geometric_sums(params.s, n), params.t, None))  # tau(s, t) mod n
    table = tuple((x + r * k * total) % n for x, total in zip(range(n), _geometric_sums(tv, n)))
    sm = try_validate(make_group([n]), table)
    _require(sm is not None, "smooth family table fails to validate")
    _require(sm.order == params.order, "smooth family order disagrees with condition (a)")
    _require(skew_type(sm) == k, "smooth family skew-type disagrees with k")
    _require(is_smooth(sm), "smooth family produced a non-smooth morphism")
    expected_power = tuple(pow(params.t, x, sm.order) for x in range(n))
    _require(sm.power == expected_power, "smooth family power function is not t^x")
    return sm


def check_csm_guard(n: int) -> None:
    """Raise SizeGuardError when n exceeds CSM_GUARD."""
    if n > CSM_GUARD:
        raise SizeGuardError(f"n={n} exceeds csm parameter guard {CSM_GUARD}")


def enumerate_csm_params(n: int) -> list[CsmParams]:
    """All parameter tuples passing (a)-(d), in lexicographic (k, r, s, t) order.

    Distinct tuples may define equal morphisms; deduplication is left to the
    caller at the table level.
    """
    check_csm_guard(n)
    found = []
    for k in range(2, n):
        if n % k != 0:
            continue
        q = n // k
        for r in range(q):
            for s in range(q):
                if gcd(s, q) != 1:
                    continue
                m = _csm_order(n, k, r, s)
                for t in range(m):
                    # a non-unit t fails _csm_checked too; skipping it here saves the raise
                    if gcd(t, m) != 1:
                        continue
                    try:
                        found.append(_csm_checked(n, k, r, s, t, m))
                    except ParameterRejection:
                        continue
    return found


# ---------------------------------------------------------------------------
# Square roots of automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootParams:
    n: int
    k: int
    s: int
    ell: int
    w: int
    w_inv: int
    order: int  # 2 * k * ell


def root_params(n: int, k: int, s: int) -> RootParams:
    if k < 1 or n < 2:
        raise ParameterRejection("a", f"need n >= 2, k >= 1, got n={n}, k={k}")
    s %= n
    if k % 2 == 1:
        if n % (k * k) != 0:
            raise ParameterRejection("a", f"k^2={k*k} does not divide n={n}")
        if gcd(s, n) != 1:
            raise ParameterRejection("a", f"s={s} is not a unit mod n")
    else:
        if n % (2 * k * k) != 0:
            raise ParameterRejection("a", f"2k^2={2*k*k} does not divide n={n}")
        if gcd(s, n // 2) != 1:
            raise ParameterRejection("a", f"s={s} is not a unit mod n/2")
    if (s + 1) % k != 0:
        raise ParameterRejection("b", f"s={s} is not -1 mod k={k}")
    q = n // k
    so = multiplicative_order(s % q if q > 1 else 0, q)
    if so % 2 != 0:
        raise ParameterRejection("b", f"s has odd multiplicative order {so} mod n/k")
    ell = so // 2
    # w = (k/n)(s^(2l) - 1) - l*s(s-1)/2 mod k; the first term is an exact
    # integer because s^(2l) = 1 mod n/k.
    w = ((pow(s, 2 * ell) - 1) // q - ell * (s * (s - 1) // 2)) % k
    if gcd(w, k) != 1:
        raise ParameterRejection("b", f"w={w} is not a unit mod k={k}")
    w_inv = pow(w, -1, k) if k > 1 else 0
    return RootParams(n, k, s, ell, w, w_inv, 2 * k * ell)


def root_construct(params: RootParams) -> SkewMorphism:
    """phi(x) = s*x - x(x-1)*n/(2k) mod n; phi^2 is an automorphism.

    phi^2 is checked by as_skew_morphism, which tests additivity exactly:
    a bijection is a skew morphism with pi = 1 everywhere iff it is
    additive, so this is the same check as validating phi^2 and asking
    for power 1, without deriving a power function."""
    n, k, s = params.n, params.k, params.s
    step = n // k
    table = tuple((s * x - (x * (x - 1) // 2) * step) % n for x in range(n))
    sm = try_validate(make_group([n]), table)
    _require(sm is not None, "square-root family table fails to validate")
    _require(sm.order == params.order, "square-root family order is not 2kl")
    _require(skew_type(sm) == k, "square-root family skew-type is not k")
    m = sm.order
    expected_power = tuple((1 + 2 * x * params.w_inv * params.ell) % m for x in range(n))
    _require(sm.power == expected_power, "square-root family power function mismatch")
    try:
        as_skew_morphism(Automorphism(sm.group, tuple(sm.perm[y] for y in sm.perm)))
    except ValueError:
        raise FamilyConsistencyError("phi^2 is not an automorphism") from None
    return sm


def _require_odd_prime(p: int) -> None:
    if p < 3 or factorint(p) != {p: 1}:
        raise ParameterRejection("p", f"p={p} is not an odd prime")


def pns_witness_odd(p: int, e: int) -> SkewMorphism:
    """Non-smooth witness on Z_{p^e}: phi(x) = -x - p^(e-1) x(x-1)/2, order 2p."""
    _require_odd_prime(p)
    if e < 2:
        raise ParameterRejection("e", f"need e >= 2, got {e}")
    n = p**e
    sm = root_construct(root_params(n, p, n - 1))
    _require(not is_smooth(sm), "odd square-root witness is smooth")
    m = sm.order
    _require(sm.power[1] == m - 1 and sm.power[sm.perm[1]] == 3 % m, "odd witness power jump")
    return sm


def pns_witness_two(e: int) -> SkewMorphism:
    """Non-smooth witness on Z_{2^e} (e >= 5): phi(x) = -x - 2^(e-3) x(x-1), order 8."""
    if e < 5:
        raise ParameterRejection("e", f"need e >= 5, got {e}")
    n = 2**e
    sm = root_construct(root_params(n, 4, n - 1))
    _require(not is_smooth(sm), "2-power square-root witness is smooth")
    _require(sm.order == 8, "2-power square-root witness order is not 8")
    _require(sm.power[1] == 7 and sm.power[sm.perm[1]] == 3, "2-power witness power jump")
    return sm


# ---------------------------------------------------------------------------
# Proper skew morphisms of Z_p x Z_p
# ---------------------------------------------------------------------------


def nse_construct(p: int, d: int, nu: int, r: int) -> SkewMorphism:
    """The proper skew morphism of Z_p x Z_p with parameters (d, nu, r).

    Basis (a, x) with a = (1,0) and x = (0,1); the image of a^i x^j has
    x-exponent r*j and a-exponent r*i + c*j(j-1) + beta*j with c =
    d*r*nu/2, and its power is 1 + j*nu*k mod p*k, k = ord_p(r).  The
    kernel shift b = a^beta is solved for, not searched:

    Lemma.  A table of this shape with order p*k and that power function
    validates only if beta = r*d*(nu/2 + 1/k) mod p.

    Proof.  Write f(j) = c*j(j-1) + beta*j, so phi(i, j) = (r*i + f(j),
    r*j) and phi^s(i, j) = (r^s*i + sum_{t<s} r^(s-1-t) f(r^t j), r^s j).
    Take x = (0, 1), with pi(x) = e = 1 + nu*k, and b = (i', j') in the
    defining identity phi(x + b) = phi(x) + phi^e(b).  The x-exponents
    agree since r^e = r.  In the a-exponent, r^(e-1) = r^(nu*k) = 1 turns
    each term r^(e-1-t) f(r^t j') into c*j'(r^t j' - 1) + beta*j', and
    sum_{t<e} r^t = 1 (mod p): it is nu full periods of r, each summing to
    (r^k - 1)/(r - 1) = 0 since r != 1, plus r^(nu*k) = 1.  So phi^e(b) has
    a-exponent r*i' + c*j'^2 - e*c*j' + e*beta*j'.  After r*i' cancels,
    the identity reads c*j'^2 + c*j' + beta*j' + beta = beta + c*j'^2 -
    e*c*j' + e*beta*j', which at j' = 1 is (e - 1)*(beta - c) = 2c, that
    is nu*k*(beta - c) = 2c.  Both nu and k lie in [1, p), so nu*k is a
    unit mod p and beta = c + 2c/(nu*k) = r*d*(nu/2 + 1/k).  Sufficiency is
    not claimed: the one table is revalidated, and any failure raises
    FamilyConsistencyError.
    """
    _require_odd_prime(p)
    if not 1 <= d < p or not 1 <= nu < p:
        raise ParameterRejection("d/nu", f"d={d}, nu={nu} must lie in [1, p)")
    if not 2 <= r < p:
        raise ParameterRejection("r", f"r={r} must lie in [2, p)")
    k = multiplicative_order(r, p)
    m = p * k
    inv2 = pow(2, -1, p)
    c = d * r * nu * inv2
    beta = r * d * (nu * inv2 + pow(k, -1, p))
    shift = [(c * j * (j - 1) + beta * j) % p for j in range(p)]
    table = tuple(((r * i + shift[j]) % p) * p + (r * j) % p for i in range(p) for j in range(p))
    sm = try_validate(make_group([p, p]), table)
    label = f"(p,d,nu,r)=({p},{d},{nu},{r})"
    _require(sm is not None and sm.order == m, f"{label}: solved kernel shift fails to validate")
    expected_power = tuple((1 + j * nu * k) % m for i in range(p) for j in range(p))
    _require(sm.power == expected_power, f"{label}: power function is not 1 + j*nu*k")
    _require(kernel(sm).members == tuple(i * p for i in range(p)), f"{label}: kernel is not <a>")
    _require(not is_smooth(sm), f"{label}: Z_p x Z_p proper morphism should be non-smooth")
    return sm


def nse_params_range(p: int) -> list[tuple[int, int, int]]:
    """All admissible (d, nu, r) triples for Z_p x Z_p."""
    return [
        (d, nu, r)
        for d in range(1, p)
        for nu in range(1, p)
        for r in range(2, p)
    ]


# ---------------------------------------------------------------------------
# Direct products and non-smooth witnesses
# ---------------------------------------------------------------------------


class DirectProductRejection(ValueError):
    """The gcd criterion fails; carries a witness element."""

    def __init__(self, side: str, element: int, value: int, modulus: int):
        self.side = side
        self.element = element
        super().__init__(
            f"power {value} at {side} element {element} is not 1 mod gcd {modulus}"
        )


def direct_product(sm_a: SkewMorphism, sm_b: SkewMorphism) -> SkewMorphism:
    """phi x psi on A x B; accepted iff both power functions are 1 mod gcd of orders."""
    d = gcd(sm_a.order, sm_b.order)
    one = 1 % d
    for a in range(sm_a.group.order):
        if sm_a.power[a] % d != one:
            raise DirectProductRejection("left", a, sm_a.power[a], d)
    for b in range(sm_b.group.order):
        if sm_b.power[b] % d != one:
            raise DirectProductRejection("right", b, sm_b.power[b], d)
    product = make_group(sm_a.group.factors + sm_b.group.factors)
    nb = sm_b.group.order
    table = tuple(
        sm_a.perm[a] * nb + sm_b.perm[b]
        for a in range(sm_a.group.order)
        for b in range(nb)
    )
    sm = try_validate(product, table)
    _require(sm is not None, "direct product passed the criterion but failed validation")
    _require(
        all(
            (pw - pa) % sm_a.order == 0 and (pw - pb) % sm_b.order == 0
            for pw, (pa, pb) in zip(sm.power, _cartesian(sm_a.power, sm_b.power))
        ),
        "direct product power is not congruent to both factors' powers",
    )
    return sm


def _witness_seed(pieces: list[tuple[int, int]]) -> tuple[SkewMorphism, list[int]] | None:
    """A non-smooth seed on some of the primary pieces, given as (p, e) each.

    Returns (seed, positions) with positions the indices of the pieces the
    seed is built on, in the order of its factors, or None when none of the
    witness families applies.  The first that applies is taken: an odd
    p**e with e >= 2, then two pieces of one odd prime, then 2**e with e >= 5.
    """
    by_prime: dict[int, list[int]] = {}
    for idx, (p, _) in enumerate(pieces):
        by_prime.setdefault(p, []).append(idx)
    for p in sorted(set(by_prime) - {2}):
        for idx in by_prime[p]:
            if pieces[idx][1] >= 2:
                return pns_witness_odd(*pieces[idx]), [idx]
        if len(by_prime[p]) >= 2:
            return nse_construct(p, 1, 1, 2), by_prime[p][:2]
    for idx in by_prime.get(2, []):
        if pieces[idx][1] >= 5:
            return pns_witness_two(pieces[idx][1]), [idx]
    return None


def nonsmooth_witness(group: AbelianGroup) -> SkewMorphism | None:
    """A validated non-smooth skew morphism of `group`, or None.

    None is a guarantee only for cyclic groups of smooth-only order; for
    non-cyclic groups it just means the constructions at hand do not apply.
    The witness is built on the primary pieces of the factors, with the
    seed's pieces first, and carried back to `group` along the inverse of
    the one isomorphism remap gives onto that arrangement.
    """
    pieces = primary_pieces(group)
    # each piece is a prime power q = p**e, so it yields one (p, e)
    found = _witness_seed([pe for _, q in pieces for pe in factorint(q).items()])
    if found is None:
        return None
    seed, positions = found
    rest = [i for i in range(len(pieces)) if i not in positions]
    arranged, fwd = remap(group, [pieces[i] for i in positions + rest])

    rest_group = make_group(arranged.factors[len(positions):])
    witness = direct_product(seed, identity_morphism(rest_group))
    _require(witness.group == arranged, "witness product is not on the arranged group")

    out = relabel(witness, invert(fwd), group)
    _require(not is_smooth(out), "non-smooth witness is smooth")
    return out
