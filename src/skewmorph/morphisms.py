"""Skew morphism validation and the derived invariants.

A skew morphism of an abelian group A is a permutation phi of A fixing 0
such that phi(a + b) = phi(a) + phi^pi(a)(b) for some integer-valued power
function pi.  Validation derives pi from the permutation table; everything
else (kernel, core, smoothness, skew product group, quotients, conjugation,
reciprocity) is computed from the validated pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .groups import (
    AbelianGroup,
    Automorphism,
    Subgroup,
    _orbits,
    automorphism_chain,
    compose,
    crt_pair,
    invert,
    is_bijection,
    perm_order,
    quotient_group,
    subgroup_from_members,
)


class SkewMorphismRejection(ValueError):
    """A permutation failed skew-morphism validation.

    `reason` is one of 'not-bijection', 'identity-moved', 'no-power';
    `element`/`witness` carry the smallest failing a (and b, if available).
    """

    def __init__(self, reason: str, element: int | None = None, witness: int | None = None):
        self.reason = reason
        self.element = element
        self.witness = witness
        detail = ""
        if element is not None:
            detail = f" at a={element}"
            if witness is not None:
                detail += f", b={witness}"
        super().__init__(f"{reason}{detail}")


@dataclass(frozen=True)
class SkewMorphism:
    group: AbelianGroup
    perm: tuple[int, ...]
    order: int
    power: tuple[int, ...]  # canonical residues in [0, order)

    @cached_property
    def is_automorphism(self) -> bool:
        one = 1 % self.order
        return all(v == one for v in self.power)

    @cached_property
    def _kernel(self) -> Subgroup:
        # kernel(sm) reads this, so each morphism object derives it once
        one = 1 % self.order
        members = [a for a in range(self.group.order) if self.power[a] == one]
        return subgroup_from_members(self.group, members)

    @property
    def is_proper(self) -> bool:
        return not self.is_automorphism

    @cached_property
    def power_tables(self) -> list[tuple[int, ...]]:
        """perm**j for j in 0..order-1."""
        return _power_list(self.perm, self.order)


def _power_list(perm: tuple[int, ...], limit: int) -> list[tuple[int, ...]] | None:
    """[perm**0, ..., perm**(m-1)], m = |perm|, each listed from the one
    before by composing with perm; None, after limit tables, when m > limit."""
    identity = tuple(range(len(perm)))
    step = itemgetter(*perm)  # step(t) = t . perm, the next power after t
    powers = [identity]
    table = perm
    while table != identity:
        if len(powers) == limit:
            return None
        powers.append(table)
        table = step(table)
    return powers


def _power_index(perm: tuple[int, ...]) -> dict[tuple[int, ...], int] | None:
    """{perm**j: j for 0 <= j < |perm|}, or None when |perm| >= |A| > 1,
    which no skew morphism has: the listing stops at |A| - 1 tables."""
    powers = _power_list(perm, len(perm) - 1)
    return None if powers is None else dict(zip(powers, range(len(powers))))


def _trace_cycle(perm: tuple[int, ...], b: int, pins) -> None:
    """Lay out b's cycle of perm in pins (_power_witness), traced from b."""
    heads, offsets, lengths = pins
    y, i = b, 0
    while True:
        heads[y] = b
        offsets[y] = i
        i += 1
        y = perm[y]
        if y == b:
            break
    lengths[b] = i


def _power_witness(perm: tuple[int, ...], shift, pins, pairs, res: int, mod: int) -> int | None:
    """The first b of pairs (b, x) at which no e = res (mod mod) has
    perm**e(b) = shift[perm[x]] there and at every pair before it, or None
    when some e agrees at every pair.

    pins = (heads, offsets, lengths) lays out the cycles of perm traced so
    far (_trace_cycle), and each b's cycle is traced when b is first read:
    heads[y] is the member that y's cycle was traced from (-1 where it has
    not been traced), offsets[y] is y's position along it from there, and
    lengths[h] is the length of the cycle traced from h.  perm**e(b) = y
    holds exactly when y lies on b's cycle and e = offsets[y] - offsets[b]
    (mod its length), so the e that agree at the pairs read so far form one
    class, merged by CRT (groups.crt_pair), or none.  The validator's
    explanation reads D_a this way (pairs (b, a + b), validate), and so
    does the search's region check (enumeration._region_holds).
    """
    heads, offsets, lengths = pins
    for b, x in pairs:
        if heads[b] < 0:
            _trace_cycle(perm, b, pins)
        y = shift[perm[x]]
        head = heads[b]
        if heads[y] != head:
            return b
        length = lengths[head]
        e = offsets[y] - offsets[b]
        if mod % length:
            merged = crt_pair(res, mod, e, length)
            if merged is None:
                return b
            res, mod = merged
        elif (e - res) % length:  # the class mod mod fixes e mod length
            return b
    return None


def try_validate(group: AbelianGroup, perm: Sequence[int]) -> SkewMorphism | None:
    """Validate a permutation table and derive its power function; None on
    rejection.

    For each a the displacement D_a(b) = perm[a+b] - perm[a] must equal
    perm**j for some j, which is then pi(a).

    Order bound.  Every skew morphism of A with |A| > 1 has |phi| < |A|
    (Conder-Jajcay-Tucker, J. Algebra 453 (2016)), so a table that has
    not returned to the identity within |A| - 1 steps is refused before
    any row is read.

    Index lemma.  The powers perm**0 .. perm**(m-1), m = |perm|, are
    pairwise distinct, and they are all the powers of perm.  So D_a is a
    power of perm exactly when it is a key of the dict {perm**j: j}
    (_power_index), and the value is the one j in [0, m) that gives it:
    each row costs one tuple and one lookup, and the test is exact.  The
    index holds m < |A| tables of |A| entries, O(|A| * |phi|) memory, less
    than one addition table.

    Only the rows of X, the union of the cycles of perm through the basis
    elements g (group.weights), are looked up; pi follows everywhere else
    by a recurrence (Jajcay-Siran, Discrete Math. 244 (2002)).  Iterating
    the identity along the orbit of g gives perm**i(g + b) = perm**i(g) +
    perm**sigma_g(i)(b), with sigma_g(i) the sum of pi(perm**j(g)) over
    j < i.  So if the identity holds at x and on the orbit of g, then

        phi(x+g+b) = phi(x) + phi^pi(x)(g+b)
                   = phi(x) + phi^pi(x)(g) + phi^sigma_g(pi(x))(b)
                   = phi(x+g) + phi^sigma_g(pi(x))(b),

    and the identity holds at x+g with pi(x+g) = sigma_g(pi(x)) mod m.
    D_0 = perm since perm[0] = 0, so pi(0) = 1, and each a > 0 is x + g with
    x = a - g < a for g the weight of a's leading nonzero coordinate; by
    induction on a the identity holds on all of <X> = A.  The exponent is
    unique mod m, so pi is the tuple a lookup of every row would give.
    """
    perm = tuple(perm)
    n = group.order
    if not is_bijection(perm, n) or perm[0] != 0:
        return None
    index = _power_index(perm)
    if index is None:
        return None
    m = len(index)
    add = group.add_table
    neg = group.neg_list
    basis = group.weights
    orbits: set[int] = set()  # X, the union of the orbits of the weights
    for g in basis:
        while g not in orbits:
            orbits.add(g)
            g = perm[g]
    power = [1 % m] * n
    for a in orbits:
        # D_a as a tuple: perm[a + b] for every b, shifted by -perm[a]
        j = index.get(itemgetter(*itemgetter(*add[a])(perm))(add[neg[perm[a]]]))
        if j is None:
            return None
        power[a] = j
    # the weights descend, so [g, top) holds the a whose leading nonzero
    # coordinate is g's; taken smallest g first, a - g is always filled
    for g, top in reversed(tuple(zip(basis, (n,) + basis[:-1]))):
        sigma = [0]
        x = g
        for _ in range(m - 1):
            sigma.append((sigma[-1] + power[x]) % m)
            x = perm[x]
        for a in range(g, top):
            power[a] = sigma[power[a - g]]
    return SkewMorphism(group, perm, m, tuple(power))


def validate(group: AbelianGroup, perm: Sequence[int]) -> SkewMorphism:
    """Validate a permutation table and derive its power function.

    Raises SkewMorphismRejection carrying the smallest failing element.
    Only when try_validate refuses is the rejection explained: not a
    bijection, the identity moved, or the smallest failing a and its
    smallest witness b (_power_witness), found by pinning every row from
    a = 1 by CRT, which needs no index and so covers over-order tables.
    """
    perm = tuple(perm)
    sm = try_validate(group, perm)
    if sm is not None:
        return sm
    n = group.order
    if not is_bijection(perm, n):
        raise SkewMorphismRejection("not-bijection")
    if perm[0] != 0:
        raise SkewMorphismRejection("identity-moved", 0)
    add = group.add_table
    pins = [-1] * n, [0] * n, {}
    for a in range(1, n):
        b = _power_witness(perm, add[group.neg_list[perm[a]]], pins, enumerate(add[a]), 0, 1)
        if b is not None:
            raise SkewMorphismRejection("no-power", a, b)
    # unreachable for a rejected table; raised, not asserted, so that it holds under python -O
    raise AssertionError("no failing row found in a rejected table")


def identity_morphism(group: AbelianGroup) -> SkewMorphism:
    n = group.order
    return SkewMorphism(group, tuple(range(n)), 1, (0,) * n)


def as_skew_morphism(theta: Automorphism) -> SkewMorphism:
    """An automorphism as the skew morphism of power 1 everywhere.

    The check is exact without deriving pi: a bijection with theta(a + g)
    = theta(a) + theta(g) for every a and every basis weight g is additive,
    by induction over b written as a sum of weights in theta(a + b), and an
    additive bijection satisfies the defining identity with pi = 1.  For
    each g both sides are built as whole rows over a and compared as
    tuples.  Its order is the lcm of its cycle lengths."""
    group, table = theta.group, theta.table
    add = group.add_table
    if not is_bijection(table, group.order) or any(
        itemgetter(*add[g])(table) != itemgetter(*table)(add[table[g]]) for g in group.weights
    ):
        raise ValueError("not an automorphism")
    m = perm_order(table)
    return SkewMorphism(group, tuple(table), m, (1 % m,) * group.order)


def is_smooth(sm: SkewMorphism) -> bool:
    power = sm.power
    return tuple(map(power.__getitem__, sm.perm)) == power


def kernel(sm: SkewMorphism) -> Subgroup:
    """Ker phi, the elements of power 1, derived once per morphism object
    and kept on it.

    Kernel-order lemma.  Let o be the least o >= 1 with phi^o fixing K =
    Ker phi pointwise (the order of phi restricted to K where phi maps K
    onto itself, as both searches of enumeration have it).  Then every
    power pi(b) is 1 mod o.  Proof: for a in K and any b, expanding
    phi(a + b) = phi(b + a) gives phi(a) + phi(b) = phi(b) +
    phi^pi(b)(a), so phi^(pi(b) - 1) fixes K pointwise.  The exponents j
    with phi^j fixing K pointwise are the multiples of o, and |phi| is
    one, so pi(b) - 1 is a multiple of o, well defined mod |phi|.  Both
    searches prune by it."""
    return sm._kernel


def core(sm: SkewMorphism) -> Subgroup:
    """Intersection of phi^i(Ker phi) over i = 1..order."""
    ker = set(kernel(sm).members)
    img = set(ker)
    out = set(ker)  # the i = order term is Ker itself
    for _ in range(1, sm.order):
        img = {sm.perm[x] for x in img}
        out &= img
    return subgroup_from_members(sm.group, out)


def skew_type(sm: SkewMorphism) -> int:
    return sm.group.order // kernel(sm).size


def conjugate(sm: SkewMorphism, theta: Automorphism) -> SkewMorphism:
    """theta . phi . theta^-1: the transport of phi along theta (relabel).

    Lemma.  For phi with power pi and theta in Aut(A), psi = theta phi
    theta^-1 is a skew morphism with power pi . theta^-1, |psi| = |phi|
    and Ker psi = theta(Ker phi).  Proof: psi^i = theta phi^i theta^-1,
    so psi(a + b) = theta(phi(theta^-1 a) + phi^pi(theta^-1 a)(theta^-1 b))
    = psi(a) + psi^pi(theta^-1 a)(b), and pi(theta^-1 a) = 1 exactly when
    theta^-1 a lies in Ker phi.  Conjugation by theta^-1 undoes it, so it
    maps skew morphisms one to one onto skew morphisms.  The result is
    revalidated all the same."""
    if theta.group != sm.group:
        raise ValueError("automorphism acts on a different group")
    return relabel(sm, theta.table, sm.group)


def equivalence_classes(morphisms: Sequence[SkewMorphism]) -> list[list[SkewMorphism]]:
    """Partition a list of skew morphisms into conjugation-equivalence classes.

    Two morphisms are equivalent when some automorphism conjugates one to
    the other; the input need not be closed under the action.
    """
    if not morphisms:
        return []
    group = morphisms[0].group
    if any(sm.group != group for sm in morphisms):
        raise ValueError("morphisms live on different groups")
    by_perm = {sm.perm: sm for sm in morphisms}

    def move(theta, perm):
        # theta perm theta^-1, a skew morphism's perm when perm is one
        # (conjugate)
        return tuple(theta[perm[x]] for x in invert(theta))

    autos = automorphism_chain(group)
    return [
        [by_perm[p] for p in sorted(by_perm.keys() & {perm, *moves})]
        for perm, moves, _ in _orbits(sorted(by_perm), autos.generators, autos.order, move)
    ]


def relabel(sm: SkewMorphism, iso: Sequence[int], target: AbelianGroup) -> SkewMorphism:
    """Transport along a group isomorphism given as an element table."""
    back = invert(iso)
    table = tuple(iso[sm.perm[back[x]]] for x in range(target.order))
    out = try_validate(target, table)
    if out is None:  # raised, not asserted, so that it holds under python -O
        raise AssertionError("transport along an isomorphism failed validation")
    return out


# ---------------------------------------------------------------------------
# Power-function arithmetic in the skew product group
# ---------------------------------------------------------------------------


def power_prefix_sums(sm: SkewMorphism) -> list[list[int]]:
    """sigma[i][b] = sum of pi(phi^t(b)) for t < i, reduced mod order.

    These exponents drive the coset rule phi^i . L_b = L_{phi^i(b)} . phi^sigma.
    """
    m = sm.order
    n = sm.group.order
    sig = [[0] * n]
    cur = list(range(n))
    for _ in range(m):
        row = sig[-1]
        nxt = [(row[b] + sm.power[cur[b]]) % m for b in range(n)]
        sig.append(nxt)
        cur = [sm.perm[x] for x in cur]
    return sig


@dataclass(frozen=True)
class SkewProductGroup:
    """The permutation group L_A<phi> with elements named (a, i) = L_a . phi^i."""

    morphism: SkewMorphism
    pairs: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        return len(self.pairs)

    @cached_property
    def _sigma(self) -> list[list[int]]:
        return power_prefix_sums(self.morphism)

    def compose_pairs(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        (a, i), (b, j) = x, y
        sm = self.morphism
        return (
            sm.group.add_table[a][sm.power_tables[i][b]],
            (self._sigma[i][b] + j) % sm.order,
        )

    def inverse_pair(self, x: tuple[int, int]) -> tuple[int, int]:
        a, i = x
        sm = self.morphism
        b = sm.power_tables[(-i) % sm.order][sm.group.neg_list[a]]
        j = (-self._sigma[i][b]) % sm.order
        return (b, j)

    def pair_table(self, x: tuple[int, int]) -> tuple[int, ...]:
        """The actual permutation of A named by the pair."""
        a, i = x
        sm = self.morphism
        row = sm.group.add_table[a]
        pw = sm.power_tables[i]
        return tuple(row[pw[v]] for v in range(sm.group.order))

    def verify_closure(self) -> None:
        """Exhaustive check that pair arithmetic matches permutation composition."""
        tables = {p: self.pair_table(p) for p in self.pairs}
        known = {t: p for p, t in tables.items()}
        if len(known) != len(self.pairs):
            raise AssertionError("pair names collide as permutations")
        for p in self.pairs:
            for q in self.pairs:
                if known.get(compose(tables[p], tables[q])) != self.compose_pairs(p, q):
                    raise AssertionError(f"pair arithmetic disagrees with composition at {p}, {q}")


def skew_product_group(sm: SkewMorphism) -> SkewProductGroup:
    """Build L_A<phi>; verifies that the |A|*|phi| pair names are distinct.

    L_a . phi^i sends 0 to a, so two names with different a differ, and two
    with the same a differ exactly when their powers phi^i do.
    """
    n = sm.group.order
    pairs = tuple((a, i) for a in range(n) for i in range(sm.order))
    if len(set(sm.power_tables)) != sm.order:
        raise AssertionError("skew product factorization is not exact")
    return SkewProductGroup(sm, pairs)


def core_of_translations(spg: SkewProductGroup) -> Subgroup:
    """Largest B <= A with L_B normal in the skew product group.

    Computed at the permutation level: a belongs iff every phi-power
    conjugate of the translation by a is again a translation by a member.
    The translation subgroup is normalized by translations (A abelian), so
    phi-power conjugates decide normality.  conj(x) = phi^-i(a + phi^i(x))
    is the translation by c = conj(0) = phi^-i(a) iff a + phi^i(x) =
    phi^i(c + x) for every x; both sides are built as whole rows by
    itemgetter and compared as tuples.
    """
    sm = spg.morphism
    add = sm.group.add_table
    shifted = [itemgetter(*row) for row in add]  # shifted[c](t)[x] = t[c + x]
    surviving = list(range(sm.group.order))
    for i in range(1, sm.order):
        pw = sm.power_tables[i]
        pw_inv = sm.power_tables[sm.order - i]
        through = itemgetter(*pw)  # through(row)[x] = row[phi^i(x)]
        surviving = [a for a in surviving if through(add[a]) == shifted[pw_inv[a]](pw)]
    return subgroup_from_members(sm.group, surviving)


def is_corefree_cyclic_part(spg: SkewProductGroup) -> bool:
    """Whether <phi> contains no nontrivial subgroup normal in the product group.

    Intersects the translation conjugates of <phi>: phi^j survives iff
    L_a . phi^j . L_a^-1 is a power of phi for every a.
    """
    sm = spg.morphism
    n = sm.group.order
    add = sm.group.add_table
    neg = sm.group.neg_list
    power_index = {sm.power_tables[j]: j for j in range(sm.order)}
    surviving = set(range(sm.order))
    for a in range(n):
        row = add[a]
        neg_a = neg[a]
        keep = set()
        for j in surviving:
            pw = sm.power_tables[j]
            conj = tuple(row[pw[add[neg_a][x]]] for x in range(n))
            if conj in power_index:
                keep.add(j)
        surviving = keep
        if surviving == {0}:
            break
    return surviving == {0}


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def quotient_skew(sm: SkewMorphism, sub: Subgroup | Iterable[int]) -> SkewMorphism:
    """The induced skew morphism on A/B when phi permutes the cosets of B.

    Raises SkewMorphismRejection('coset-partition', a) when phi does not
    respect the partition.  Validation of the induced table and the power
    congruence pi_bar(a_bar) = pi(a) mod |phi_bar| are checked, raising
    AssertionError even under python -O: they are guaranteed whenever the
    partition comes from a normal subgroup of the product group, so a
    failure here means a validation bug.
    """
    quotient, proj = quotient_group(sm.group, sub)
    n = sm.group.order
    induced: dict[int, int] = {}
    for a in range(n):
        src, dst = proj[a], proj[sm.perm[a]]
        if induced.setdefault(src, dst) != dst:
            raise SkewMorphismRejection("coset-partition", a)
    table = tuple(induced[c] for c in range(quotient.order))
    out = try_validate(quotient, table)
    if out is None:
        raise AssertionError("induced map on a phi-invariant partition failed validation")
    if any((sm.power[a] - out.power[proj[a]]) % out.order for a in range(n)):
        raise AssertionError("quotient power function disagrees with the original")
    return out


# ---------------------------------------------------------------------------
# Reciprocal pairs (cyclic groups only)
# ---------------------------------------------------------------------------


def is_reciprocal_pair(sm: SkewMorphism, sm_tilde: SkewMorphism) -> bool:
    """Order-divisibility plus the crossed power conditions for (Z_m, Z_n).

    Both groups must have at most one factor: element x is read as x*1 and
    n - 1 as -1, which holds only in the one-factor presentation of Z_n.
    """
    if len(sm.group.factors) > 1 or len(sm_tilde.group.factors) > 1:
        raise ValueError("reciprocal pairs are defined for one-factor cyclic groups Z_n")
    m = sm.group.order
    n = sm_tilde.group.order
    if n % sm.order != 0 or m % sm_tilde.order != 0:
        return False
    for x in range(m):
        val = sm_tilde.power_tables[(-x) % sm_tilde.order][n - 1] if n > 1 else 0
        if (sm.power[x] + val) % sm.order != 0:
            return False
    for y in range(n):
        val = sm.power_tables[(-y) % sm.order][m - 1] if m > 1 else 0
        if (sm_tilde.power[y] + val) % sm_tilde.order != 0:
            return False
    return True
