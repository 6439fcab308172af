"""Finite abelian groups with exact integer arithmetic.

A group is given by a list of cyclic factors (each at least 2); the empty
list is the trivial group.  Elements are the integers 0..order-1 under a
fixed mixed-radix encoding with the *last* factor least significant, and
0 is the identity.  All values are immutable and all operations are pure.

The hot paths use `add_table` and `neg_list`, which are built from the
factors alone, one factor at a time (see `AbelianGroup.add_table`), not
with the checked per-element `add` and `neg`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product as _cartesian
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence

SUBGROUP_GUARD = 256


class InvalidFactorError(ValueError):
    """A cyclic factor below 2, or an unparseable group literal."""


class SizeGuardError(RuntimeError):
    """A size guard was exceeded; raise the guard explicitly to proceed."""


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here stay tiny)."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler's phi: the number of units mod n."""
    out = n
    for p in factorint(n):
        out = out // p * (p - 1)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a**k == 1 mod n.  Requires gcd(a, n) == 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    k, x = 1, a
    while x != 1:
        x = (x * a) % n
        k += 1
    return k


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Merge the congruences x = r1 (mod m1), x = r2 (mod m2).

    Returns (r, lcm(m1, m2)) or None when the congruences conflict.
    """
    g = gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 != g else 0
    return (r1 + m1 * t) % l, l


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group in factored form."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            if not isinstance(f, int) or f < 2:
                raise InvalidFactorError(f"factor {f!r} is not an integer >= 2")

    @cached_property
    def order(self) -> int:
        return prod(self.factors)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Mixed-radix place values; weights[-1] == 1."""
        w = []
        acc = 1
        for f in reversed(self.factors):
            w.append(acc)
            acc *= f
        return tuple(reversed(w))

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.factors) if self.factors else 1

    @cached_property
    def is_cyclic(self) -> bool:
        return self.exponent == self.order

    @cached_property
    def label(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{f}" for f in self.factors)

    def coords(self, a: int) -> tuple[int, ...]:
        self._check(a)
        out = []
        for w, f in zip(self.weights, self.factors):
            out.append((a // w) % f)
        return tuple(out)

    def index_of(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factors):
            raise ValueError("coordinate arity mismatch")
        a = 0
        for c, w, f in zip(coords, self.weights, self.factors):
            a += (c % f) * w
        return a

    def elements(self) -> range:
        return range(self.order)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise IndexError(f"element index {a} out of range for {self.label}")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        s = 0
        for w, f in zip(self.weights, self.factors):
            s += (((a // w) + (b // w)) % f) * w
        return s

    def neg(self, a: int) -> int:
        self._check(a)
        s = 0
        for w, f in zip(self.weights, self.factors):
            s += (-(a // w) % f) * w
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def scalar(self, k: int, a: int) -> int:
        """k-fold sum of a (k may be negative)."""
        self._check(a)
        s = 0
        for w, f in zip(self.weights, self.factors):
            s += ((k * (a // w)) % f) * w
        return s

    def element_order(self, a: int) -> int:
        self._check(a)
        o = 1
        for w, f in zip(self.weights, self.factors):
            c = (a // w) % f
            o = lcm(o, f // gcd(c, f))
        return o

    @cached_property
    def add_table(self) -> list[list[int]]:
        """Full addition table; add_table[a][b] == add(a, b).

        Built factor by factor.  In G x Z_f the element a = hi*f + lo adds
        to b = hi'*f + lo' as (hi + hi')*f + (lo + lo') % f, so the row of a
        is G's row of hi with each entry h replaced by the run h*f .. h*f+f-1
        rotated left by lo.
        """
        table = [[0]]
        for f in self.factors:
            runs = [list(range(h * f, h * f + f)) for h in range(len(table))]
            rotated = [[run[lo:] + run[:lo] for run in runs] for lo in range(f)]
            table = [
                list(chain.from_iterable(map(blocks.__getitem__, row)))
                for row in table
                for blocks in rotated
            ]
        return table

    @cached_property
    def neg_list(self) -> list[int]:
        """neg_list[a] == neg(a), built factor by factor like add_table."""
        negs = [0]
        for f in self.factors:
            negs = [h * f + -lo % f for h in negs for lo in range(f)]
        return negs


def make_group(factors: Iterable[int]) -> AbelianGroup:
    return AbelianGroup(tuple(factors))


TRIVIAL_GROUP = make_group(())

_LITERAL_RE = re.compile(r"z(\d+)((?:xz\d+)*)", re.IGNORECASE)


def parse_group_literal(text: str) -> AbelianGroup:
    """Parse 'Z6', 'Z2xZ4', ... (case-insensitive).  Z1 factors are dropped."""
    s = text.strip().replace(" ", "").lower()
    m = _LITERAL_RE.fullmatch(s)
    if not m:
        raise InvalidFactorError(f"cannot parse group literal {text!r}")
    parts = [int(p) for p in re.findall(r"\d+", s)]
    if any(p < 1 for p in parts):
        raise InvalidFactorError(f"cannot parse group literal {text!r}")
    return make_group(f for f in parts if f > 1)


def abelian_group_presentations(n: int) -> list[AbelianGroup]:
    """All abelian groups of order n, one presentation each (prime powers ascending)."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return [TRIVIAL_GROUP]

    def partitions(k: int, cap: int) -> list[list[int]]:
        if k == 0:
            return [[]]
        out = []
        for first in range(min(k, cap), 0, -1):
            for rest in partitions(k - first, first):
                out.append([first] + rest)
        return out

    per_prime: list[list[list[int]]] = []
    for p, e in sorted(factorint(n).items()):
        per_prime.append([[p**i for i in part] for part in partitions(e, e)])
    groups = []
    for combo in _cartesian(*per_prime):
        factors = sorted(f for piece in combo for f in piece)
        groups.append(make_group(factors))
    groups.sort(key=lambda g: g.factors)
    return groups


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its sorted member tuple; generators are found on first use."""

    group: AbelianGroup
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return minimal_generators(self.group, self.members)

    def __contains__(self, a: int) -> bool:
        return a in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)


def _closure(group: AbelianGroup, base: frozenset[int], g: int) -> frozenset[int]:
    # base must already be a subgroup; the result is the union of base + k*g.
    add = group.add_table
    out = set(base)
    shift = g
    while shift != 0:
        out.update(add[x][shift] for x in base)
        shift = add[shift][g]
    return frozenset(out)


def _is_closed(group: AbelianGroup, members: frozenset[int]) -> bool:
    if 0 not in members:
        return False
    add = group.add_table
    return all(add[x][y] in members for x in members for y in members)


def minimal_generators(group: AbelianGroup, members: Iterable[int]) -> tuple[int, ...]:
    """Greedy minimal generating sequence: maximize the span at every step."""
    target = frozenset(members)
    span: frozenset[int] = frozenset([0])
    gens: list[int] = []
    while span != target:
        best = None
        best_size = len(span)
        for x in sorted(target - span):
            size = len(_closure(group, span, x))
            if size > best_size:
                best, best_size = x, size
        assert best is not None, "generator search stalled; input not closed?"
        gens.append(best)
        span = _closure(group, span, best)
    return tuple(gens)


def subgroup_from_members(group: AbelianGroup, members: Iterable[int]) -> Subgroup:
    mset = frozenset(members)
    if not _is_closed(group, mset):
        raise ValueError("member set is not closed under addition")
    return Subgroup(group, tuple(sorted(mset)))


def subgroup_generated_by(group: AbelianGroup, gens: Iterable[int]) -> Subgroup:
    span: frozenset[int] = frozenset([0])
    for g in gens:
        span = _closure(group, span, g)
    return Subgroup(group, tuple(sorted(span)))


def enumerate_subgroups(group: AbelianGroup, guard: int = SUBGROUP_GUARD) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (size, member tuple)."""
    if group.order > guard:
        raise SizeGuardError(f"order {group.order} exceeds subgroup guard {guard}")
    trivial = frozenset([0])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        for g in range(1, group.order):
            if g in base:
                continue
            bigger = _closure(group, base, g)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    subs = [subgroup_from_members(group, s) for s in seen]
    subs.sort(key=lambda s: (s.size, s.members))
    return subs


# ---------------------------------------------------------------------------
# Permutations of the element set
# ---------------------------------------------------------------------------


def is_bijection(table: Sequence[int], n: int) -> bool:
    return len(table) == n and sorted(table) == list(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """(p after q): x -> p[q[x]]."""
    return tuple(p[v] for v in q)


def invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, v in enumerate(p):
        out[v] = x
    return tuple(out)


def cycles(p: Sequence[int]) -> list[list[int]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(cyc)
    return out


def perm_order(p: Sequence[int]) -> int:
    return lcm(*(len(c) for c in cycles(p))) if len(p) else 1


def perm_power(p: Sequence[int], k: int) -> tuple[int, ...]:
    """p**k with negative k via the inverse, by repeated squaring."""
    if k < 0:
        p, k = invert(p), -k
    out: Sequence[int] = range(len(p))
    while k:
        if k & 1:
            out = list(map(p.__getitem__, out))
        k >>= 1
        if k:
            p = list(map(p.__getitem__, p))
    return tuple(out)


@dataclass(frozen=True)
class Automorphism:
    """A group permutation satisfying table[a+b] == table[a] + table[b]."""

    group: AbelianGroup
    table: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def inverse(self) -> "Automorphism":
        return Automorphism(self.group, invert(self.table))


def is_homomorphism(group: AbelianGroup, table: Sequence[int]) -> bool:
    add = group.add_table
    n = group.order
    if table[0] != 0:
        return False
    for a in range(n):
        row = add[a]
        ta = table[a]
        for b in range(a, n):
            if table[row[b]] != add[ta][table[b]]:
                return False
    return True


def enumerate_automorphisms(
    group: AbelianGroup, guard: int = SUBGROUP_GUARD
) -> list[Automorphism]:
    """All automorphisms, by assigning images of the standard basis.

    The induced map e_i -> g_i is a homomorphism exactly when factors[i]*g_i
    vanishes; bijectivity is enforced incrementally on the partial span.
    """
    if group.order > guard:
        raise SizeGuardError(f"order {group.order} exceeds automorphism guard {guard}")
    n = group.order
    if n == 1:
        return [Automorphism(group, (0,))]
    factors = group.factors
    weights = group.weights
    add = group.add_table
    candidates = [
        [x for x in range(n) if group.scalar(f, x) == 0] for f in factors
    ]
    results: list[Automorphism] = []

    # partial[x] = image of x, for x in the span of the first i basis vectors
    def extend(i: int, partial: dict[int, int]) -> None:
        if i == len(factors):
            table = tuple(partial[x] for x in range(n))
            results.append(Automorphism(group, table))
            return
        w = weights[i]
        for g in candidates[i]:
            bigger = dict(partial)
            taken = set(partial.values())
            img = 0
            ok = True
            for c in range(1, factors[i]):
                img = add[img][g]
                for x, y in partial.items():
                    v = add[y][img]
                    if v in taken:
                        ok = False
                        break
                    taken.add(v)
                    bigger[add[x][c * w]] = v
                if not ok:
                    break
            if ok:
                extend(i + 1, bigger)

    extend(0, {0: 0})
    results.sort(key=lambda a: a.table)
    return results


# ---------------------------------------------------------------------------
# Quotients and structure decomposition
# ---------------------------------------------------------------------------


def _abstract_orders(n: int, add: Callable[[int, int], int]) -> list[int]:
    orders = [1] * n
    for x in range(1, n):
        k, y = 1, x
        while y != 0:
            y = add(y, x)
            k += 1
        orders[x] = k
    return orders


def _p_basis(elems: list[int], add: Callable[[int, int], int], p: int) -> list[int]:
    """Basis of an abelian p-group given as element list (0 = identity)."""
    if len(elems) == 1:
        return []
    index = {e: i for i, e in enumerate(elems)}
    orders = {e: 1 for e in elems}
    for e in elems:
        k, y = 1, e
        while y != 0:
            y = add(y, e)
            k += 1
        orders[e] = k
    g = max(elems, key=lambda e: (orders[e], -index[e]))
    # cosets of <g>
    cyc = [0]
    y = g
    while y != 0:
        cyc.append(y)
        y = add(y, g)
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    coset_members: list[list[int]] = []
    for e in elems:
        if e in coset_of:
            continue
        cid = len(reps)
        members = sorted(add(e, c) for c in cyc)
        for mm in members:
            coset_of[mm] = cid
        reps.append(members[0])
        coset_members.append(members)

    def qadd(i: int, j: int) -> int:
        return coset_of[add(reps[i], reps[j])]

    zero_cid = coset_of[0]
    if zero_cid != 0:  # keep 0 as the identity of the quotient
        reps[0], reps[zero_cid] = reps[zero_cid], reps[0]
        coset_members[0], coset_members[zero_cid] = coset_members[zero_cid], coset_members[0]
        coset_of = {e: (0 if c == zero_cid else (zero_cid if c == 0 else c)) for e, c in coset_of.items()}
    qbasis = _p_basis(list(range(len(reps))), qadd, p)
    lifts = []
    for qb in qbasis:
        lift = min(coset_members[qb], key=lambda e: (orders[e], e))
        lifts.append(lift)
    return [g] + lifts


def _decompose_abstract(
    n: int, add: Callable[[int, int], int]
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Invariant factors (ascending divisibility) and coordinates per element."""
    if n == 1:
        return (), [()]
    orders = _abstract_orders(n, add)
    exponent = lcm(*orders)
    primes = sorted(factorint(n))

    def scalar(k: int, x: int) -> int:
        y = 0
        k %= exponent
        b = x
        while k:
            if k & 1:
                y = add(y, b)
            b = add(b, b)
            k >>= 1
        return y

    # CRT projectors onto the Sylow components
    proj: dict[int, int] = {}
    for p in primes:
        v = factorint(exponent).get(p, 0)
        t = exponent // p**v
        u = pow(t, -1, p**v) if v else 0
        proj[p] = (u * t) % exponent

    all_factors: dict[int, list[int]] = {}
    coord_maps: dict[int, dict[int, tuple[int, ...]]] = {}
    for p in primes:
        comp = sorted(x for x in range(n) if _is_prime_power_order(orders[x], p))
        basis = _p_basis(comp, add, p)
        b_orders = [orders[b] for b in basis]
        span: dict[int, tuple[int, ...]] = {}
        for combo in _cartesian(*(range(q) for q in b_orders)):
            e = 0
            for c, b in zip(combo, basis):
                e = add(e, scalar(c, b))
            span[e] = combo
        assert len(span) == len(comp) == prod(b_orders), "p-basis is not a basis"
        all_factors[p] = b_orders
        coord_maps[p] = span

    rank = max(len(v) for v in all_factors.values())
    inv_desc = []
    for j in range(rank):
        d = 1
        for p in primes:
            if j < len(all_factors[p]):
                d *= all_factors[p][j]
        inv_desc.append(d)
    factors = tuple(reversed(inv_desc))

    coords: list[tuple[int, ...]] = []
    for x in range(n):
        per_slot = []
        for j in range(rank):
            r, mmod = 0, 1
            for p in primes:
                if j < len(all_factors[p]):
                    xp = scalar(proj[p], x)
                    cp = coord_maps[p][xp][j]
                    merged = crt_pair(r, mmod, cp, all_factors[p][j])
                    assert merged is not None
                    r, mmod = merged
            per_slot.append(r)
        coords.append(tuple(reversed(per_slot)))
    assert len(set(coords)) == n, "decomposition coordinates are not bijective"
    return factors, coords


def _is_prime_power_order(k: int, p: int) -> bool:
    while k % p == 0:
        k //= p
    return k == 1


def quotient_group(
    group: AbelianGroup, sub: Subgroup | Iterable[int]
) -> tuple[AbelianGroup, tuple[int, ...]]:
    """Quotient in invariant-factor form plus the projection map.

    The projection sends an element index of `group` to an element index of
    the quotient and is a surjective homomorphism with kernel = sub.
    """
    members = frozenset(sub.members if isinstance(sub, Subgroup) else sub)
    if not _is_closed(group, members):
        raise ValueError("quotient by a non-closed subset")
    n = group.order
    add = group.add_table
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        for b in members:
            coset_of[add[x][b]] = cid

    def qadd(i: int, j: int) -> int:
        return coset_of[add[reps[i]][reps[j]]]

    factors, coords = _decompose_abstract(len(reps), qadd)
    quotient = make_group(factors)
    proj = tuple(quotient.index_of(coords[coset_of[x]]) for x in range(n))
    return quotient, proj


# ---------------------------------------------------------------------------
# Isomorphism plumbing (used to carry morphisms between presentations)
# ---------------------------------------------------------------------------


def primary_split(group: AbelianGroup) -> tuple[AbelianGroup, tuple[int, ...], tuple[int, ...]]:
    """Split every factor into prime powers (CRT), keeping factor order.

    Returns (split_group, fwd, back) with fwd a group isomorphism table from
    `group` to `split_group` and back its inverse.
    """
    pieces_per_factor: list[list[int]] = []
    for f in group.factors:
        pieces_per_factor.append([p**e for p, e in sorted(factorint(f).items())])
    split = make_group(q for pieces in pieces_per_factor for q in pieces)
    fwd = []
    for a in range(group.order):
        cs = group.coords(a)
        out: list[int] = []
        for c, pieces in zip(cs, pieces_per_factor):
            out.extend(c % q for q in pieces)
        fwd.append(split.index_of(out))
    back = invert(fwd)
    return split, tuple(fwd), tuple(back)


def permute_factors(
    group: AbelianGroup, order: Sequence[int]
) -> tuple[AbelianGroup, tuple[int, ...], tuple[int, ...]]:
    """Reorder the factor list; returns (new_group, fwd, back) as tables."""
    assert sorted(order) == list(range(len(group.factors)))
    target = make_group(group.factors[i] for i in order)
    fwd = []
    for a in range(group.order):
        cs = group.coords(a)
        fwd.append(target.index_of([cs[i] for i in order]))
    back = invert(fwd)
    return target, tuple(fwd), tuple(back)
