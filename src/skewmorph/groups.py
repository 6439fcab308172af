"""Finite abelian groups with exact integer arithmetic.

A group is given by a list of cyclic factors (each at least 2); the empty
list is the trivial group.  Elements are the integers 0..order-1 under a
fixed mixed-radix encoding with the *last* factor least significant, and
0 is the identity.  All values are immutable and all operations are pure.

The hot paths use `add_table` and `neg_list`, which are built from the
factors alone, one factor at a time (see `AbelianGroup.add_table`), not
with the checked per-element `add` and `neg`.

Structure rests on one search, `isomorphisms`: it assigns images to the
standard basis of Z_f1 x ... x Z_fr and yields every isomorphism onto a
group given by an element list and an addition table.  Automorphisms are
the isomorphisms of a group onto itself; a quotient takes its invariant
factors from the element orders (`invariant_factors`) and its element names
from the first isomorphism onto the coset table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product as _cartesian
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

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
    def add_table(self) -> tuple[tuple[int, ...], ...]:
        """Full addition table; add_table[a][b] == add(a, b).

        Built factor by factor.  The first factor's row of lo is the run
        0 .. f-1 rotated left by lo, a slice of the run written twice.  In
        G x Z_f the element a = hi*f + lo adds to b = hi'*f + lo' as
        (hi + hi')*f + (lo + lo') % f, so the row of a is G's row of hi with
        each entry h replaced by the run h*f .. h*f+f-1 rotated left by lo.
        Rows are tuples: make_group shares one group, and so one table,
        among all its callers.
        """
        first = self.factors[0] if self.factors else 1
        doubled = tuple(range(first)) * 2
        table = [doubled[lo:lo + first] for lo in range(first)]
        for f in self.factors[1:]:
            runs = [tuple(range(h * f, h * f + f)) for h in range(len(table))]
            rotated = [[run[lo:] + run[:lo] for run in runs] for lo in range(f)]
            table = [
                tuple(chain.from_iterable(map(blocks.__getitem__, row)))
                for row in table
                for blocks in rotated
            ]
        return tuple(table)

    @cached_property
    def neg_list(self) -> tuple[int, ...]:
        """neg_list[a] == neg(a), built factor by factor like add_table."""
        negs = [0]
        for f in self.factors:
            negs = [h * f + -lo % f for h in negs for lo in range(f)]
        return tuple(negs)


# Room for the 49 groups one pass over the closed-form families builds.
# Only groups within SUBGROUP_GUARD are kept, whatever guard --max-order
# sets, so the worst case is every entry of order 256 with its addition
# table built: 256 rows of 256 small ints, about 0.54 MB a group and
# 35 MB for the cache.
GROUP_CACHE_SIZE = 64


@lru_cache(maxsize=GROUP_CACHE_SIZE)
def _shared(group: AbelianGroup) -> AbelianGroup:
    return group


def make_group(factors: Iterable[int]) -> AbelianGroup:
    """The group of the given cyclic factors, one shared instance per tuple.

    The factors are checked first (AbelianGroup raises InvalidFactorError),
    so 2.0 or True never reaches the lookup, where 2.0 == 2 would find Z2.
    Equal factor tuples of order at most SUBGROUP_GUARD then get the same
    instance from a least-recently-used cache of GROUP_CACHE_SIZE groups,
    and with it one addition table and one negation list, built on first
    use; a larger group is built afresh on every call, so a raised guard
    never raises the cache's memory.  Both tables are tuples, so no caller
    can change a table another caller reads.  Nothing else is kept on a
    group: subgroups, automorphisms and enumerations are computed per call
    (enumeration keeps its own cache, which keeps no report of a group
    asked of it above SUBGROUP_GUARD either).  The cache lives as long as
    the process: one CLI command shares a table between a record's
    construction and its re-check, and a caller of the library in one
    process shares it across all records of a group.
    """
    group = AbelianGroup(tuple(factors))
    return _shared(group) if group.order <= SUBGROUP_GUARD else group


TRIVIAL_GROUP = make_group(())

_LITERAL_RE = re.compile(r"z(\d+)((?:xz\d+)*)", re.IGNORECASE)


def parse_group_literal(text: str) -> AbelianGroup:
    """Parse 'Z6', 'Z2xZ4', ... (case-insensitive).  Z1 factors are dropped."""
    s = text.strip().replace(" ", "").lower()
    m = _LITERAL_RE.fullmatch(s)
    if not m:
        raise InvalidFactorError(f"cannot parse group literal {text!r}")
    try:
        parts = [int(p) for p in re.findall(r"\d+", s)]
    except ValueError:  # a factor past the interpreter's int-conversion digit limit
        raise InvalidFactorError("cannot parse group literal: a factor has too many digits") from None
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
    """A subgroup as its sorted member tuple."""

    group: AbelianGroup
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _closure(group: AbelianGroup, base: frozenset[int], g: int) -> frozenset[int]:
    # base must already be a subgroup; the result is the union of base + k*g,
    # and k stops at the first multiple of g in base, whose coset repeats.
    add = group.add_table
    out = set(base)
    shift = g
    while shift not in base:
        out.update(add[x][shift] for x in base)
        shift = add[shift][g]
    return frozenset(out)


def _is_closed(group: AbelianGroup, members: frozenset[int]) -> bool:
    """Whether members is closed under addition, i.e. a subgroup.

    The span of members is grown one generator at a time from {0}, and the
    answer is no as soon as it leaves members; a span that stays inside is
    all of members, hence a subgroup.  Each new generator at least doubles
    the span, so there are at most log2 |members| closures.
    """
    if 0 not in members:
        return False
    span = frozenset([0])
    for g in members:
        if g not in span:
            span = _closure(group, span, g)
            if not span <= members:
                return False
    return True


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


def enumerate_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (size, member tuple)."""
    if group.order > SUBGROUP_GUARD:
        raise SizeGuardError(f"order {group.order} exceeds subgroup guard {SUBGROUP_GUARD}")
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


def invariant_factors(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an abelian group, from its element orders.

    |A[p^i]| = #{x : p^i x = 0} = p^(r_1 + ... + r_i), where r_i counts the
    cyclic factors of order at least p^i in the primary decomposition; so the
    k-th largest invariant factor carries p^#{i : r_i >= k}.
    """
    orders = list(orders)
    largest_first: list[int] = []
    for p, e in factorint(len(orders)).items():
        sizes = [sum(1 for o in orders if p**i % o == 0) for i in range(e + 1)]
        ranks = [factorint(sizes[i] // sizes[i - 1]).get(p, 0) for i in range(1, e + 1)]
        for k in range(ranks[0]):
            if k == len(largest_first):
                largest_first.append(1)
            largest_first[k] *= p ** sum(1 for r in ranks if r > k)
    return tuple(reversed(largest_first))


def isomorphisms(
    factors: Sequence[int],
    elements: Sequence[int],
    add: Sequence[Sequence[int]],
    orders: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """Every isomorphism from make_group(factors) onto a group given by its elements.

    The target's identity is 0, add[x][y] is its sum of x and y, and
    orders[i] is the order of elements[i].  Each isomorphism is yielded as a
    table indexed by the source's elements.  It is fixed by the images g_i of
    the standard basis: e_i -> g_i extends to an injective homomorphism only
    if g_i has order exactly factors[i], and injectivity is checked on every
    partial span.  A full span with distinct images is onto, since both
    groups have prod(factors) elements.  The basis is assigned last factor
    first, which is the largest in invariant-factor form.
    """
    n = prod(factors)
    if n != len(elements):
        return
    weights = make_group(factors).weights
    candidates = [[x for x, o in zip(elements, orders) if o == f] for f in factors]

    # partial[x] = image of x, for x in the span of the basis vectors after i
    def extend(i: int, partial: dict[int, int]) -> Iterator[tuple[int, ...]]:
        if i < 0:
            yield tuple(partial[x] for x in range(n))
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
                    bigger[x + c * w] = v
                if not ok:
                    break
            if ok:
                yield from extend(i - 1, bigger)

    yield from extend(len(factors) - 1, {0: 0})


def automorphism_count(group: AbelianGroup) -> int:
    """|Aut(A)| from the factors alone, by the closed form of Hillar and
    Rhea, Automorphisms of finite abelian groups, Amer. Math. Monthly 114
    (2007).

    Aut(A) is the product of the automorphism groups of the p-parts.  For a
    p-part Z_p^e_1 x ... x Z_p^e_k with e_1 <= ... <= e_k, let d_i be the
    largest and c_i the least l with e_l = e_i.  Its count is the product
    over i = 1..k of (p^d_i - p^(i-1)) * p^(e_i (k - d_i)) *
    p^((e_i - 1)(k - c_i + 1)).
    """
    exponents: dict[int, list[int]] = {}
    for f in group.factors:
        for p, e in factorint(f).items():
            exponents.setdefault(p, []).append(e)
    count = 1
    for p, es in exponents.items():
        es.sort()
        k = len(es)
        for i, e in enumerate(es, 1):
            c = es.index(e) + 1
            d = c - 1 + es.count(e)
            count *= (p**d - p ** (i - 1)) * p ** (e * (k - d) + (e - 1) * (k - c + 1))
    return count


def enumerate_automorphisms(group: AbelianGroup) -> list[Automorphism]:
    """All automorphisms, sorted by table: the isomorphisms of the group onto itself."""
    if group.order > SUBGROUP_GUARD:
        raise SizeGuardError(f"order {group.order} exceeds automorphism guard {SUBGROUP_GUARD}")
    elements = range(group.order)
    orders = [group.element_order(x) for x in elements]
    tables = isomorphisms(group.factors, elements, group.add_table, orders)
    return [Automorphism(group, table) for table in sorted(tables)]


def _orbits(points, sigmas, act):
    """One representative per orbit of a group acting on points.

    sigmas lists a group's elements, and act(sigma, x) is its action on
    hashable points.  Yields (x, moves, stab) for x the first point of each
    orbit in the order of points: moves maps every other point of x's
    orbit to the first sigma carrying x there, and stab lists the sigmas
    fixing x.  act may carry x outside points (equivalence_classes passes
    any list of morphisms); moves records such images too, and x's orbit
    is still never visited again.  The one orbit scan of the package: the
    search cuts of enumeration and equivalence_classes use it.
    """
    seen: set = set()
    for x in points:
        if x in seen:
            continue
        moves: dict = {}
        stab = []
        for sigma in sigmas:
            y = act(sigma, x)
            if y == x:
                stab.append(sigma)
            else:
                moves.setdefault(y, sigma)
        seen.add(x)
        seen.update(moves)
        yield x, moves, stab


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def quotient_group(
    group: AbelianGroup, sub: Subgroup | Iterable[int]
) -> tuple[AbelianGroup, tuple[int, ...]]:
    """Quotient in invariant-factor form plus the projection map.

    The projection sends an element index of `group` to an element index of
    the quotient and is a surjective homomorphism with kernel = sub.  The
    cosets are numbered in order of their least member, and the first
    isomorphism from the invariant-factor group onto their addition table
    names them.
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
    cosets = range(len(reps))
    table = [[coset_of[add[r][s]] for s in reps] for r in reps]
    orders = []
    for c in cosets:
        k, y = 1, c
        while y != 0:
            y = table[y][c]
            k += 1
        orders.append(k)
    factors = invariant_factors(orders)
    name = invert(next(isomorphisms(factors, cosets, table, orders)))
    return make_group(factors), tuple(name[coset_of[x]] for x in range(n))


# ---------------------------------------------------------------------------
# Isomorphism plumbing (used to carry morphisms between presentations)
# ---------------------------------------------------------------------------


def primary_pieces(group: AbelianGroup) -> list[tuple[int, int]]:
    """The pieces (i, p**e) of every prime power p**e exactly dividing factor
    i, factor by factor and primes ascending: the CRT split of each factor."""
    return [(i, p**e) for i, f in enumerate(group.factors) for p, e in sorted(factorint(f).items())]


def remap(
    group: AbelianGroup, pieces: Sequence[tuple[int, int]]
) -> tuple[AbelianGroup, tuple[int, ...]]:
    """The homomorphism a -> (coords(a)[i] % q for (i, q) in pieces).

    Returns (target, table) with target the group of the moduli q in piece
    order.  The map is an isomorphism whenever the pieces of each factor are
    its primary pieces (primary_pieces), in any order.
    """
    target = make_group(q for _, q in pieces)
    table = []
    for a in range(group.order):
        cs = group.coords(a)
        table.append(target.index_of([cs[i] % q for i, q in pieces]))
    return target, tuple(table)


def primary_split(group: AbelianGroup) -> tuple[AbelianGroup, tuple[int, ...], tuple[int, ...]]:
    """Split every factor into prime powers (CRT), keeping factor order.

    Returns (split_group, fwd, back) with fwd a group isomorphism table from
    `group` to `split_group` and back its inverse.
    """
    split, fwd = remap(group, primary_pieces(group))
    return split, fwd, invert(fwd)
