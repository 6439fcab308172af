"""Finite abelian groups with exact integer arithmetic.

A group is given by a list of cyclic factors (each at least 2); the empty
list is the trivial group.  Elements are the integers 0..order-1 under a
fixed mixed-radix encoding with the *last* factor least significant, and
0 is the identity.  All values are immutable and all operations are pure.

The hot paths use `add_table` and `neg_list`, which are built from the
factors alone, one factor at a time (see `AbelianGroup.add_table`), not
with the checked per-element `add` and `neg`.

Structure rests on two tools.  `isomorphisms` assigns images to the
standard basis of Z_f1 x ... x Z_fr and yields every isomorphism onto a
group given by an element list and an addition table; a quotient takes its
invariant factors from the element orders (`invariant_factors`) and its
element names from the first isomorphism onto the coset table, and
`enumerate_automorphisms` lists the isomorphisms of a group onto itself.
Aut(A) itself is held as a few generators on a primary basis
(`automorphism_generators`) and a base with strong generators on the
elements of A (`StabilizerChain`), stopped at its known order
(`automorphism_count`, Hillar-Rhea), so that it is counted and acted with
without being listed; `_orbits`, the one orbit routine, takes a group by
its generators and order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product as _cartesian
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

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
    """Every subgroup exactly once, sorted by (size, member tuple).

    Each subgroup B found is grown to <B, g> for one g per coset g + B
    other than B, as <B, g> = <B, g + b> for b in B; every subgroup is
    reached along a chain of such steps from {0}.  A closure of a subgroup
    is a subgroup (_closure), so each is kept as subgroup_generated_by
    keeps its span."""
    if group.order > SUBGROUP_GUARD:
        raise SizeGuardError(f"order {group.order} exceeds subgroup guard {SUBGROUP_GUARD}")
    add = group.add_table
    trivial = frozenset([0])
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        base = frontier.pop()
        tried = set(base)  # the cosets of base already grown from
        for g in range(1, group.order):
            if g in tried:
                continue
            tried.update(add[g][b] for b in base)
            bigger = _closure(group, base, g)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    subs = [Subgroup(group, tuple(sorted(s))) for s in seen]
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


def _conjugation(sigma: Sequence[int]) -> Callable:
    """perm -> sigma perm sigma^-1, the perm psi with psi[sigma[x]] =
    sigma[perm[x]]: the values sigma(perm(x)), read at x = sigma^-1(z), by
    C-level itemgetters, sigma inverted once.  sigma is a table of degree
    at least 2, as an itemgetter of one index returns a bare value.  On a
    skew morphism's perm, sigma an automorphism, it is the perm of its
    conjugate (morphisms.conjugate), built without validating it."""
    back = itemgetter(*invert(sigma))
    return lambda perm: back(itemgetter(*perm)(sigma))


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


# ---------------------------------------------------------------------------
# Permutation groups by base and strong generators
# ---------------------------------------------------------------------------


class StabilizerChain:
    """A permutation group on range(degree), by a base and strong generators.

    Level i holds a base point base[i], the strong generators gens[i] that
    fix base[:i], and the orbit of base[i] under them as a Schreier vector:
    each point y other than base[i] keeps the generator s and the point z
    with s(z) = y by which the orbit first reached it.  The product u of
    those generators from base[i] to y carries base[i] to y; it is built
    when a sift or the iteration first needs it, and its inverse when a
    sift does.  The product of the orbit sizes, order, never exceeds the
    order of the group G that gens[0] generates:
    gens[i + 1] fixes base[i] and lies in gens[i], so each level's group
    has at least its orbit size times the next level's order.  So once
    order reaches |G|, known in advance, every inequality is an equality
    and the chain is complete: a g of G sifts through it, g = u_0 u_1 ...
    u_k with u_i from level i, and the products of one u per level are the
    elements of G, each once.  That is the known-order stopping rule of
    Schreier-Sims (Sims 1970; Seress, Permutation Group Algorithms, CUP
    2003, sections 4.2 and 4.5): sift elements of G into the chain, keep
    each residue that is not the identity as a new strong generator, and
    stop as soon as order = |G|.  Each residue lengthens its level's
    orbit, so there are at most log2 |G| of them.

    Schreier's lemma (Seress, Lemma 4.2.1): if S generates H, and u_y
    carries x to y for every y of x's orbit (u_x = 1), then the Schreier
    generators u_(s y)^-1 s u_y, over every y and s in S, generate the
    stabilizer of x in H.  close sifts a chain's own Schreier generators,
    level by level, until order reaches a known order or every one of them
    sifts through, which makes the chain complete for the group its
    generators generate (the Schreier-Sims theorem).
    """

    def __init__(self, degree: int) -> None:
        self.identity = tuple(range(degree))
        self.base: list[int] = []
        self.gens: list[list[tuple[int, ...]]] = []
        self.orbits: list[dict[int, tuple | None]] = []  # y -> (s, z), s(z) = y
        self._moves: list[dict[int, tuple[int, ...]]] = []  # y -> u_y, as built
        self._inverses: list[dict[int, tuple[int, ...]]] = []
        self.order = 1  # the product of the orbit sizes

    @property
    def generators(self) -> list[tuple[int, ...]]:
        """The strong generators, which generate the group."""
        return self.gens[0] if self.gens else []

    def _move(self, i: int, y: int) -> tuple[int, ...]:
        """u_y of level i: up the Schreier vector to a built move, then
        composed back down, each move on the way kept."""
        moves, orbit = self._moves[i], self.orbits[i]
        path = []
        while y not in moves:
            s, y = orbit[y]
            path.append(s)
        u = moves[y]
        for s in reversed(path):
            u = tuple(map(s.__getitem__, u))
            moves[u[self.base[i]]] = u
        return u

    def _inverse(self, i: int, y: int) -> tuple[int, ...]:
        inverses = self._inverses[i]
        back = inverses.get(y)
        if back is None:
            back = inverses[y] = invert(self._move(i, y))
        return back

    def sift(self, g: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """(level, residue): g divided by u_i from level 0 on, until the
        residue moves base[level] off its level's orbit, or level is past
        the base.  g is in the group exactly when the residue there is the
        identity."""
        for i, b in enumerate(self.base):
            y = g[b]
            if y != b:
                if y not in self.orbits[i]:
                    return i, tuple(g)
                g = tuple(map(self._inverse(i, y).__getitem__, g))
        return len(self.base), tuple(g)

    def add(self, g: Sequence[int]) -> bool:
        """Sift g in: a residue other than the identity becomes a strong
        generator at its level and at every level above, whose orbits grow
        (a new level, based at the first point it moves, past the base).
        Whether the order grew."""
        level, h = self.sift(g)
        if h == self.identity:
            return False
        if level == len(self.base):
            b = next(x for x, y in enumerate(h) if x != y)
            self.base.append(b)
            self.gens.append([])
            self.orbits.append({b: None})
            self._moves.append({b: self.identity})
            self._inverses.append({b: self.identity})
        for i in range(level + 1):
            # the orbit was closed under gens[i]: apply h to its points, and
            # every generator to the points that h adds
            orbit, gens = self.orbits[i], self.gens[i]
            gens.append(h)
            self.order //= len(orbit)
            queue = []
            for y in list(orbit):
                z = h[y]
                if z not in orbit:
                    orbit[z] = h, y
                    queue.append(z)
            for y in queue:
                for s in gens:
                    z = s[y]
                    if z not in orbit:
                        orbit[z] = s, y
                        queue.append(z)
            self.order *= len(orbit)
        return True

    def close(self, order: int | None = None) -> None:
        """Sift the chain's Schreier generators in until order is reached,
        or, with no order given, until every one of them sifts through."""
        grew = True
        while grew and self.order != order:
            grew = False
            for i in range(len(self.base)):
                for y in list(self.orbits[i]):
                    u = self._move(i, y)
                    for s in list(self.gens[i]):
                        back = self._inverse(i, s[y])
                        if self.add(tuple(back[s[v]] for v in u)):
                            grew = True
                            if self.order == order:
                                return

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        """Every element once, as a table: the products u_0 u_1 ... u_k."""
        elements = [self.identity]
        for i in reversed(range(len(self.base))):
            moves = [self._move(i, y) for y in self.orbits[i]]
            elements = [tuple(map(u.__getitem__, e)) for u in moves for e in elements]
        return iter(elements)


def stabilizer_chain(gens: Iterable[Sequence[int]], degree: int, order: int | None = None) -> StabilizerChain:
    """The chain of the group that gens generate on range(degree).  Given
    the group's order, it stops there (the known-order rule of
    StabilizerChain) and raises if the generators fall short of it;
    without, it runs Schreier-Sims to the end."""
    built = StabilizerChain(degree)
    if built.order != order:
        for g in gens:  # gens may build each g as it is asked for: none past order
            if built.add(g) and built.order == order:
                break
    built.close(order)
    if order is not None and built.order != order:
        raise AssertionError(f"the generators reach a group of order {built.order}, not {order}")
    return built


def _unit_generators(q: int) -> list[int]:
    """A few units that generate the units mod q, greedily, least first."""
    span, gens = {1}, []
    for u in range(2, q):
        if gcd(u, q) == 1 and u not in span:
            gens.append(u)
            power, grown = u, set(span)
            while power not in span:
                grown.update(s * power % q for s in span)
                power = power * u % q
            span = grown
    return gens


def automorphism_generators(group: AbelianGroup) -> list[tuple[int, ...]]:
    """A few automorphisms that generate Aut(A), as tables.

    They act on a primary basis of A, e_k of order q_k = p^a_k, the CRT
    pieces of the factors (primary_pieces): the scalings e_k -> u*e_k by
    generators u of the units mod q_k, and for each ordered pair k != l
    within one prime the transvection e_l -> e_l + p^max(0, a_k - a_l) e_k,
    the least multiple of e_k that e_l's order allows, every other basis
    element fixed.  Hillar and Rhea (the paper automorphism_count cites)
    write Aut(A) as the invertible matrices of that shape; these generate
    it, which stabilizer_chain checks against automorphism_count wherever
    the search reads them, and a test checks on every group of order <=
    128.  A table is built from the images of the factors' generators
    g_i, each the sum of t*e_k over its pieces, t = (f_i/q_k)^-1 mod q_k,
    by the same factor-by-factor fill as add_table."""
    add = group.add_table
    pieces = primary_pieces(group)
    basis = [group.factors[i] // q * group.weights[i] for i, q in pieces]

    def table(images) -> tuple[int, ...]:
        rows = [0]
        for i, f in enumerate(group.factors):
            g = 0
            for (piece_i, q), image in zip(pieces, images):
                if piece_i == i:
                    g = add[g][group.scalar(pow(f // q, -1, q), image)]
            multiples = [0]
            for _ in range(f - 1):
                multiples.append(add[multiples[-1]][g])
            rows = [add[r][m] for r in rows for m in multiples]
        return tuple(rows)

    gens = []
    for k, (_, q) in enumerate(pieces):
        for u in _unit_generators(q):
            gens.append(table(basis[:k] + [group.scalar(u, basis[k])] + basis[k + 1:]))
    for k, (_, qk) in enumerate(pieces):
        for l, (_, ql) in enumerate(pieces):
            if k != l and gcd(qk, ql) > 1:
                moved = add[basis[l]][group.scalar(max(qk // ql, 1), basis[k])]
                gens.append(table(basis[:l] + [moved] + basis[l + 1:]))
    return gens


def automorphism_chain(group: AbelianGroup) -> StabilizerChain:
    """Aut(A) as a stabilizer chain on the elements of A, from
    automorphism_generators, stopped at automorphism_count: lists no
    automorphism, and raises if the generators fall short."""
    return stabilizer_chain(automorphism_generators(group), group.order, automorphism_count(group))


def _orbits(points, sigmas, order, act):
    """One representative per orbit of a group H of the given order acting
    on points.

    sigmas, a list of distinct elements, generate H, and act(sigma, x) is
    a sigma's action on hashable points.  Yields (x, moves, stab) for x the
    first point of each orbit in the order of points: moves maps every
    other point y of x's orbit to an element of H carrying x to y, and
    stab() returns a list of generators of x's stabilizer, which has order
    |H| / (1 + len(moves)).  act may carry x outside points
    (equivalence_classes passes any list of morphisms); moves records such
    images too, and x's orbit is never visited again.  The one orbit
    routine of the package: the search cuts of enumeration and
    equivalence_classes use it.

    The first ring applies every sigma to x; moves keeps the first sigma
    to reach each image, and stab the sigmas fixing x.  Those are at most
    the orbit and its stabilizer, so when |H| = (1 + len(moves)) *
    len(stab) for distinct sigmas they are all of both: this holds for a
    complete list of H's elements, as the cyclic search passes, and the
    answer is then the element scan's.  Otherwise an orbit of size 1 keeps
    the sigmas, one of size |H| has the trivial stabilizer, and the rest
    come from _schreier, whose sigmas must be tables, composed as
    permutations; it builds the stabilizer only when stab is called.  An H
    of order 1 has singleton orbits, and act is not called.
    """
    seen: set = set()
    for x in points:
        if x not in seen:
            moves, stab = _orbit(x, sigmas, order, act)
            seen.add(x)
            seen.update(moves)
            yield x, moves, stab


def _orbit(x, sigmas, order, act):
    """(moves, stab) of one point x, as _orbits yields them: the first
    ring, else _schreier, which goes on from it."""
    if order == 1:
        return {}, sigmas.copy
    moves: dict = {}
    fixing = []
    twins = []  # (sigma, y): sigma carries x to a y that an earlier sigma reached
    for sigma in sigmas:
        y = act(sigma, x)
        if y == x:
            fixing.append(sigma)
        elif y not in moves:
            moves[y] = sigma
        else:
            twins.append((sigma, y))
    if not moves or (1 + len(moves)) * len(fixing) == order:
        return moves, fixing.copy
    if 1 + len(moves) == order:
        return moves, list
    return _schreier(x, sigmas, order, act, moves, fixing, twins)


def _schreier(x, sigmas, order, act, moves, fixing, twins):
    """(moves, stab) of _orbits for x, sigmas tables that generate H, from
    the first ring of _orbit: the moves of the points it reached, the
    sigmas fixing x and the twins.

    The orbit grows by breadth-first search over the sigmas, each new point
    z = sigma(y) with the move sigma u_y (a Schreier tree, u_x the
    identity, u_y = sigma on the first ring).  Its stabilizer has order m
    = |H| / |orbit|, and is generated by the Schreier generators u_z^-1
    sigma u_y of the edges that the tree does not use (Schreier's lemma,
    StabilizerChain; a tree edge gives the identity): the sigmas fixing x,
    the twins, and each edge of the search that meets a point already
    reached.  stab() sifts them into a fresh chain, in that order, until
    its order is m (stabilizer_chain) and returns its strong generators.
    """
    identity = tuple(range(len(sigmas[0])))
    edges = [(identity, sigma, y) for sigma, y in twins]
    queue = list(moves)
    for y in queue:
        u = moves[y]
        for sigma in sigmas:
            z = act(sigma, y)
            if z == x or z in moves:
                edges.append((u, sigma, z))
            else:
                moves[z] = tuple(map(sigma.__getitem__, u))
                queue.append(z)
    size = 1 + len(queue)
    if order % size:
        raise AssertionError(f"an orbit of {size} points under a group of order {order}")

    def schreier_generators():
        yield from fixing
        backs = {}  # u_z^-1, once per z
        for u, sigma, z in edges:
            g = sigma if u is identity else tuple(map(sigma.__getitem__, u))
            if z == x:
                yield g
            elif g != moves[z]:
                back = backs.get(z)
                if back is None:
                    back = backs[z] = invert(moves[z])
                yield tuple(map(back.__getitem__, g))

    def stab() -> list[tuple[int, ...]]:
        return stabilizer_chain(schreier_generators(), len(identity), order // size).generators

    return moves, stab


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
