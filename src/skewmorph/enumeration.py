"""Exhaustive skew morphism enumeration and the arithmetic predicates.

Two independent routes produce the same sets:

* brute_force_oracle scans every permutation fixing the identity and keeps
  the ones accepted by validate -- trivially complete, order <= 10.
* enumerate_skew_morphisms factors the search through kernel structure.
  One-factor groups (_search_cyclic) take direct products over a coprime
  split of Z_n where the Kovacs-Nedela decomposition theorem applies, and
  otherwise run quotient-lifting cells pruned by two proved rules, slot
  cosets and the kernel-order rule (_lift_cell).  Multi-factor groups
  assemble tables from a kernel candidate, an additive bijection of it, a
  recursively enumerated quotient morphism, and one image per coset
  (_search_general); they search one candidate per Aut(A)-orbit of
  subgroups, keep the finds whose kernel is exactly that candidate, and
  conjugate those onto the rest of the orbit.  Every completed table and
  every conjugate is revalidated in full, so the searches stay sound
  however hard their cells prune; the correctness burden is completeness,
  argued per search below.

Orders are always derived from tables; nothing assumes a bound on |phi|
in terms of |A|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, prod

from .groups import (
    AbelianGroup,
    SizeGuardError,
    crt_pair,
    enumerate_automorphisms,
    enumerate_subgroups,
    factorint,
    make_group,
    multiplicative_order,
    quotient_group,
    totient,
)
from .morphisms import SkewMorphism, as_skew_morphism, conjugate, is_smooth, try_validate

ORACLE_GUARD = 10
CYCLIC_GUARD = 64
GENERAL_GUARD = 32


@dataclass(frozen=True)
class EnumerationReport:
    group: AbelianGroup
    morphisms: tuple[SkewMorphism, ...]
    total: int
    automorphisms: int
    proper: int
    smooth: int
    nonsmooth: int
    elapsed_ms: float

    @classmethod
    def from_morphisms(
        cls, group: AbelianGroup, found, elapsed_ms: float
    ) -> "EnumerationReport":
        morphisms = tuple(sorted(found, key=lambda sm: sm.perm))
        assert len({sm.perm for sm in morphisms}) == len(morphisms)
        autos = sum(1 for sm in morphisms if sm.is_automorphism)
        smooth = sum(1 for sm in morphisms if is_smooth(sm))
        total = len(morphisms)
        return cls(
            group,
            morphisms,
            total,
            autos,
            total - autos,
            smooth,
            total - smooth,
            elapsed_ms,
        )


def brute_force_oracle(group: AbelianGroup, guard: int = ORACLE_GUARD) -> EnumerationReport:
    """Ground truth: validate every permutation of A fixing the identity."""
    n = group.order
    if n > guard:
        raise SizeGuardError(f"order {n} exceeds oracle guard {guard}")
    start = time.perf_counter()
    found = []
    for rest in permutations(range(1, n)):
        sm = try_validate(group, (0,) + rest)
        if sm is not None:
            found.append(sm)
    elapsed = (time.perf_counter() - start) * 1000.0
    return EnumerationReport.from_morphisms(group, found, elapsed)


def _lift_cell(group, k, mod_q, q_perm, q_power, q_order, L, out):
    """One search cell for Z_n: find every skew morphism phi with

    * phi reduced mod mod_q equal to the quotient morphism q (table entries
      are pinned to q_perm[x mod mod_q] mod mod_q, power values to
      q_power[j] mod q_order),
    * power function constant exactly on cosets of <k> (k | mod_q), with
      the k values cvals[j] pairwise distinct, 1 only at j = 0,
    * orbit of the generator 1 of length exactly L (= |phi|).

    The walk phi(x) = phi(x-1) + u_{pi(x-1)} branches an unknown cvals entry
    (stride q_order) or an unknown orbit slot (absorbed into phi(x), whose
    residue is pinned).  Constraint web: svals prefix sums along the orbit
    (svals[0] = svals[L] = 0) chained by the power of each orbit slot and
    by the composition rule cvals[j+1] = svals[cvals[j]]; kernel additivity
    phi(a + b) = phi(a) + phi(b) for kernel a; every closed table cycle has
    length dividing L and power sum divisible by its length.  Completed
    tables are revalidated by the caller's emit, so pruning only needs to
    preserve completeness for the cell's own (q, k, L).  Two prunes rest on
    these proofs:

    * Slot cosets.  Slot i of the orbit of 1 holds an element congruent to
      slot_res[i] mod mod_q, hence mod k, so its power is
      cvals[slot_res[i] % k] before the slot is bound: the cell's own rule
      that pi is constant on the cosets of <k>, applied early.
    * Kernel order.  For a in K = <k> and any b, expanding
      phi(a + b) = phi(b + a) gives phi(a) + phi(b) = phi(b) +
      phi^pi(b)(a), so phi^(pi(b) - 1) fixes K pointwise.  phi maps K onto
      itself as multiplication by the unit t with phi(k) = t*k, so
      o = ord(t mod n/k) divides pi(b) - 1 for every b, and divides L.
      Seeds with o not dividing L are skipped, and every power value must
      be 1 mod o.
    """
    n = group.order
    add = group.add_table
    neg = group.neg_list
    res_target = [q_perm[x % mod_q] for x in range(n)]
    slot_res = [0] * L
    cur = 1 % mod_q
    for j in range(L):
        slot_res[j] = cur
        cur = q_perm[cur]
    slot_coset = [r % k for r in slot_res]

    table: list[int | None] = [None] * n
    table[0] = 0
    used = [False] * n
    used[0] = True
    slots: list[int | None] = [None] * L
    slots[0] = 1
    slot_of: dict[int, int] = {1: 0}
    svals: list[int | None] = [None] * (L + 1)
    svals[0] = 0
    svals[L] = 0
    cvals: list[int | None] = [None] * k
    c_used: set[int] = set()
    c_one = 1 % L
    kernel_order = 1  # ord(phi on <k>), fixed once the seed phi(k) is chosen
    peer = list(range(n))
    plen = [0] * n

    def undo(journal):
        for entry in reversed(journal):
            kind = entry[0]
            slot = entry[1]
            if kind == "t":
                used[table[slot]] = False
                table[slot] = None
            elif kind == "sl":
                del slot_of[slots[slot]]
                slots[slot] = None
            elif kind == "s":
                svals[slot] = None
            elif kind == "c":
                c_used.discard(cvals[slot])
                cvals[slot] = None
            else:  # "p": path endpoint restore
                peer[slot] = entry[2]
                plen[slot] = entry[3]

    def c_admissible(j: int, val: int) -> bool:
        if val % q_order != q_power[j] or (val - 1) % kernel_order:
            return False
        if val in c_used:
            return False
        return val != c_one or j == 0

    def propagate(journal) -> bool:
        dirty = True
        while dirty:
            dirty = False
            for i in range(L):
                a, b = svals[i], svals[i + 1]
                j = slot_coset[i]
                r = cvals[j]
                if r is None:
                    if a is not None and b is not None:
                        r = (b - a) % L
                        if not c_admissible(j, r):
                            return False
                        cvals[j] = r
                        c_used.add(r)
                        journal.append(("c", j))
                        dirty = True
                elif a is not None and b is None:
                    svals[i + 1] = (a + r) % L
                    journal.append(("s", i + 1))
                    dirty = True
                elif b is not None and a is None:
                    svals[i] = (b - r) % L
                    journal.append(("s", i))
                    dirty = True
                elif a is not None and b is not None and (a + r) % L != b:
                    return False
            for j in range(k):
                cj = cvals[j]
                if cj is None:
                    continue
                jn = (j + 1) % k
                succ = cvals[jn]
                sv = svals[cj]
                if sv is None and succ is not None:
                    svals[cj] = succ
                    journal.append(("s", cj))
                    dirty = True
                elif sv is not None and succ is None:
                    if not c_admissible(jn, sv):
                        return False
                    cvals[jn] = sv
                    c_used.add(sv)
                    journal.append(("c", jn))
                    dirty = True
                elif sv is not None and succ is not None and sv != succ:
                    return False
        return True

    def bind_slot(j: int, v: int, journal) -> bool:
        cur = slots[j]
        if cur is not None:
            return cur == v
        if v in slot_of or v == 0 or v % mod_q != slot_res[j]:
            return False
        slots[j] = v
        slot_of[v] = j
        journal.append(("sl", j))
        before = slots[(j - 1) % L]
        if before is not None and not set_entry(before, v, journal):
            return False
        after = slots[(j + 1) % L]
        if after is not None:
            return set_entry(v, after, journal)
        if table[v] is not None:
            return bind_slot((j + 1) % L, table[v], journal)
        return True

    def set_entry(x: int, v: int, journal) -> bool:
        cur = table[x]
        if cur is not None:
            return cur == v
        if used[v] or v % mod_q != res_target[x]:
            return False
        a, b = peer[x], peer[v]
        if a == v:
            length = plen[x] + 1
            if L % length != 0:
                return False  # every cycle length divides the order
            total = 0
            e = v
            for step in range(length):
                cv = cvals[e % k]
                if cv is None:
                    total = -1
                    break
                total += cv
                if step + 1 < length:
                    e = table[e]
            if total >= 0 and total % length != 0:
                return False  # power sum over a cycle vanishes mod its length
        else:
            length = plen[x] + plen[v] + 1
            journal.append(("p", a, peer[a], plen[a]))
            journal.append(("p", b, peer[b], plen[b]))
            peer[a] = b
            peer[b] = a
            plen[a] = plen[b] = length
        table[x] = v
        used[v] = True
        journal.append(("t", x))
        j = slot_of.get(x)
        if j is not None:
            nxt = (j + 1) % L
            target = slots[nxt]
            if target is not None:
                if target != v:
                    return False
            elif not bind_slot(nxt, v, journal):
                return False
        # phi(a + b) = phi(a) + phi(b) for kernel a
        row = add[x]
        vrow = add[v]
        if x % k == 0:
            for b2 in range(1, n):
                tb = table[b2]
                if tb is not None and b2 != x:
                    if not set_entry(row[b2], vrow[tb], journal):
                        return False
        else:
            for a2 in range(k, n, k):
                ta = table[a2]
                if ta is not None:
                    if not set_entry(add[a2][x], add[ta][v], journal):
                        return False
        return True

    def walk(x: int) -> None:
        if x == n:
            sm = try_validate(group, tuple(table))  # type: ignore[arg-type]
            if sm is not None:
                out.append(sm)
            return
        j = (x - 1) % k
        val = cvals[j]
        if val is not None:
            assign(x, val)
            return
        for guess in range(q_power[j], L, q_order):
            if not c_admissible(j, guess):
                continue
            journal: list = [("c", j)]
            cvals[j] = guess
            c_used.add(guess)
            if propagate(journal):
                assign(x, guess)
            undo(journal)

    def assign(x: int, val: int) -> None:
        prev = x - 1
        u = slots[val]
        base = table[prev]
        if u is not None:
            journal: list = []
            if set_entry(x, add[base][u], journal) and propagate(journal):
                walk(x + 1)
            undo(journal)
            return
        neg_base = neg[base]
        cur = table[x]
        if cur is not None:
            candidates = (cur,)  # already forced; only consistency remains
        else:
            target = res_target[x]
            candidates = tuple(
                v for v in range(1, n) if not used[v] and v % mod_q == target
            )
        for v in candidates:
            journal = []
            if (
                set_entry(x, v, journal)
                and bind_slot(val, add[v][neg_base], journal)
                and propagate(journal)
            ):
                walk(x + 1)
            undo(journal)

    journal0: list = [("c", 0)]
    cvals[0] = c_one
    c_used.add(c_one)
    if c_one % q_order == q_power[0] and propagate(journal0):
        # seed the kernel first: phi restricted to <k> is an automorphism,
        # so phi(k) is a unit multiple of k; additivity then fans every
        # later assignment out across its kernel coset.
        size = n // k
        for t in range(1, size):
            if gcd(t, size) != 1:
                continue
            v = t * k
            if v % mod_q != res_target[k]:
                continue
            kernel_order = multiplicative_order(t, size)
            if L % kernel_order:
                continue
            journal1: list = []
            if set_entry(k, v, journal1) and propagate(journal1):
                walk(1)
            undo(journal1)
    undo(journal0)


def _cell_orbit_bounds(q_perm, mod_q, q_order, n, k, L) -> bool:
    """Shared admissibility of a cell: L multiple of |q|, orbit capacity."""
    if L % q_order != 0 or k > L:
        return False
    ell1 = 1
    start = 1 % mod_q
    cur = q_perm[start]
    while cur != start:
        ell1 += 1
        cur = q_perm[cur]
    if L % ell1 != 0:
        return False
    return L <= ell1 * (n // mod_q)


def _skew_type_of(perm_power, order, modulus) -> int:
    one = 1 % order
    kernel = sum(1 for v in perm_power if v == one)
    return modulus // kernel if modulus else 1


def coprime_split(n: int) -> tuple[int, int] | None:
    """A split n = n1*n2 with gcd(n1, n2) = gcd(n1, phi(n2)) = gcd(phi(n1), n2) = 1.

    n1 and n2 are unions of the prime-power parts of n, n1 holding the
    smallest prime; the first such split found is returned, None if there
    is none.
    """
    parts = [p**e for p, e in sorted(factorint(n).items())]
    for size in range(len(parts) - 1):
        for rest in combinations(parts[1:], size):
            n1 = prod(rest, start=parts[0])
            n2 = n // n1
            if gcd(n1, totient(n2)) == 1 and gcd(totient(n1), n2) == 1:
                return n1, n2
    return None


def _search_cyclic(group: AbelianGroup, max_order: int | None = None):
    """Enumerate skew morphisms of a one-factor group Z_n.

    Decomposition first.  When coprime_split finds n = n1*n2, every skew
    morphism of Z_n is the direct product, under the CRT isomorphism
    Z_n = Z_n1 x Z_n2, of a skew morphism of Z_n1 and one of Z_n2
    (Kovacs and Nedela, Decomposition of skew-morphisms of cyclic groups,
    Ars Math. Contemp. 4 (2011)).  So the products of the two recursively
    enumerated sets are complete, and each is revalidated before it is
    kept.

    Otherwise, quotient lifting.  Every skew morphism phi of Z_n induces
    skew morphisms on the quotients Z_d for each d between its skew-type k
    and n (phi preserves all subgroups of its kernel <k>), its power
    function is constant exactly on the cosets of <k>, and |phi| equals the
    orbit length L of the generator (power values are exact in Z_L).  Each
    proper skew-type k < n divides d = n/p for some prime p and is
    designated to the first such p.  The search enumerates Z_d recursively
    and lifts each quotient morphism q in _lift_cell: table entries are
    pinned mod d, leaving p candidates per entry, and each cell prunes by
    slot cosets and by the kernel-order rule, both proved there.
    Soundness is the caller's revalidation of every completed table;
    completeness needs only the cell with the true (q, k, L) to reach each
    morphism, and duplicate finds are removed by the caller.
    """
    n = group.order
    split = coprime_split(n)
    if split is not None:
        n1, n2 = split
        e1 = crt_pair(1, n1, 0, n2)[0]
        e2 = crt_pair(0, n1, 1, n2)[0]
        for a in cached_enumeration((n1,), max_order).morphisms:
            for b in cached_enumeration((n2,), max_order).morphisms:
                table = tuple(
                    (e1 * a.perm[x % n1] + e2 * b.perm[x % n2]) % n for x in range(n)
                )
                sm = try_validate(group, table)
                if sm is not None:
                    yield sm
        return

    out: list[SkewMorphism] = []
    primes = sorted(factorint(n))

    def multiplicity(m: int, p: int) -> int:
        v = 0
        while m % p == 0:
            m //= p
            v += 1
        return v

    # every proper skew-type k < n divides n/p for some prime p; designate
    # each k to the first such prime so each type is searched exactly once
    designated: dict[int, list[int]] = {p: [] for p in primes}
    for k in range(1, n):
        if n % k:
            continue
        for p in primes:
            if multiplicity(k, p) < multiplicity(n, p):
                designated[p].append(k)
                break

    for p in primes:
        if not designated[p]:
            continue
        d = n // p
        lift_report = cached_enumeration((d,) if d > 1 else (), max_order)
        for q in lift_report.morphisms:
            k_d = _skew_type_of(q.power, q.order, d)
            for k in designated[p]:
                if k % k_d != 0 or d % k != 0:
                    continue
                for L in range(q.order, n, q.order):
                    if _cell_orbit_bounds(q.perm, d, q.order, n, k, L):
                        _lift_cell(group, k, d, q.perm, q.power, q.order, L, out)
    yield from out


def _search_morphisms(group: AbelianGroup, max_order: int | None = None):
    """Yield every skew morphism of the group, in search order.

    max_order is the caller's size guard, passed on to every recursive
    enumeration of a factor or quotient.
    """
    if group.order == 1:
        yield try_validate(group, (0,))
    elif len(group.factors) == 1:
        yield from _search_cyclic(group, max_order)
    else:
        yield from _search_general(group, max_order)


def _subgroup_automorphisms(group: AbelianGroup, sub) -> list[dict[int, int]]:
    """Additive bijections of a subgroup onto itself, as element maps."""
    add = group.add_table
    members = sub.members
    gens = sub.generators
    out: list[dict[int, int]] = []

    def extend(i: int, mapping: dict[int, int]) -> None:
        if i == len(gens):
            if len(set(mapping.values())) == len(mapping):
                out.append(mapping)
            return
        g = gens[i]
        order = group.element_order(g)
        for img in members:
            if group.scalar(order, img) != 0:
                continue
            bigger = dict(mapping)
            ok = True
            gc = 0
            imgc = 0
            for _ in range(1, order):
                gc = add[gc][g]
                imgc = add[imgc][img]
                for x, y in mapping.items():
                    z = add[x][gc]
                    w = add[y][imgc]
                    if bigger.setdefault(z, w) != w:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                extend(i + 1, bigger)

    extend(0, {0: 0})
    return out


def _search_general(group: AbelianGroup, max_order: int | None = None):
    """Enumerate skew morphisms of a multi-factor group by kernel shape.

    The power function of a skew morphism is 1 exactly on its kernel K, a
    nontrivial subgroup; phi restricted to K is an additive bijection, phi
    permutes the K-cosets as a (recursively enumerated) skew morphism of
    A/K, and phi(a + r) = phi(a) + phi(r) for a in K pins the whole table
    once one image per coset is chosen.  So assembling every such table for
    a proper kernel candidate K0, revalidating it, and keeping the tables
    whose power is 1 exactly on K0 finds every morphism with kernel K0.

    One candidate per Aut(A)-orbit of subgroups suffices.  Let phi have
    power pi and let sigma be in Aut(A).  Then psi = sigma phi sigma^-1
    satisfies psi(a + b) = sigma(phi(sigma^-1 a) + phi^pi(sigma^-1 a)(sigma^-1 b))
    = psi(a) + psi^pi(sigma^-1 a)(b), so psi is a skew morphism with power
    pi . sigma^-1, |psi| = |phi| and Ker psi = sigma(Ker phi).  Fixing one
    sigma_K with sigma_K(K0) = K for each K in the orbit of K0, conjugation
    by sigma_K maps {phi : Ker phi = K0} one-to-one onto {psi : Ker psi = K}.
    The finds for K0 and their conjugates (revalidated by conjugate) are
    therefore complete, and nothing is yielded twice, because different
    kernels give different morphisms.  The automorphisms, kernel A, come
    from enumerate_automorphisms, whose list also generates the orbits.
    """
    n = group.order
    add = group.add_table
    autos = enumerate_automorphisms(group)
    out = [as_skew_morphism(theta) for theta in autos]
    searched: set[tuple[int, ...]] = set()

    for sub in enumerate_subgroups(group):
        if sub.size == 1 or sub.size == n or sub.members in searched:
            continue  # proper morphisms have nontrivial proper kernels
        orbit = {}  # each subgroup K in the orbit of sub -> sigma with sigma(sub) = K
        for sigma in autos:
            orbit.setdefault(tuple(sorted(sigma.table[a] for a in sub.members)), sigma)
        searched.update(orbit)
        members = set(sub.members)
        quotient, proj = quotient_group(group, sub)
        t = quotient.order
        coset_elems: list[list[int]] = [[] for _ in range(t)]
        for x in range(n):
            coset_elems[proj[x]].append(x)
        reps = [cells[0] for cells in coset_elems]
        kernel_auts = _subgroup_automorphisms(group, sub)
        induced = cached_enumeration(quotient.factors, max_order)
        nonzero = [j for j in range(t) if j != proj[0]]
        found: list[SkewMorphism] = []

        table = [0] * n
        for tau in induced.morphisms:
            for theta in kernel_auts:
                for a, fa in theta.items():
                    table[a] = fa

                def place(idx: int) -> None:
                    if idx == len(nonzero):
                        sm = try_validate(group, tuple(table))
                        if sm is not None:
                            one = 1 % sm.order
                            if {a for a in range(n) if sm.power[a] == one} == members:
                                found.append(sm)
                        return
                    j = nonzero[idx]
                    r = reps[j]
                    for y in coset_elems[tau.perm[j]]:
                        for a, fa in theta.items():
                            table[add[a][r]] = add[fa][y]
                        place(idx + 1)

                place(0)
        out.extend(conjugate(sm, sigma) for sigma in orbit.values() for sm in found)
    yield from out


def enumerate_skew_morphisms(
    group: AbelianGroup, max_order: int | None = None
) -> EnumerationReport:
    """Complete enumeration via the seeded DFS; oracle-equal wherever both run."""
    guard = max_order if max_order is not None else (
        CYCLIC_GUARD if group.is_cyclic else GENERAL_GUARD
    )
    if group.order > guard:
        raise SizeGuardError(
            f"order {group.order} exceeds enumeration guard {guard}; raise --max-order"
        )
    start = time.perf_counter()
    found = {}
    for sm in _search_morphisms(group, max_order):
        found.setdefault(sm.perm, sm)
    elapsed = (time.perf_counter() - start) * 1000.0
    return EnumerationReport.from_morphisms(group, found.values(), elapsed)


@lru_cache(maxsize=None)
def cached_enumeration(factors: tuple[int, ...], max_order: int | None = None) -> EnumerationReport:
    return enumerate_skew_morphisms(make_group(factors), max_order)


# ---------------------------------------------------------------------------
# Arithmetic predicates and the smoothness classification verifier
# ---------------------------------------------------------------------------


def smooth_only_predicate(n: int) -> bool:
    """Whether n = 2**e * n1 with e <= 4 and n1 odd square-free."""
    if n < 1:
        raise ValueError("n must be positive")
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e > 4:
        return False
    return all(v == 1 for v in factorint(n).values()) if n > 1 else True


def theorem2_necessary(group: AbelianGroup) -> bool:
    """Necessary condition for a non-cyclic group to be smooth-only.

    True does not certify smooth-only; False guarantees a non-smooth
    morphism exists (the witness constructor builds one).
    """
    if group.is_cyclic:
        raise ValueError(
            "theorem2_necessary applies to non-cyclic groups; use smooth_only_predicate(n)"
        )
    odd = group.order
    while odd % 2 == 0:
        odd //= 2
    if any(v > 1 for v in factorint(odd).values()) if odd > 1 else False:
        return False
    for f in group.factors:
        two_part = 1
        while f % 2 == 0:
            f //= 2
            two_part *= 2
        if two_part >= 32:
            return False
    return True


@dataclass(frozen=True)
class Theorem1Row:
    n: int
    total: int
    nonsmooth: int
    predicted_smooth_only: bool

    @property
    def observed_smooth_only(self) -> bool:
        return self.nonsmooth == 0

    @property
    def agrees(self) -> bool:
        return self.observed_smooth_only == self.predicted_smooth_only


@dataclass(frozen=True)
class Theorem1Verdict:
    rows: tuple[Theorem1Row, ...]

    @property
    def ok(self) -> bool:
        return all(row.agrees for row in self.rows)

    @property
    def nonsmooth_orders(self) -> tuple[int, ...]:
        return tuple(row.n for row in self.rows if row.nonsmooth > 0)


def verify_theorem1(max_n: int, max_order: int | None = None) -> Theorem1Verdict:
    """Enumerate Z_n for n <= max_n and compare against the predicate."""
    guard = max_order if max_order is not None else CYCLIC_GUARD
    if max_n > guard:
        raise SizeGuardError(f"max_n {max_n} exceeds guard {guard}")
    rows = []
    for n in range(1, max_n + 1):
        report = cached_enumeration((n,) if n > 1 else (), max_order)
        rows.append(
            Theorem1Row(n, report.total, report.nonsmooth, smooth_only_predicate(n))
        )
    return Theorem1Verdict(tuple(rows))
