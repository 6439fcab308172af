"""Exhaustive skew morphism enumeration and the arithmetic predicates.

Two independent routes produce the same sets:

* brute_force_oracle scans every permutation fixing the identity and keeps
  the ones accepted by validate -- trivially complete, order <= 10.
* enumerate_skew_morphisms factors the search through kernel structure.
  One-factor groups (_search_cyclic) take direct products over a coprime
  split of Z_n where the Kovacs-Nedela decomposition theorem applies.
  Otherwise they list the automorphisms x -> t*x, t a unit, and search
  each proper skew type in quotient-lifting cells (_lift_cell).  A cell
  runs in two phases.  It first solves its power web (_power_web), the
  powers on the cosets of its kernel <k> and their prefix sums along the
  orbit of 1, which takes the quotient morphism, k and |phi| only, never
  the table; a cell whose web has no solution ends there.  Then, under
  each solution whose powers are 1 mod the order of the seed phi on <k>,
  it walks the table: it holds phi only per coset of <k>, one image per
  coset, closes the table after each write under the defining identity
  at every known point of the orbit of 1, so it branches only where
  nothing is forced, and searches one phi(1) per orbit of the units = 1
  mod the quotient order.  Both phases journal their writes and close
  them by one discipline (_bind, _close, _undo).
  Multi-factor groups assemble tables from a kernel candidate, an
  additive bijection of it, a recursively enumerated quotient morphism,
  and one image per coset (_search_general); they search one candidate
  per Aut(A)-orbit of subgroups, keep the finds whose kernel is exactly
  that candidate, and conjugate those onto the rest of the orbit.  Two
  more cuts use the candidate's stabilizer in Aut(A) the same way: one
  (quotient morphism, kernel bijection) pair per orbit of the
  stabilizer, and inside a pair a stabilizer chain: at every placed coset
  representative one image per orbit of the sigmas that fix the pair, the
  coset and every image placed before it; the finds are conjugated onto
  the rest of each orbit.  The cosets are placed one quotient orbit at a
  time, and after each orbit a region check (_region_holds) tests the
  defining identity on the finished, phi-closed part of the table, so
  most tables die before they are complete.
  Every orbit cut, cyclic or not, takes its representatives and
  transversals from groups._orbits and spreads its finds over the orbit
  with _spread, which argues once why that is complete and yields each
  morphism once.  Each route yields every
  morphism exactly once.  Every completed table and every conjugate is
  revalidated in full, so the searches stay sound however hard their
  cells prune; the correctness burden is completeness, argued per search
  below.

Orders are always derived from tables.  The searches use two published
bounds on |phi|, and only to skip work: on Z_n, |phi| divides n*phi(n),
which skips cells (_search_cyclic); on any A, |phi| <= |A| - 1, which
skips the (quotient morphism, kernel bijection) pairs whose coset powers
cannot be pairwise distinct in Z_|phi| (_powers_fit, in _search_general)
and lets the region check list the powers of the table on a phi-closed
region, at most |A| - 1 of them, and refuse a region whose table has a
larger order (_region_holds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import combinations, permutations
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterable

from .groups import (
    SUBGROUP_GUARD,
    AbelianGroup,
    Automorphism,
    SizeGuardError,
    _orbits,
    automorphism_count,
    crt_pair,
    cycles,
    enumerate_automorphisms,
    invert,
    enumerate_subgroups,
    factorint,
    invariant_factors,
    isomorphisms,
    make_group,
    multiplicative_order,
    perm_order,
    quotient_group,
    totient,
)
from .morphisms import (
    SkewMorphism,
    _power_list,
    as_skew_morphism,
    conjugate,
    is_smooth,
    relabel,
    skew_type,
    try_validate,
)

ORACLE_GUARD = 10
CYCLIC_GUARD = 64
GENERAL_GUARD = 32
# the most automorphisms _search_general lists: above Z2xZ2xZ2xZ4 (21,504),
# the most of any group of order <= 32 but Z2^5 (9,999,360)
AUTOMORPHISM_GUARD = 50_000
# reports kept by cached_enumeration, least recently used dropped first
ENUMERATION_CACHE_SIZE = 256


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
        # raised, not asserted, so that the check holds under python -O
        if len({sm.perm for sm in morphisms}) != len(morphisms):
            raise AssertionError(f"{group.label}: a route yielded a morphism twice")
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


def _spread(finds, moves, transport) -> list[SkewMorphism]:
    """The finds at an orbit's first point x, and transport(sm, sigma) of
    each for every sigma of moves, the first one carrying x to each other
    point y of the orbit (_orbits).

    Every symmetry cut searches x only, and proves that transport by a
    sigma carrying x to y maps the morphisms at x (those whose kernel,
    quotient, restriction or image the point fixes) one to one onto the
    morphisms at y.  So the spread is complete, as the finds at x are.  It
    yields each morphism once: the finds at x are distinct, a one-to-one
    transport keeps those at y distinct, and morphisms at different points
    differ.  Every transport is revalidated (relabel, conjugate).
    """
    return finds + [transport(sm, sigma) for sigma in moves.values() for sm in finds]


def _undo(journal) -> None:
    """Free every entry that a branch's journal wrote (_close)."""
    for values, i in journal:
        values[i] = None


def _bind(values, inverse, i, v, journal) -> bool:
    """The injective write: values[i] = v and inverse[v] = i, values[i]
    free, unless v already sits at another index of values."""
    if inverse[v] is not None:
        return False
    values[i] = v
    inverse[v] = i
    journal += ((values, i), (inverse, v))
    return True


def _close(handle, journal) -> bool:
    """Close a branch's writes under its constraints; False on a contradiction.

    A branch journals each write as the pair (values, i), and every write
    turns the free (None) entry values[i] into a value, so _undo frees the
    branch by freeing its journal.  handle(values, i, journal) re-checks the
    constraints that the write of values[i] may newly decide, writes what
    they force, and returns False when one fails.  The journal is the
    worklist: it is scanned in order, and the writes a handler forces are
    appended behind it, so every write of the branch, its own and the
    forced ones, is handled once.  When each handler re-checks every
    constraint on its entry, each constraint is re-checked after the last
    write among its unknowns, so at the end every constraint that its known
    unknowns decide holds or has forced the rest.  Writes only fill free
    entries, and a forced value is the one its constraint fixes from values
    already known, so the closure and whether it fails do not depend on the
    order of the scan.
    """
    # a list iterator also reads the entries appended while it runs
    return all(handle(values, i, journal) for values, i in journal)


def _power_web(q, k, L) -> list[tuple[int, ...]]:
    """The solutions cvals of the power web of the cell (q, k, L) of
    _lift_cell, each a tuple of k powers.

    Its unknowns are cvals, the power on each coset of <k>, and svals[i] =
    sigma(i), the sum of pi(phi^j(1)) over j < i, mod L.  Every morphism of
    the cell satisfies all of its constraints:

    * Slot cosets (slot).  Slot i of the orbit of 1, phi^i(1), is congruent
      to q^i(1) mod d, hence mod k, so its power is cvals[slot_coset[i]],
      and svals[i + 1] = svals[i] + cvals[slot_coset[i]], with svals[0] =
      svals[L] = 0 (the orbit of 1 has length L = |phi|).
    * Composition (link).  cvals[j + 1] = svals[cvals[j]]: the recurrence
      pi(x + 1) = sigma(pi(x)) of _derive_power, at the basis weight 1,
      read at x = j in coset j.
    * Distinct values.  pi is constant exactly on the cosets of <k>, so
      the k values differ, and cvals[0] = 1 since 0 is in the kernel.
    * Congruence.  Every power is congruent mod |q| to q's power at its
      reduction (the congruence lemma of _lift_cell).

    The web reads only q, k and L, never the table or the seed: the coset
    of slot i is fixed by q before phi(1) is known.  solve branches the
    least unset cvals[j] over the class of q's power at j mod |q|, and
    closes the web after each write (_close).  A cvals[j] write re-checks
    the slots in coset j and the links j - 1 and j; an svals[i] write
    re-checks slots i - 1 and i and the link c_used[i], whose cvals value
    is i; a c_used write re-checks nothing.  These are all the constraints
    on each entry, and _bind keeps cvals distinct.  Once every cvals entry
    is set, svals follows from svals[0] along the slots, so a leaf of solve
    is a complete solution, and each is reached once (the branches at one
    j take distinct values).
    """
    slot_coset = []  # the coset of <k> holding slot i, that of q^i(1)
    coset_slots: list[list[int]] = [[] for _ in range(k)]
    x = 1
    for i in range(L):
        slot_coset.append(x % k)
        coset_slots[x % k].append(i)
        x = q.perm[x]
    svals: list[int | None] = [None] * (L + 1)
    svals[0] = svals[L] = 0
    cvals: list[int | None] = [None] * k
    c_used: list[int | None] = [None] * L

    def slot(i: int, journal) -> bool:
        # svals[i + 1] = svals[i] + cvals[slot_coset[i]]
        a, b = svals[i], svals[i + 1]
        j = slot_coset[i]
        r = cvals[j]
        if r is None:
            return a is None or b is None or _bind(cvals, c_used, j, (b - a) % L, journal)
        if b is None:
            if a is not None:
                svals[i + 1] = (a + r) % L
                journal.append((svals, i + 1))
        elif a is None:
            svals[i] = (b - r) % L
            journal.append((svals, i))
        else:
            return (a + r) % L == b
        return True

    def link(j: int, journal) -> bool:
        # cvals[j + 1] = svals[cvals[j]]
        cj = cvals[j]
        if cj is None:
            return True
        jn = (j + 1) % k
        succ = cvals[jn]
        sv = svals[cj]
        if sv is None:
            if succ is not None:
                svals[cj] = succ
                journal.append((svals, cj))
            return True
        if succ is None:
            return _bind(cvals, c_used, jn, sv, journal)
        return sv == succ

    def recheck(values, i: int, journal) -> bool:
        if values is cvals:
            return (
                all(slot(s, journal) for s in coset_slots[i])
                and link((i - 1) % k, journal)
                and link(i, journal)
            )
        if values is svals:
            j = c_used[i]
            return slot(i - 1, journal) and slot(i, journal) and (j is None or link(j, journal))
        return True

    def solve(j: int) -> None:
        # complete cvals from index j on; each solution is kept as a tuple
        while j < k and cvals[j] is not None:
            j += 1
        if j == k:
            solutions.append(tuple(cvals))
            return
        for guess in range(q.power[j], L, q.order):
            journal: list = []
            if _bind(cvals, c_used, j, guess, journal) and _close(recheck, journal):
                solve(j + 1)
            _undo(journal)

    solutions: list[tuple[int, ...]] = []
    journal: list = []
    _bind(cvals, c_used, 0, 1, journal)
    if _close(recheck, journal):
        solve(1)
    return solutions


def _lift_cell(group, q, k, L) -> list[SkewMorphism]:
    """One search cell for Z_n: every skew morphism phi with

    * phi reduced mod d equal to the quotient morphism q of Z_d (d =
      q.group.order),
    * power function constant exactly on cosets of <k> (k | d, k >= 2, so
      phi is proper), with the k values cvals[j] pairwise distinct, 1 only
      at j = 0,
    * orbit of the generator 1 of length exactly L (= |phi|).

    A cell runs in two phases: first it solves its power web (_power_web),
    once for all its seeds phi(k) = t*k, then for each seed it walks the
    table under each solution that the seed's kernel-order rule keeps.
    Both phases journal their writes, bind injectively with _bind, and
    close with _close.  Every completed table is revalidated before it is
    kept, so pruning only needs to preserve completeness for the cell's own
    (q, k, L).

    The kernel-order rule.  phi maps K = <k> onto itself as multiplication
    by the unit t with phi(k) = t*k, of order o = ord(t mod n/k), so o
    divides L and every power value is 1 mod o (the kernel-order lemma,
    morphisms.kernel).  Seeds with o not dividing L are skipped.  The web
    does not read the seed, so each seed keeps the web solutions whose
    values are all 1 mod its o: the complete assignments that meet every
    constraint, the same set that a search checking the rule at every write
    would reach.  A cell whose web has no solution does no table work.

    The composition rule.  Under a web solution, pi(c) = powers[c] on the
    coset of c.  Write u_i = phi^i(1), the slots of the orbit of 1.  Every
    morphism of the cell has, for each coset c < k and each slot s,

        phi(c + u_s) = phi(c) + u_((s + pi(c)) mod L):

    the defining identity phi(x + b) = phi(x) + phi^pi(x)(b) at x = c and
    b = u_s has phi^pi(c)(phi^s(1)) = phi^(s + pi(c))(1), and the orbit
    of 1 has length L.  The pair (c, s) stands for every x = c + m*k of
    the coset: phi(x + u_s) = phi(c + u_s) + m*t*k and phi(x) = phi(c) +
    m*t*k (coset writes, below), and pi(x) = pi(c).  At s = 0 the rule is
    the walk step phi(c + 1) = phi(c) + u_pi(c); at c = 0 (pi(0) = 1) it
    follows the orbit, phi(u_s) = u_(s + 1).  Once phi(c) and u_s are
    known, fire applies it: it sets phi at c + u_s if slot s + pi(c) is
    bound, binds that slot if phi(c + u_s) is known, and checks the two
    against each other if both are.

    The table walk.  A coset write (set_entry) and a slot write (_bind of
    slots and its inverse slot_of) are journaled, and _close hands each to
    recheck, which fires every pair that the write may newly decide: a
    coset c0 (row_written) as the source of (c0, s) over the bound slots
    s, and as the target of (c0 - u_s, s) over the same slots where that
    coset is set; a slot s0 (slot_written) as the source of (c, s0)
    over the set cosets c, and as the target slot of (c, s0 - pi(c)) when
    that pair's target coset is unset.  This closes the table under the
    rule.  Writes only add values during the closure, and u_0 = 1 is bound
    before every write.  So when the last of the writes of phi(c), u_s and
    the coset of c + u_s is scanned, all three are known, and that write
    fires (c, s) as a source or as a target coset, roles that skip no pair;
    a pair whose target coset stays unset is fired when the last of phi(c),
    u_s and its target slot is scanned.  So when the closure returns, every
    pair with phi(c), u_s and one target known has both targets known and
    equal to the rule's values.
    The walk branches phi(c) at the least coset c that the closure left
    unset, over the lifts of q(c), and never writes the web.  At a leaf
    every coset is set, so every slot is bound (the rule at c = 0 follows
    the orbit from u_0 = 1), and the table meets the rule at every pair,
    b = 1 included.  The leaves are therefore the complete (table, cvals)
    pairs, cvals a web solution that the seed keeps and the table closed
    under the rule for it, each once: the branches at one coset take
    distinct values, and every other value is forced by them.  Every
    morphism of the cell is such a pair, as every rule holds on it.

    Coset writes.  The seed phi(k) = t*k fixes phi on K as a -> t*a, and pi
    is 1 on K, so phi(x + a) = phi(x) + phi(a) = phi(x) + t*a: one entry
    phi(x) = v fixes the whole coset x + <k>, and maps it onto v + <k>
    since t is a unit mod n/k.  set_entry fixes all n/k entries at once
    (the seed fixes K as the coset of 0), so phi is held per coset only:
    for c < k, image[c] is the addition-table row of phi(c) (None while
    unset), so phi(c + m*k) = image[c][kernel_images[m]] with
    kernel_images[m] = m*t*k.  The table is expanded once, at a leaf, for
    revalidation.

    Congruence by construction.  Lemma: q maps <k> onto itself, q(k) is a
    multiple of k, and q permutes the cosets of <k> in Z_d.  Proof: the
    kernel <k_q> of q has k_q | k (_search_cyclic pairs q only with such
    k), so <k> is a subgroup of <k_q>.  q restricted to <k_q> is an
    automorphism of a cyclic group, so it maps each subgroup of <k_q>,
    <k> among them, onto itself.  For a in <k_q>, pi_q(a) = 1 gives
    q(a + c) = q(a) + q(c), so q(c + m*k) = q(c) + m*q(k), and q maps
    c + <k> onto q(c) + <k>.  Every value the cell writes is congruent to
    q (table entries mod d, powers mod |q|), so nothing is re-checked
    against q:

    * the walk draws phi(c) from the lifts of q(c), and the web's solve
      draws cvals from the class of q's power;
    * an entry phi(c) + u_(s + pi(c)) and a slot phi(c + u_s) - phi(c)
      forced by the rule follow q's identity q(c + q^s(1)) = q(c) +
      q^(s + pi_q(c))(1), since slot i is congruent to q^i(1), pi(c) to
      pi_q(c) mod |q|, and |q| is the length of q's orbit of 1;
    * a coset write phi(c + m*k) = phi(c) + m*t*k follows q(c + m*k) =
      q(c) + m*q(k), since the seed ranges over t = q(k)/k (mod d/k);
    * svals and cvals forced by the power web are sums and compositions of
      congruent powers, so they follow q's sigma and pi (L is a multiple
      of |q|, and svals[L] = 0 = sigma_q(|q|) mod |q|).

    So distinct cosets c < k have phi(c) in distinct cosets of <k> and
    phi is injective wherever it is set; no slot is bound to 0 (q^i(1) is
    nonzero, as d >= k >= 2); and cvals is 1 only at j = 0, because the web
    is solved from cvals[0] = 1, which sets c_used[1] = 0 (L >= k >= 2).

    Unit-conjugation orbits.  Let u be a unit mod n with u = 1 (mod d),
    and psi = u.phi.u^-1, a skew morphism with power x -> pi(u^-1 x)
    (conjugate).  Then psi lies in the same cell with the same seed t:
    psi = q mod d since u = 1 there; its kernel is u<k> = <k>, and
    psi(k) = u*phi(u^-1 k) = t*k, so L and t are unchanged; and u^-1 x = x
    (mod k) since k | d, so psi has the same cvals.  As u^-1 - 1 lies
    in <k> and phi(1 + a) = phi(1) + t*a for a in <k>, psi(1) = u*(phi(1) +
    t*(u^-1 - 1)), that is psi(1) - t = u*(phi(1) - t).  So conjugation by
    a unit u = 1 (mod d) maps the seed's morphisms with phi(1) = v one to
    one onto those with phi(1) = t + u*(v - t), and the point phi(1) is
    what the cut fixes: the cell sets it with the seed, once per orbit of
    these units (a group) on the lifts of q(1), walks the other cosets,
    and spreads the finds by relabel along x -> u*x (_spread).
    """
    n = group.order
    d = q.group.order
    add = group.add_table
    neg = group.neg_list
    out: list[SkewMorphism] = []
    solutions = _power_web(q, k, L)
    if not solutions:
        return out

    image: list[int | None] = [None] * k
    slots: list[int | None] = [None] * L
    slot_of: list[int | None] = [None] * n
    _bind(slots, slot_of, 0, 1, [])  # u_0 = 1, for every branch
    powers: tuple[int, ...] = ()  # the web solution the walk runs under

    def set_entry(x: int, v: int, journal) -> None:
        # the coset c + <k> of x is unset: phi(c + m*k) = phi(c) + m*t*k
        c = x % k
        image[c] = add[add[v][neg[kernel_images[x // k]]]]
        journal.append((image, c))

    def fire(c: int, s: int, journal) -> bool:
        # phi(c + u_s) = phi(c) + u_(s + pi(c)), with phi(c) and u_s known
        row = image[c]
        x = add[c][slots[s]]
        s2 = (s + powers[c]) % L
        u = slots[s2]
        target = image[x % k]
        if target is None:
            if u is not None:
                set_entry(x, row[u], journal)
            return True
        if u is None:
            return _bind(slots, slot_of, s2, add[target[kernel_images[x // k]]][neg[row[0]]], journal)
        return target[kernel_images[x // k]] == row[u]

    def row_written(c0: int, journal) -> bool:
        # phi(c0) as the source of c0 + u_s, and as the target of c + u_s
        # for the one coset c = c0 - u_s, if it is set
        for s, b in enumerate(slots):
            if b is not None:
                c = (c0 - b) % k
                if not fire(c0, s, journal) or (image[c] is not None and not fire(c, s, journal)):
                    return False
        return True

    def slot_written(s0: int, journal) -> bool:
        # u_s0 as the source of c + u_s0, then as the target slot of c +
        # u_s, s = s0 - pi(c), where that coset is unset (a set one has
        # been or will be closed over as a row)
        for c, row in enumerate(image):
            if row is not None:
                if not fire(c, s0, journal):
                    return False
                s = (s0 - powers[c]) % L
                if slots[s] is not None and image[(c + slots[s]) % k] is None:
                    fire(c, s, journal)  # sets the unset target coset; cannot fail
        return True

    def recheck(values, i: int, journal) -> bool:
        # a slot_of write re-checks nothing
        if values is image:
            return row_written(i, journal)
        return values is not slots or slot_written(i, journal)

    def walk(c: int, finds) -> None:
        # branch phi(c) at the least coset that the closure left unset
        while c < k and image[c] is not None:
            c += 1
        if c == k:
            sm = try_validate(group, tuple(row[w] for w in kernel_images for row in image))
            if sm is not None:
                finds.append(sm)
            return
        for v in range(q.perm[c], n, d):
            journal: list = []
            set_entry(c, v, journal)
            if _close(recheck, journal):
                walk(c + 1, finds)
            _undo(journal)

    # the units u = 1 (mod d): conjugation by them maps the cell's solutions
    # onto themselves, and moves phi(1) to t + u*(phi(1) - t)
    units = [u for u in range(1, n, d) if gcd(u, n) == 1]

    def move_first(u: int, v: int) -> int:
        return (t + u * (v - t)) % n

    def by_unit(sm: SkewMorphism, u: int) -> SkewMorphism:
        return relabel(sm, [u * x % n for x in range(n)], group)

    # seed the kernel: phi restricted to <k> is an automorphism, so phi(k) is
    # a unit multiple t*k, and set_entry(0, 0) fixes a -> t*a on all of <k>;
    # t*k = q(k) (mod d), and q(k) is a multiple of k (lemma above);
    # kernel_images[m] = phi(m*k)
    size = n // k
    for t in range(q.perm[k % d] // k, size, d // k):
        if gcd(t, size) != 1:
            continue
        o = multiplicative_order(t, size)
        if L % o:
            continue
        # the kernel-order rule: every power is 1 mod o
        kept = [w for w in solutions if all((c - 1) % o == 0 for c in w)]
        if not kept:
            continue
        kernel_images = [m * t * k % n for m in range(size)]
        for v0, moves, _ in _orbits(range(q.perm[1], n, d), units, move_first):
            finds: list[SkewMorphism] = []
            for powers in kept:
                journal: list = []
                set_entry(0, 0, journal)
                set_entry(1, v0, journal)
                if _close(recheck, journal):
                    walk(2, finds)
                _undo(journal)
            out += _spread(finds, moves, by_unit)
    return out


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

    Otherwise, listing and quotient lifting.  The automorphisms of Z_n, of
    skew type 1, are the maps x -> t*x for the units t, each checked by
    as_skew_morphism.  Every proper skew morphism phi of Z_n has skew type
    1 < k < n and induces skew morphisms on the quotients Z_d for each d
    between k and n (phi preserves all subgroups of its kernel <k>), its
    power function is constant exactly on the cosets of <k>, and |phi|
    equals the orbit length L of the generator (power values are exact in
    Z_L).  Each such k divides d = n/p for some prime p and is designated
    to the first such p; a prime with no type designated is skipped, so
    d >= k >= 2.  The search enumerates Z_d recursively and lifts each
    quotient morphism q in _lift_cell: table entries are pinned mod d,
    leaving p candidates per entry, each entry fixes its whole coset of
    <k>, each cell solves its power web before it walks a table, and it
    searches one phi(1) per unit-conjugation orbit, all proved there.
    Orders L that do not divide n*phi(n) are skipped: the order of every
    skew morphism of Z_n divides n*phi(n) (Kovacs and Nedela, the paper
    cited above).
    Soundness is the caller's revalidation of every completed table;
    completeness needs only the cell with the true (q, k, L) to reach each
    morphism.  No morphism is found twice: it has one reduction q, one
    skew type k, one order L and one seed t, the walk branches on distinct
    values, the conjugates of a find differ at 1, and the listed
    automorphisms are the only finds of type 1.
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

    # the automorphisms, skew type 1, are the maps x -> t*x for the units t
    units = [t for t in range(1, n) if gcd(t, n) == 1]
    out = [as_skew_morphism(Automorphism(group, tuple(t * x % n for x in range(n)))) for t in units]
    bound = n * totient(n)
    primes = sorted(factorint(n))
    # every proper skew type 1 < k < n divides n/p for some prime p;
    # designate each k to the first p dividing n/k, so each type is searched
    # once, and a prime with no type designated is skipped
    designated: dict[int, list[int]] = {}
    for k in range(2, n):
        if n % k == 0:
            designated.setdefault(next(p for p in primes if (n // k) % p == 0), []).append(k)

    for p, types in sorted(designated.items()):
        d = n // p  # d >= k >= 2
        for q in cached_enumeration((d,), max_order).morphisms:
            k_d = skew_type(q)
            # the orbit of 1 reduces onto its q-orbit, of length ell1, and
            # meets each of the n/d lifts of a residue at most once
            ell1 = len(next(c for c in cycles(q.perm) if 1 in c))
            for k in types:
                if k % k_d != 0:
                    continue
                # L is a multiple of |q|, and the k distinct cvals lie in Z_L
                for L in range(q.order, min(n, ell1 * (n // d) + 1), q.order):
                    if k <= L and bound % L == 0:
                        out += _lift_cell(group, q, k, L)
    yield from out


def _search_morphisms(group: AbelianGroup, max_order: int | None = None):
    """Yield every skew morphism of the group, in search order.

    max_order is the caller's size guard, passed on to every recursive
    enumeration of a factor or quotient.  The trivial group has no factor
    and takes _search_general, whose automorphism list is its identity.
    """
    if len(group.factors) == 1:
        yield from _search_cyclic(group, max_order)
    else:
        yield from _search_general(group, max_order)


def _subgroup_automorphisms(group: AbelianGroup, sub) -> list[dict[int, int]]:
    """Additive bijections of a subgroup onto itself, as element maps.

    With iso0 one isomorphism from the invariant-factor group onto the
    subgroup, they are iso . iso0^-1 over every such isomorphism iso.
    """
    orders = [group.element_order(x) for x in sub.members]
    factors = invariant_factors(orders)
    isos = list(isomorphisms(factors, sub.members, group.add_table, orders))
    return [dict(zip(isos[0], iso)) for iso in isos]


def _orbit_plan(group: AbelianGroup, coset_elems, zero: int, tau: SkewMorphism):
    """Order the nonzero cosets by tau-orbit, shortest orbit first.

    Returns (order, checks).  checks[i] is None unless placing order[i]
    completes a tau-orbit; then it is (region, tests) for the phi-closed
    region R = K u (cosets of the orbits placed so far).  region is R as a
    set, and tests holds, for every placed coset j with representative r,
    the tuple (r, pi_tau(j), at_bs, at_rbs): itemgetters that pick, from a
    table, its entries at the b in R with r + b in R, and at the r + b.
    These b include all of K, at least two elements, so the itemgetters
    return tuples.  The cosets of the orbit just placed come first, since
    their entries are the new ones.  All of it depends on tau only, not on
    the table.
    """
    add = group.add_table
    region = set(coset_elems[zero])
    order: list[int] = []
    checks: list = []
    for orbit in sorted(cycles(tau.perm), key=len):
        if orbit[0] == zero:
            continue
        region = region.union(*(coset_elems[j] for j in orbit))
        order += orbit
        tests = []
        for j in orbit + order[: -len(orbit)]:
            r = coset_elems[j][0]
            row = add[r]
            bs = [b for b in sorted(region) if row[b] in region]
            tests.append((r, tau.power[j], itemgetter(*bs), itemgetter(*(row[b] for b in bs))))
        checks.extend([None] * (len(orbit) - 1))
        checks.append((region, tests))
    return order, checks


def _region_holds(group: AbelianGroup, table, region, tests, tau_order: int) -> bool:
    """The defining identity on the final entries of a phi-closed region.

    phi_R is the table on region and the identity off it.  Its powers are
    listed once (morphisms._power_list), and the region is refused when
    m = |phi_R| >= |A|.  Otherwise each test (r, e0, at_bs, at_rbs) of
    _orbit_plan needs some j = e0 (mod gcd(tau_order, m)) in [0, m) with
    table[r + b] - table[r] = phi_R**j(b) at every usable b (b and r + b
    in R), compared as tuples.  _search_general proves that this is its
    region condition exactly and that the order cut keeps every skew
    morphism.
    """
    n = group.order
    add = group.add_table
    neg = group.neg_list
    phi_r = list(range(n))
    for x in region:  # R is phi-closed, so phi_r is a permutation
        phi_r[x] = table[x]
    powers = _power_list(tuple(phi_r), n - 1)
    if powers is None:
        return False
    step = gcd(tau_order, len(powers))
    for r, e0, at_bs, at_rbs in tests:
        target = itemgetter(*at_rbs(table))(add[neg[table[r]]])
        if target not in map(at_bs, powers[e0 % step :: step]):
            return False
    return True


def _powers_fit(n: int, tau: SkewMorphism, o: int) -> bool:
    """The coset-power capacity rule of _search_general: whether the powers
    of the nonzero cosets, pi_tau's class mod |tau| and 1 mod o each, can
    be pairwise distinct and differ from 1 in Z_L for an L <= n - 1 that
    is a multiple of lcm(|tau|, o)."""
    m, g = tau.order, gcd(tau.order, o)
    room = (n - 1) // lcm(m, o)
    rest = tau.power[1:]
    return all((r - 1) % g == 0 and rest.count(r) <= room - (r == 1 % m) for r in set(rest))


def _search_general(group: AbelianGroup, max_order: int | None = None):
    """Enumerate skew morphisms of a multi-factor group by kernel shape.

    The power function of a skew morphism is 1 exactly on its kernel K, a
    nontrivial subgroup; phi restricted to K is an additive bijection, phi
    permutes the K-cosets as a (recursively enumerated) skew morphism of
    A/K, and phi(a + r) = phi(a) + phi(r) for a in K pins the whole table
    once one image per coset is chosen.  So assembling every such table for
    a proper kernel candidate K0, revalidating it, and keeping the tables
    whose power is 1 exactly on K0 finds every morphism with kernel K0.

    One candidate per Aut(A)-orbit of subgroups suffices: conjugation by
    sigma in Aut(A) maps the morphisms with kernel K0 one to one onto those
    with kernel sigma(K0) (conjugate), so the finds for K0 are spread over
    the orbit (_spread).  The automorphisms, kernel A, come from
    enumerate_automorphisms, whose list also generates the orbits.

    One (tau, theta) per orbit of Stab(K0) = {sigma in Aut(A) : sigma(K0) =
    K0}.  Such a sigma induces the automorphism sigma_bar(x + K0) =
    sigma(x) + K0 of A/K0 (through proj, sigma_bar . proj = proj . sigma).
    Let phi have kernel K0, quotient tau and restriction theta = phi|K0, and
    psi = sigma phi sigma^-1.  Then Ker psi = sigma(K0) = K0, psi|K0 =
    sigma theta sigma^-1 since sigma^-1 maps K0 onto K0, and proj(psi(x))
    = sigma_bar(tau(proj(sigma^-1 x))), so psi has quotient sigma_bar tau
    sigma_bar^-1.  So conjugation by sigma maps the finds for (tau, theta)
    one to one onto the finds for (sigma_bar tau sigma_bar^-1, sigma theta
    sigma^-1).  The search takes one tau per Stab(K0)-orbit, then one theta
    per orbit of the tau's stabilizer in Stab(K0), and spreads the finds
    over the theta orbit, then over the tau orbit: the pair (tau', theta')
    is reached once, by sigma1 carrying tau onto tau' after sigma2 fixing
    tau and carrying theta onto sigma1^-1 theta' sigma1.

    Coset-power capacity: a pair is searched only if _powers_fit(|A|, tau,
    o) holds for o = |theta|.  Let phi be a find of the pair, with kernel
    exactly K0 and L = |phi|.  phi^L = 1 gives tau^L = 1 and theta^L = 1,
    so L is a multiple of M = lcm(|tau|, o), and L <= |A| - 1, since a
    skew morphism of a finite group A has order less than |A| (Conder,
    Jajcay and Tucker, Cyclic complements and skew morphisms of groups, J.
    Algebra 453 (2016)).  pi is constant exactly on the cosets of K0
    (Jajcay and Siran, Skew-morphisms of regular Cayley maps, Discrete
    Math. 244 (2002)), so its values on the cosets are pairwise distinct in
    Z_L, and the zero coset's is 1.  The value on a coset x + K0 is
    pi_tau(x + K0) mod |tau| (the second reason of the region check below)
    and 1 mod o (the kernel-order lemma, morphisms.kernel).  Take a
    residue r that pi_tau takes on N_r nonzero cosets.  By CRT, no value
    of Z_L is r mod |tau| and 1 mod o unless gcd(|tau|, o) divides r - 1,
    and then they form one class mod M, with L/M <= (|A| - 1) // M members
    in Z_L, one of them 1 when r = 1 mod |tau|.  So N_r is at most that
    count, less one when r = 1 mod |tau|, which is the rule.  o is
    invariant under conjugation, so the refused thetas are whole orbits of
    the tau's stabilizer, and a tau that keeps none is not planned.

    One image per orbit at every placed coset: a stabilizer chain.  Let r_i
    be the representative of the coset j_i = order[i], and for images y_0
    .. y_(i-1) let F(y_0 .. y_(i-1)) be the finds of the pair with phi(r_h)
    = y_h for every h < i.  Let G_0 be the sigmas of Stab(K0) that fix tau
    and theta, H_i the sigmas of G_i whose sigma_bar fixes j_i, and G_(i+1)
    the sigmas of H_i whose action below fixes y_i.  For sigma in H_i and r
    = r_i, psi = sigma phi sigma^-1 is again a find of the pair, and with a
    = sigma^-1 r - r in K0 the kernel placement phi(r + a) = theta(a) +
    phi(r) gives psi(r) = sigma(theta(sigma^-1 r - r) + phi(r)) = theta(r -
    sigma r) + sigma(phi(r)), as sigma theta = theta sigma on K0.  The map y
    -> theta(r - sigma r) + sigma(y) is an action of H_i on the coset
    tau(j_i) + K0 (sigma_bar fixes tau(j_i) = tau(sigma_bar j_i)):
    composing the maps of sigma and rho gives theta(r - sigma r) +
    theta(sigma r - sigma rho r) + sigma rho y, the map of sigma rho.  A
    sigma of H_i lies in every G_(h+1), h < i, so the same formula at r_h
    gives psi(r_h) = y_h, and conjugation by a sigma of H_i carrying y to
    y' maps F(y_0 .. y_(i-1), y) one to one onto F(y_0 .. y_(i-1), y').
    place(i, G_i) yields F(y_0 .. y_(i-1)) for the images already placed,
    each morphism once, by induction from the last level up.  With every
    coset placed, F is the completed table if it validates with kernel
    exactly K0.  Below that, F(y_0 .. y_(i-1)) is the disjoint union of
    F(y_0 .. y_(i-1), y) over y in the coset; place takes one y per
    H_i-orbit, searches it under its stabilizer G_(i+1), which yields F(..,
    y) by the hypothesis, and spreads the finds over the orbit (_spread).
    The region check between the levels refuses only tables that are no
    find (below), so it drops nothing.  At i = 0 nothing is placed, and F
    is every find of the pair.

    A table dies as soon as a phi-closed region of it breaks the identity.
    The nonzero cosets are placed tau-orbit by tau-orbit (_orbit_plan).
    phi maps the coset j onto the coset tau(j), so once every coset of a
    tau-orbit is placed, R = K u (cosets of the completed orbits) is
    phi-closed and its entries are final.  _region_holds then requires, for
    every placed coset representative r, some e = pi_tau(r mod K) (mod |tau|)
    with phi(r + b) - phi(r) = phi^e(b) for every b in R with r + b in R.
    Every skew morphism phi with quotient tau passes, for three reasons:

    * The condition is the defining identity phi(r + b) = phi(r) +
      phi^pi(r)(b), restricted to entries that are already final: r, b and
      r + b lie in R, and so does phi^pi(r)(b), since R is phi-closed.  So
      e = pi(r) satisfies it.
    * pi(r) = pi_tau(r mod K) (mod |tau|).  Projecting the identity onto
      A/K gives tau(r + b) = tau(r) + tau^pi(r)(b) there for every b, so
      pi(r) is a valid power for tau at r mod K; two valid powers at one
      point give the same permutation tau^j, so they agree mod |tau|.
    * Checking representatives suffices.  The kernel placement phi(a + x) =
      theta(a) + phi(x) for a in K gives D_(a+r)(b) = phi(a + r + b) -
      phi(a + r) = phi(r + b) - phi(r) = D_r(b), and a + r and r share
      their coset, hence pi_tau and, R being a union of cosets, the usable
      b.  On K itself D_a = phi, with e = 1.

    The condition is tested on the listed powers of phi_R, the table on R
    and the identity off R, with m = |phi_R|.  For b in R, phi^e(b) =
    phi_R**e(b), which depends on e mod m only, and by CRT the e = e0 (mod
    |tau|) reach exactly the residues j = e0 (mod gcd(|tau|, m)) in [0, m).
    So one scan of that class over phi_R**0 .. phi_R**(m-1) decides the
    condition exactly.  The listing stops at |A| - 1 tables, and a region
    with m >= |A| is refused; no skew morphism phi is lost, since phi_R
    agrees with phi on R and fixes the rest, so m divides |phi| <= |A| - 1
    (the order bound above).

    Completed tables are still revalidated and filtered by exact kernel, so
    the check only has to keep every morphism, never to prove one.
    """
    n = group.order
    add = group.add_table
    neg = group.neg_list
    autos = enumerate_automorphisms(group)
    out = [as_skew_morphism(theta) for theta in autos]
    # proper morphisms have nontrivial proper kernels
    subgroups = {sub.members: sub for sub in enumerate_subgroups(group) if 1 < sub.size < n}

    def move_subgroup(sigma, members):
        return tuple(sorted(sigma.table[a] for a in members))

    def by_stabilizer(sm, moving):
        # moving is an entry of stab below, led by its sigma
        return conjugate(sm, moving[0])

    for members, kernel_moves, stab in _orbits(subgroups, autos, move_subgroup):
        sub = subgroups[members]
        kernel_set = set(members)
        quotient, proj = quotient_group(group, sub)
        t = quotient.order
        coset_elems: list[list[int]] = [[] for _ in range(t)]
        for x in range(n):
            coset_elems[proj[x]].append(x)
        reps = [cells[0] for cells in coset_elems]
        index = {a: i for i, a in enumerate(members)}

        def induced(sigma):
            # sigma of Stab(K0) with the permutations it induces on the cosets
            # (sigma_bar) and on the members of K0, by index, and itemgetters
            # of their inverses, which move_tau and move_theta read
            bar = tuple(proj[sigma.table[r]] for r in reps)
            on_k = tuple(index[sigma.table[a]] for a in members)
            return sigma, bar, on_k, itemgetter(*invert(bar)), itemgetter(*invert(on_k))

        stab = [induced(sigma) for sigma in stab]
        taus = {tau.perm: tau for tau in cached_enumeration(quotient.factors, max_order).morphisms}
        thetas = {
            tuple(index[theta[a]] for a in members): theta
            for theta in _subgroup_automorphisms(group, sub)
        }
        theta_orders = {key: perm_order(key) for key in thetas}

        # p perm p^-1 for p = sigma_bar or sigma on K0: the values p[perm[x]],
        # read at x = p^-1(z), both by C-level itemgetters
        def move_tau(moving, perm):
            return moving[3](itemgetter(*perm)(moving[1]))

        def move_theta(moving, perm):
            return moving[4](itemgetter(*perm)(moving[2]))

        found: list[SkewMorphism] = []
        table = [0] * n
        for tau_perm, tau_moves, tau_stab in _orbits(taus, stab, move_tau):
            tau = taus[tau_perm]
            admitted = [key for key, o in theta_orders.items() if _powers_fit(n, tau, o)]
            if not admitted:
                continue
            order, checks = _orbit_plan(group, coset_elems, proj[0], tau)
            tau_found: list[SkewMorphism] = []
            for theta_key, theta_moves, pair_stab in _orbits(admitted, tau_stab, move_theta):
                theta = thetas[theta_key]
                for a, fa in theta.items():
                    table[a] = fa

                def place(idx: int, stabilizer, finds) -> None:
                    # level idx of the chain: one phi(r) per orbit of the sigmas of
                    # stabilizer whose sigma_bar fixes order[idx], r its representative;
                    # phi(r) and its coset by theta, the region check, then the next
                    # level under phi(r)'s stabilizer; the finds spread over the orbit
                    if idx == len(order):
                        sm = try_validate(group, tuple(table))
                        if sm is not None:
                            one = 1 % sm.order
                            if {a for a in range(n) if sm.power[a] == one} == kernel_set:
                                finds.append(sm)
                        return
                    j = order[idx]
                    r = reps[j]
                    fixing = [moving for moving in stabilizer if moving[1][j] == j]

                    def move_image(moving, y):  # y -> theta(r - sigma r) + sigma(y)
                        s = moving[0].table
                        return add[theta[add[r][neg[s[r]]]]][s[y]]

                    check = checks[idx]
                    for y, moves, y_stab in _orbits(coset_elems[tau.perm[j]], fixing, move_image):
                        for a, fa in theta.items():
                            table[add[a][r]] = add[fa][y]
                        y_finds: list[SkewMorphism] = []
                        if check is None or _region_holds(group, table, *check, tau.order):
                            place(idx + 1, y_stab, y_finds)
                        finds += _spread(y_finds, moves, by_stabilizer)

                pair_found: list[SkewMorphism] = []
                place(0, pair_stab, pair_found)
                tau_found += _spread(pair_found, theta_moves, by_stabilizer)
            found += _spread(tau_found, tau_moves, by_stabilizer)
        out += _spread(found, kernel_moves, conjugate)
    yield from out


def search_guard(group: AbelianGroup, max_order: int | None = None) -> int:
    """The largest order enumerate_skew_morphisms takes: max_order when
    given, else CYCLIC_GUARD or GENERAL_GUARD by the route _search_morphisms
    takes, which goes by the factor count: a split cyclic literal such as
    Z5xZ7 takes the general route and its guard.  A group of more than one
    factor takes _search_general, which lists its subgroups and
    automorphisms, so its guard never exceeds SUBGROUP_GUARD."""
    if max_order is None:
        max_order = CYCLIC_GUARD if len(group.factors) == 1 else GENERAL_GUARD
    return max_order if len(group.factors) == 1 else min(max_order, SUBGROUP_GUARD)


def check_search_guard(group: AbelianGroup, max_order: int | None = None) -> None:
    """Raise SizeGuardError when the group's order exceeds search_guard, or
    when it takes _search_general and has more than AUTOMORPHISM_GUARD
    automorphisms (automorphism_count, so no table is listed)."""
    guard = search_guard(group, max_order)
    if group.order > guard:
        capped = search_guard(group, group.order) < group.order
        hint = "the multi-factor route stops there" if capped else "raise --max-order"
        raise SizeGuardError(f"order {group.order} exceeds enumeration guard {guard}; {hint}")
    count = automorphism_count(group) if len(group.factors) != 1 else 0
    if count > AUTOMORPHISM_GUARD:
        raise SizeGuardError(
            f"{group.label} has {count} automorphisms, above the multi-factor "
            f"route's automorphism guard {AUTOMORPHISM_GUARD}"
        )


def enumerate_skew_morphisms(
    group: AbelianGroup, max_order: int | None = None
) -> EnumerationReport:
    """Every skew morphism of the group, by the route for its shape
    (_search_morphisms); oracle-equal wherever both run.  A route that
    yields one morphism twice fails the report's assertion."""
    check_search_guard(group, max_order)
    start = time.perf_counter()
    found = list(_search_morphisms(group, max_order))
    elapsed = (time.perf_counter() - start) * 1000.0
    return EnumerationReport.from_morphisms(group, found, elapsed)


def _memoized(fn):
    """lru_cache of ENUMERATION_CACHE_SIZE entries keyed on the normalized
    (factors, max_order): the calls f((6,)), f((6,), None) and
    f([6], max_order=None) share one entry."""
    cached = lru_cache(maxsize=ENUMERATION_CACHE_SIZE)(fn)

    @wraps(fn)
    def call(factors: Iterable[int], max_order: int | None = None):
        return cached(tuple(factors), max_order)

    call.cache_info = cached.cache_info
    call.cache_clear = cached.cache_clear
    return call


@_memoized
def cached_enumeration(factors: tuple[int, ...], max_order: int | None = None) -> EnumerationReport:
    return enumerate_skew_morphisms(make_group(factors), max_order)


# ---------------------------------------------------------------------------
# Arithmetic predicates and the smoothness classification verifier
# ---------------------------------------------------------------------------


def smooth_only_predicate(n: int) -> bool:
    """Whether n = 2**e * n1 with e <= 4 and n1 odd square-free."""
    if n < 1:
        raise ValueError("n must be positive")
    return all(e <= (4 if p == 2 else 1) for p, e in factorint(n).items())


def theorem2_necessary(group: AbelianGroup) -> bool:
    """Necessary condition for a non-cyclic group to be smooth-only.

    True does not certify smooth-only; False guarantees a non-smooth
    morphism exists (the witness constructor builds one).
    """
    if group.is_cyclic:
        raise ValueError(
            "theorem2_necessary applies to non-cyclic groups; use smooth_only_predicate(n)"
        )
    # the odd part of the order square-free, and each factor's 2-part below 32
    odd = group.order // (group.order & -group.order)
    return smooth_only_predicate(odd) and all(f & -f < 32 for f in group.factors)


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
