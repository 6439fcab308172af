"""Exhaustive skew morphism enumeration and the arithmetic predicates.

Two independent routes produce the same sets:

* brute_force_oracle scans every permutation fixing the identity and keeps
  the ones accepted by validate -- trivially complete, order <= 10.
* enumerate_skew_morphisms factors the search through kernel structure.
  One-factor groups (_search_cyclic) take direct products over a coprime
  split of Z_n where the Kovacs-Nedela decomposition theorem applies.
  Otherwise they list the automorphisms x -> t*x, t a unit, and search
  each proper skew type in quotient-lifting cells (_lift_cell).  A cell
  is opened only if its coset powers fit in Z_|phi| (_powers_fit, the
  capacity rule both routes share) and its power web has a solution.
  The web (_power_web) has the powers on the cosets of the kernel <k> as
  its only unknowns: the orbit of 1 meets those cosets with the period
  |q| of the quotient morphism q, so the sums of the powers along one
  period read every link pi(j + 1) = sigma(pi(j)) in closed form.  It reads the
  cosets of <k> that q's orbit of 1 meets, q's powers and order, k and
  |phi|, never the table, so the search solves each web once and shares
  it among the cells with its signature.  Then, under
  each solution whose powers are 1 mod the order of the seed phi on <k>,
  the cell walks the table: it holds phi only per coset of <k>, one image
  per coset, closes the table after each write under the defining
  identity at every known point of the orbit of 1, so it branches only
  where nothing is forced.  Both phases bind injectively (_bind) and free
  a branch by its journal (_undo); the walk closes its writes with
  _close, the web with a pass over its links.  The units of Z_n cut the
  search three times, as a stabilizer chain: one quotient morphism q per
  class under conjugation by the units of Z_d, whose cells alone are
  opened; inside a cell one web solution per orbit of the units that fix
  q; and under it one phi(1) per orbit of those of them = 1 mod k; the
  finds are conjugated onto the rest of each orbit.
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
  defining identity on the finished, phi-closed part of the table, read
  at its coset representatives as one CRT system of cycle offsets per
  test, so most tables die before they are complete.
  Every orbit cut, cyclic or not, is one _orbit_cut call: it searches
  the first point of each orbit under that point's stabilizer and keeps
  the finds with the moves onto the rest of the orbit, their transports
  deferred, and _orbit_cut argues once why that is complete, stands for
  each morphism once, and counts each orbit as its size times its first
  point's finds.  So _search_general reads as a chain of cuts, kernel ->
  quotient morphism -> kernel bijection -> coset images, and
  _search_cyclic as quotient morphism -> web solution -> phi(1), each
  level a search of one point under its stabilizer that returns its
  finds.  Each route
  stands for every morphism exactly once.  Every completed table is
  revalidated in full, and so is every morphism that is materialized, a
  conjugate or a listed automorphism, so the searches stay sound however
  hard their cells prune; the correctness burden is completeness, argued
  per search below.  The counts come from the validated leaves times the
  proved orbit sizes (_tally), so a caller that reads only counts builds
  no conjugate of its group's morphisms.

Both entry points, enumerate_skew_morphisms and cached_enumeration (the
same call on the group of its factors), check the size guards and read
one cache of reports (_cached_search), which the searches' recursion
reads too; like make_group, they keep no report of a group above
SUBGROUP_GUARD that they are asked for.  A report times the search that
produced it and counts its finds (EnumerationReport.from_search), and
expands them into morphisms only when those are read, once.  The cyclic
recursion reads one morphism per unit class from its quotients' finds
(_unit_classes) and expands no quotient report; the coprime split and
_search_general read their factors' and quotients' morphisms, so those
are expanded.

Orders are always derived from tables.  The searches use two published
bounds on |phi|, and only to skip work: on Z_n, |phi| divides n*phi(n),
which skips cells (_search_cyclic); on any A, |phi| <= |A| - 1, which
skips the (quotient morphism, kernel bijection) pairs whose coset powers
cannot be pairwise distinct in Z_|phi| (_powers_fit, in _search_general;
_search_cyclic applies the same rule at its cell's own |phi|) and lets the
region check refuse a phi-closed region whose table has order |A| or
more (_region_holds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations, product as _cartesian
from math import gcd, lcm, prod
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .groups import (
    SUBGROUP_GUARD,
    AbelianGroup,
    Automorphism,
    SizeGuardError,
    _orbit,
    _orbits,
    automorphism_chain,
    automorphism_count,
    crt_pair,
    cycles,
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
    _power_witness,
    _trace_cycle,
    as_skew_morphism,
    conjugate,
    is_smooth,
    relabel,
    try_validate,
)

ORACLE_GUARD = 10
CYCLIC_GUARD = 64
GENERAL_GUARD = 32
# the most automorphisms that a report of a multi-factor group builds when
# its morphisms are read, and so the most of any quotient _search_general
# reads: above Z2xZ2xZ2xZ4 (21,504), the most of any group of order <= 32
# but Z2^5 (9,999,360), which is counted and not built
AUTOMORPHISM_GUARD = 50_000
# reports kept by _cached_search, least recently used dropped first
ENUMERATION_CACHE_SIZE = 256


class _Expansion:
    """The morphisms field of EnumerationReport: a data descriptor, so that
    the dataclass's __init__ and dataclasses.replace take it like any field.
    A report that from_search makes is given none (the default None).  Its
    morphisms are then built on the first read and kept: its finds expanded
    (_expand) and sorted by permutation.  Counted again as leaves (_tally),
    they must hold no perm twice and the report's counts, or the read
    raises."""

    def __get__(self, report, owner=None):
        if report is None:
            return None  # the field's default: expand the finds when read
        morphisms = report.__dict__["_morphisms"]
        if morphisms is None:
            check_expansion_guard(report.group)
            morphisms = tuple(sorted(_expand(report.found), key=lambda sm: sm.perm))
            counts = (report.total, report.automorphisms, report.smooth)
            expanded = _tally(report.group, morphisms)
            if expanded != counts:
                raise AssertionError(
                    f"{report.group.label}: (total, automorphisms, smooth) = {expanded} "
                    f"expanded, {counts} counted"
                )
            report.__dict__["_morphisms"] = morphisms
        return morphisms

    def __set__(self, report, morphisms) -> None:
        # only __init__ reaches this: the frozen dataclass refuses later writes
        report.__dict__["_morphisms"] = morphisms


@dataclass(frozen=True)
class EnumerationReport:
    """A group's skew morphism counts, and its morphisms sorted by
    permutation.

    from_search derives the counts from a search's finds (_orbit_cut):
    each validated leaf times the orbit sizes above it, and the listed
    automorphisms, all smooth (_tally).  morphisms expands the finds only
    when it is first read, revalidating every morphism it builds, and
    refuses an expansion whose counts differ from the report's."""

    group: AbelianGroup
    total: int
    automorphisms: int
    proper: int
    smooth: int
    nonsmooth: int
    elapsed_ms: float
    found: tuple = field(repr=False, compare=False)
    morphisms: tuple[SkewMorphism, ...] = _Expansion()

    @classmethod
    def from_search(cls, group: AbelianGroup, search: Iterable) -> "EnumerationReport":
        """The report of a search's finds, counted without expanding them;
        elapsed_ms is the time taken to consume the search and count its
        finds."""
        start = time.perf_counter()
        found = tuple(search)
        total, autos, smooth = _tally(group, found)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return cls(group, total, autos, total - autos, smooth, total - smooth, elapsed_ms, found)

    @cached_property
    def _unit_classes(self) -> list[SkewMorphism]:
        # _unit_classes(d) of a report of Z_d, read from its finds once
        d = self.group.order
        least: dict[tuple, SkewMorphism] = {}
        leaves: list[SkewMorphism] = []

        def walk(found) -> None:
            for item in found:
                if isinstance(item, _Orbit):
                    walk(item.finds)
                elif isinstance(item, _Listed):
                    least.update((table, as_skew_morphism(Automorphism(self.group, table))) for table in item.tables)
                else:
                    leaves.append(item)

        walk(self.found)
        moved: dict[tuple, tuple[SkewMorphism, int]] = {}
        conjugations = [(u, _unit_conjugation(u, d)) for u in range(1, d) if gcd(u, d) == 1] if leaves else []
        for sm in leaves:
            perm, u = min((move(sm.perm), u) for u, move in conjugations)
            if perm == sm.perm:
                least[perm] = sm
            else:
                moved[perm] = sm, u
        for perm, (sm, u) in moved.items():
            if perm not in least:  # on a split Z_d the least perm is a leaf too
                least[perm] = _by_unit(sm, u)
        return [least[perm] for perm in sorted(least)]


def brute_force_oracle(group: AbelianGroup, guard: int = ORACLE_GUARD) -> EnumerationReport:
    """Ground truth: validate every permutation of A fixing the identity."""
    n = group.order
    if n > guard:
        raise SizeGuardError(f"order {n} exceeds oracle guard {guard}")
    tried = (try_validate(group, (0,) + rest) for rest in permutations(range(1, n)))
    return EnumerationReport.from_search(group, (sm for sm in tried if sm is not None))


class _Orbit(NamedTuple):
    """The finds of one orbit of a symmetry cut, its transports deferred
    (_orbit_cut): finds at the orbit's first point, and sigmas, one carrying
    that point onto each other point of the orbit, applied by transport."""

    finds: list
    sigmas: tuple
    transport: Callable


class _Listed(NamedTuple):
    """Every automorphism of a search's group: order of them, and their
    tables, a list (the maps x -> t*x of Z_n) or a stabilizer chain of
    Aut(A) (groups.StabilizerChain), whose elements are built only when
    they are expanded; each is checked by as_skew_morphism then."""

    group: AbelianGroup
    order: int
    tables: Iterable[tuple[int, ...]]


def _orbit_cut(points, sigmas, order, act, search, transport) -> list:
    """The finds of a symmetry cut: for each orbit of the group H of the
    given order that sigmas generate, acting on points by act
    (groups._orbits), whose first point x finds something, one _Orbit of
    the finds search(x, stab, size) and of the moves of groups._orbits,
    for each other point y of the orbit an element of H carrying x to y.
    stab() returns generators of x's stabilizer and size is its order, |H|
    over the orbit's size; the stabilizer is built only if the search asks
    for it.  The finds of a search are the validated tables it completed,
    its leaves, and the _Orbits of the cuts below it; _expand builds
    transport(sm, sigma) of every morphism they stand for, sigma over the
    orbit's moves.

    Every cut proves that transport by a sigma carrying x to y maps the
    morphisms at x (those whose kernel, quotient, restriction or image the
    point fixes) one to one onto the morphisms at y.  So the cut is
    complete, as each search is.  It stands for each morphism once: the
    finds at x are distinct, a one-to-one transport keeps those at y
    distinct, and morphisms at different points differ.

    The count identity.  The orbits are disjoint, each transport is one to
    one, and the finds at different points differ, so an orbit stands for
    1 + len(moves) times as many morphisms as its first point, and, down
    the nested cuts, a leaf for the product of the orbit sizes above it.
    Each of them is a conjugate of the leaf by an automorphism sigma, the
    product of the transports' sigmas down its path (_by_unit's relabel
    along x -> u*x is the conjugation by that automorphism), and psi =
    sigma phi sigma^-1 has power pi . sigma^-1 (the lemma of
    morphisms.conjugate).  So power 1 everywhere carries over
    from phi to psi, and so does pi constant on phi-orbits: pi(phi(x)) =
    pi(x) for every x gives pi_psi(psi(y)) = pi(phi(sigma^-1 y)) =
    pi(sigma^-1 y) = pi_psi(y); conjugation by sigma^-1 carries both back.
    A leaf's conjugates are therefore automorphisms, and smooth, exactly
    when the leaf is, and a report counts them from its validated leaves
    times proved orbit sizes (_tally).  Every morphism that is built,
    transport or leaf, is revalidated (relabel, conjugate, try_validate).
    """
    out: list = []
    for x, moves, stab in _orbits(points, sigmas, order, act):
        finds = search(x, stab, order // (1 + len(moves)))
        if finds:  # most points find nothing: keep no empty orbit
            out.append(_Orbit(finds, tuple(moves.values()), transport))
    return out


def _tally(group: AbelianGroup, found) -> tuple[int, int, int]:
    """(total, automorphisms, smooth) of the morphisms that a search's finds
    stand for, no transport built: a leaf counts once, an _Orbit 1 +
    len(sigmas) times its finds (the count identity of _orbit_cut), and
    the listed automorphisms once each, all smooth.  Raised, not asserted,
    so that python -O keeps them: a perm met twice among the leaves, a
    leaf automorphism beside the listed ones, which are all of them, and
    a listed count other than |Aut(A)| (automorphism_count, Hillar-Rhea;
    totient(n) on Z_n), which stands in for checking each automorphism."""
    perms: list = []
    listed = 0  # the number of listed automorphisms

    def tally(items) -> tuple[int, int, int]:
        nonlocal listed
        total = autos = smooth = 0
        for item in items:
            if isinstance(item, _Orbit):
                size = 1 + len(item.sigmas)
                t, a, s = (size * c for c in tally(item.finds))
            elif isinstance(item, _Listed):
                t = a = s = listed = item.order
                if t != automorphism_count(group):
                    raise AssertionError(f"{group.label}: {t} automorphisms listed, |Aut| differs")
            else:
                t, a, s = 1, item.is_automorphism, is_smooth(item)
                perms.append(item.perm)
            total, autos, smooth = total + t, autos + a, smooth + s
        return total, autos, smooth

    counts = tally(found)
    if len(set(perms)) != len(perms) or (listed and counts[1] != listed):
        raise AssertionError(f"{group.label}: a route yielded a morphism twice")
    return counts


def _expand(found) -> list[SkewMorphism]:
    """Every morphism that a search's finds stand for, each revalidated once
    it is built: the leaves, the listed automorphisms by as_skew_morphism,
    and for each _Orbit its expanded finds and their transports by each of
    its sigmas (relabel, conjugate)."""
    out: list[SkewMorphism] = []
    for item in found:
        if isinstance(item, _Orbit):
            finds = _expand(item.finds)
            out += finds
            out += [item.transport(sm, sigma) for sigma in item.sigmas for sm in finds]
        elif isinstance(item, _Listed):
            out += (as_skew_morphism(Automorphism(item.group, table)) for table in item.tables)
        else:
            out.append(item)
    return out


def _by_unit(sm: SkewMorphism, u: int) -> SkewMorphism:
    """The transport of a morphism of Z_n by relabel along x -> u*x, u a
    unit of Z_n: its conjugate by that automorphism (conjugate)."""
    n = sm.group.order
    return relabel(sm, [u * x % n for x in range(n)], sm.group)


def _unit_conjugation(u: int, d: int) -> Callable:
    """perm -> u perm u^-1 on Z_d, u a unit mod d: the values u*perm(x),
    read at x = u^-1 * z, by C-level itemgetters.  It is the perm of
    _by_unit(sm, u) for sm of that perm, built without a table."""
    times = tuple(u * x % d for x in range(d))
    back = itemgetter(*(pow(u, -1, d) * x % d for x in range(d)))
    return lambda perm: back(itemgetter(*perm)(times))


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


def _power_web(word, powers, m, k, L) -> list[tuple[int, ...]]:
    """The solutions cvals of the power web of a cell of _lift_cell, each a
    tuple of k powers.  For the cell (q, k, L), m = |q|, word[i] = q^i(1)
    mod k for i < m, and powers = q.power[:k].

    Its unknowns are cvals, the power on each coset of <k>, in Z_L.  With
    sigma(i) the sum of pi(phi^t(1)) over t < i, mod L, every morphism of
    the cell satisfies all of its constraints:

    * Composition (links).  cvals[j + 1] = sigma(cvals[j]), indices mod k:
      the recurrence pi(x + 1) = sigma(pi(x)) of try_validate (Jajcay and
      Siran, Discrete Math. 244 (2002)), at the basis weight 1, read at
      x = j in coset j.
    * Distinct values.  pi is constant exactly on the cosets of <k>, so
      the k values differ, and cvals[0] = 1 since 0 is in the kernel.
    * Congruence.  Every power is congruent mod m to q's power at its
      reduction (the congruence lemma of _lift_cell).

    Periodicity.  Slot t of the orbit of 1, phi^t(1), is congruent to
    q^t(1) mod d, hence mod k, and q^m = 1, so it lies in the coset
    word[t mod m] and its power is cvals of that coset.  With P[b] the sum
    of cvals[word[t]] over t < b, for b <= m, and m | L, sigma(a*m + b) =
    a*P[m] + P[b] (mod L) for b < m.  So sigma is read in closed form from
    the prefix of word whose cosets are set: sigma(x) is known once
    P[x mod m] is, and, for x >= m, P[m].

    sigma(L) = 0, the orbit of 1 closing after L = |phi| slots, always
    holds, so the web does not test it.  sigma(L) = (L/m)*P[m].  P[m] =
    sigma_q(m) (mod m) by the congruence lemma (which forced values meet
    too, below), powers[word[t]] being q's power at q^t(1), as q's kernel
    <k_q> has k_q | k.  And sigma_q(m) = 0
    (mod m), because q's orbit of 1 has length m: q^m = 1, so 1 + y =
    q^m(1 + y) = 1 + q^sigma_q(m)(y) for every y.  So m divides P[m], and
    L divides (L/m)*P[m].

    Forced values are already congruent to q's powers.  A link forces
    sigma(cvals[j]), a sum of powers congruent to q's along slots
    congruent to q's orbit of 1, so it is sigma_q(cvals[j]) (mod m); and
    sigma_q(x + m) = sigma_q(x) (mod m) by the lemma above, so this is
    sigma_q(pi_q(j)) = pi_q(j + 1) = powers[j + 1] (mod m), q's own
    recurrence (pi_q(k) = powers[0] = 1, k lying in <k_q>).  So no forced
    value is re-checked against its class.

    solve branches only the cosets of word, in the order the orbit of 1
    meets them, over the class of powers[j] mod m, so each branch sets the
    coset at the first unset position of word.  It binds each value
    injectively (_bind into c_used) and frees a branch by its journal
    (_undo).  P over the set prefix of word is kept as one list, prefix,
    that a branch lengthens and that is cut back when the branch is
    undone.  After each write, one pass over the k links writes cvals[j +
    1] = sigma(cvals[j]), or checks it, at every j where cvals[j] is set
    and sigma is known there; a value forced at link j is read at link j
    + 1 in the same pass (link k - 1 meets cvals[0], set from the start),
    so a second pass over the same prefix would force nothing, and the
    pass is repeated only while it lengthens the set prefix of word.

    Leaves are complete.  Once every coset of word is set, P is complete,
    so sigma is known everywhere, and the chain of links from cvals[0] = 1
    sets all k values; the cosets that the orbit of 1 never meets are
    forced, never branched.  A leaf therefore meets every link, with k
    distinct values, each congruent to q's power, so it is a solution, and
    each solution is reached once (the branches at one coset take distinct
    values).  The web reads only its arguments, never the table or the
    seed: the coset of slot t is fixed by q before phi(1) is known.  So
    cells with equal arguments share their solutions (_search_cyclic).
    """
    branch = list(dict.fromkeys(word))  # the cosets solve branches, in order
    cvals: list[int | None] = [None] * k
    c_used: list[int | None] = [None] * L
    prefix = [0]  # P[b] = sigma(b) for b <= t, over the set prefix word[:t]

    def links(journal) -> bool:
        # one pass over the links per growth of the set prefix word[:t]
        t = len(prefix) - 1
        while True:
            while t < m and cvals[word[t]] is not None:
                prefix.append((prefix[t] + cvals[word[t]]) % L)
                t += 1
            known = t if t < m else L  # sigma(c) is known for c <= known
            for j, c in enumerate(cvals):
                if c is None or c > known:
                    continue
                sv = prefix[c] if c <= t else (c // m * prefix[m] + prefix[c % m]) % L  # sigma(c)
                succ = cvals[(j + 1) % k]
                if succ is None:
                    if not _bind(cvals, c_used, j + 1, sv, journal):
                        return False
                elif succ != sv:
                    return False
            if t == m or cvals[word[t]] is None:
                return True

    def solve(i: int) -> None:
        # complete cvals from the coset branch[i] on; a solution is kept as a tuple
        while i < len(branch) and cvals[branch[i]] is not None:
            i += 1
        if i == len(branch):
            solutions.append(tuple(cvals))
            return
        j = branch[i]
        size = len(prefix)
        for guess in range(powers[j], L, m):
            journal: list = []
            if _bind(cvals, c_used, j, guess, journal) and links(journal):
                solve(i + 1)
            _undo(journal)
            del prefix[size:]  # the sums the branch's writes added

    solutions: list[tuple[int, ...]] = []
    # cvals[0] = 1; link 0, cvals[1] = sigma(1) = cvals[word[0]], always holds
    _bind(cvals, c_used, 0, 1, [])
    solve(0)
    return solutions


def _lift_cell(group, q, k, L, solutions, fixing) -> list[SkewMorphism]:
    """One search cell for Z_n: every skew morphism phi with

    * phi reduced mod d equal to the quotient morphism q of Z_d (d =
      q.group.order),
    * power function constant exactly on cosets of <k> (k | d, k >= 2, so
      phi is proper), with the k values cvals[j] pairwise distinct, 1 only
      at j = 0,
    * orbit of the generator 1 of length exactly L (= |phi|).

    A cell runs in two phases: first its power web is solved (_power_web),
    once for all its seeds phi(k) = t*k, by _search_cyclic, which passes
    the solutions in and opens no cell without one; then the cell walks the
    table under one solution per unit-conjugation orbit, for each seed
    whose kernel-order rule keeps it.  Both phases journal their writes and
    bind injectively with _bind; the walk closes with _close, the web with
    its pass over the links.  Every completed table is revalidated before
    it is kept, so pruning only needs to preserve completeness for the
    cell's own (q, k, L).

    The kernel-order rule.  phi maps K = <k> onto itself as multiplication
    by the unit t with phi(k) = t*k, of order o = ord(t mod n/k), so o
    divides L and every power value is 1 mod o (the kernel-order lemma,
    morphisms.kernel).  Seeds with o not dividing L are skipped.  The web
    does not read the seed, so each seed keeps the web solutions whose
    values are all 1 mod its o: the complete assignments that meet every
    constraint, the same set that a search checking the rule at every write
    would reach.

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
    * cvals forced by the power web are sums of congruent powers along
      slots congruent to q's orbit of 1, so they follow q's sigma and pi
      (_power_web proves it, with sigma_q(|q|) = 0 mod |q|).

    So distinct cosets c < k have phi(c) in distinct cosets of <k> and
    phi is injective wherever it is set; no slot is bound to 0 (q^i(1) is
    nonzero, as d >= k >= 2); and cvals is 1 only at j = 0, because the web
    is solved from cvals[0] = 1, which sets c_used[1] = 0 (L >= k >= 2,
    which the capacity rule of _search_cyclic implies).

    Unit-conjugation orbits.  fixing lists, least first, the units u of
    Z_n whose reduction mod d fixes q, u q u^-1 = q on Z_d, from
    _search_cyclic's quotient-level cut; they form a group, the preimage
    of q's stabilizer.  For such a u let psi = u.phi.u^-1, a skew morphism
    with power x -> pi(u^-1 x) (conjugate).  The cell cuts twice more, by
    orbit cuts (_orbit_cut) that transport the finds by relabel along x ->
    u*x: one web solution per orbit of fixing, and under it, for each seed
    that keeps it, one phi(1) per orbit of the units of fixing = 1 (mod
    k).

    1. psi lies in the same cell with the same seed t, and its web solution
       is u.w, with (u.w)[j] = w[u^-1 j mod k] for phi's solution w.  psi =
       q mod d since u fixes q (the quotient-level lemma of _search_cyclic:
       reduction mod d commutes with the conjugation); its kernel is u<k> =
       <k>, and psi(k) = u*phi(u^-1 k) = t*k, so L and t are unchanged; and
       psi's power at j is pi(u^-1 j), the power of the coset u^-1 j mod k.
       Conjugation by u^-1 undoes the map, so conjugation by u maps the
       cell's morphisms with solution w and seed t one to one onto those
       with u.w and t.
    2. u.w depends only on u mod k, so the least unit of fixing over each
       residue mod k (movers) reaches the whole orbit of w under fixing.
    3. The stabilizer of w is exactly the units = 1 (mod k): the k values
       of w are pairwise distinct, so w[u^-1 j] = w[j] for every j only
       when u^-1 j = j (mod k) for every j.  Among movers only 1 fixes w,
       so a solution's search cuts by ones, the units of fixing = 1 (mod
       k), not by the stabilizer that the cut hands it.
    4. If w has a find phi, its whole orbit lies in solutions: u.phi.u^-1
       meets every constraint of the web, which is complete, so u.w is one
       of its solutions.  The seeds that keep u.w are those that keep w,
       since the kernel-order rule reads the values of a solution, not
       their positions.  So the count identity of _orbit_cut holds.  An
       orbit with no find may leave solutions, which groups._orbits allows,
       and stands for nothing.  The orbits do not depend on the seed, so
       the cut runs once per cell, above the seeds.

    Under w and a seed t, let u lie in ones.  u^-1 x = x (mod k), so psi
    keeps w.  As u^-1 - 1 lies in <k> and phi(1 + a) = phi(1) + t*a for a
    in <k>, psi(1) = u*(phi(1) + t*(u^-1 - 1)), that is psi(1) - t =
    u*(phi(1) - t).  So conjugation by u maps the morphisms with w, t and
    phi(1) = v one to one onto those with w, t and phi(1) = t + u*(v - t),
    and the point phi(1) is what the inner cut fixes: the cell sets it
    with the seed, once per orbit of ones (a group) on the lifts of q(1),
    and walks the other cosets.
    """
    n = group.order
    d = q.group.order
    add = group.add_table
    neg = group.neg_list
    image: list[int | None] = [None] * k
    slots: list[int | None] = [None] * L
    slot_of: list[int | None] = [None] * n
    _bind(slots, slot_of, 0, 1, [])  # u_0 = 1, for every branch
    powers: tuple[int, ...] = ()  # the web solution the walk runs under
    kernel_images: list[int] = []  # phi(m*k) under the seed the walk runs under

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

    # the least unit of fixing over each residue mod k, which moves the web
    # solutions; and the units of fixing = 1 (mod k), which fix every
    # solution and move phi(1) to t + u*(phi(1) - t)
    movers = sorted({u % k: u for u in reversed(fixing)}.values())
    ones = [u for u in fixing if u % k == 1]

    def move_powers(u: int, w):
        # the web solution of u.phi.u^-1: w'[j] = w[u^-1 j mod k]
        back = pow(u, -1, k)
        return tuple(w[back * j % k] for j in range(k))

    def move_first(u: int, v: int) -> int:
        return (t + u * (v - t)) % n

    def solved(w, *_) -> list:
        # the finds under the web solution w: under each seed whose
        # kernel-order rule keeps w, one phi(1) per orbit of ones
        nonlocal powers, t, kernel_images
        powers = w
        finds: list = []
        for t, o in seeds:
            if all((c - 1) % o == 0 for c in w):  # the kernel-order rule
                kernel_images = [m * t * k % n for m in range(size)]
                finds += _orbit_cut(range(q.perm[1], n, d), ones, len(ones), move_first, seeded, _by_unit)
        return finds

    def seeded(v0: int, *_) -> list[SkewMorphism]:
        # the finds with phi(1) = v0 under the web solution powers
        finds: list[SkewMorphism] = []
        journal: list = []
        set_entry(0, 0, journal)
        set_entry(1, v0, journal)
        if _close(recheck, journal):
            walk(2, finds)
        _undo(journal)
        return finds

    # seed the kernel: phi restricted to <k> is an automorphism, so phi(k) is
    # a unit multiple t*k, and set_entry(0, 0) fixes a -> t*a on all of <k>;
    # t*k = q(k) (mod d), and q(k) is a multiple of k (lemma above);
    # kernel_images[m] = phi(m*k)
    size = n // k
    seeds = []
    for t in range(q.perm[k % d] // k, size, d // k):
        if gcd(t, size) != 1:
            continue
        o = multiplicative_order(t, size)
        if L % o:
            continue
        seeds.append((t, o))
    return _orbit_cut(solutions, movers, len(movers), move_powers, solved, _by_unit)


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


def _search_cyclic(group: AbelianGroup):
    """Enumerate skew morphisms of a one-factor group Z_n.

    Decomposition first.  When coprime_split finds n = n1*n2, every skew
    morphism of Z_n is the direct product, under the CRT isomorphism
    Z_n = Z_n1 x Z_n2, of a skew morphism of Z_n1 and one of Z_n2
    (Kovacs and Nedela, Decomposition of skew-morphisms of cyclic groups,
    Ars Math. Contemp. 4 (2011)).  So the products of the two recursively
    enumerated sets are complete, and each is revalidated before it is
    kept.

    Otherwise, listing and quotient lifting.  The automorphisms of Z_n, of
    skew type 1, are the maps x -> t*x for the units t, listed (_Listed)
    and each checked by as_skew_morphism when expanded.  Every proper skew morphism phi of Z_n has skew type
    1 < k < n and induces skew morphisms on the quotients Z_d for each d
    between k and n (phi preserves all subgroups of its kernel <k>), its
    power function is constant exactly on the cosets of <k>, and |phi|
    equals the orbit length L of the generator (power values are exact in
    Z_L).  Each such k divides d = n/p for some prime p and is designated
    to the first such p; a prime with no type designated is skipped, so
    d >= k >= 2.  The search enumerates Z_d recursively and lifts each
    quotient morphism q in _lift_cell: table entries are pinned mod d,
    leaving p candidates per entry, each entry fixes its whole coset of
    <k>, the cell's power web is solved before it walks a table, and it
    searches one web solution per orbit of the units that fix q and one
    phi(1) per orbit of those = 1 (mod k), all proved there.
    Orders L that do not divide n*phi(n) are skipped: the order of every
    skew morphism of Z_n divides n*phi(n) (Kovacs and Nedela, the paper
    cited above).  _cyclic_cells lists the cells so considered.

    Coset-power capacity: a cell is opened only if _powers_fit(L,
    q.power[1:k], |q|, 1) holds.  The k values cvals of its web are
    pairwise distinct in Z_L with cvals[0] = 1, and cvals[j] = q.power[j]
    (mod |q|) by the congruence lemma of _lift_cell; each class mod |q|
    has L/|q| members in Z_L, 1 among them for the class of 1.  So a
    refused cell's web has no solution, and no morphism is lost.  The rule
    places k - 1 powers in at most L - 1 values, so an opened cell has
    L >= k.  The web's only unknowns are these k values: the orbit of 1
    meets the cosets of <k> with the period |q| (word, q^i(1) mod k for i
    < |q|), so one period of prefix sums gives sigma, and through it every
    link, in closed form (_power_web).  The web reads only the arguments
    of _power_web, so the search solves each web once, keyed by them, in
    a dict that lives for this call, and opens no cell whose web has no
    solution.

    One quotient morphism per unit-conjugation class.  Lemma: for a unit u
    of Z_n, conjugation by u (relabel along x -> u*x) maps the morphisms of
    the cell (q, k, L) with seed t one to one onto those of the cell
    (u q u^-1, k, L) with the same seed t, u read mod d in u q u^-1.
    Proof: let phi lie in the first cell and psi = u.phi.u^-1 (conjugate).
    Its kernel is u<k> = <k>, as every subgroup of Z_n is characteristic,
    so psi has skew type k and its power x -> pi(u^-1 x) is constant
    exactly on the cosets of <k>; conjugation keeps the order, so |psi| =
    L, the length of psi's orbit of 1.  phi(y) = q(y) (mod d) for every y,
    and multiplication by u or u^-1 keeps congruence mod d, so psi(x) =
    u*phi(u^-1 x) = u*q(u^-1 x) (mod d): reduction mod d commutes with
    conjugation, and psi reduces to u q u^-1.  phi is a -> t*a on <k>, and
    Aut(Z_n) is abelian, so psi is a -> u*t*u^-1*a = t*a there: the seed
    is t.  Conjugation by u^-1 undoes the map, so it is one to one.  So
    for each designated p one _orbit_cut runs over the q of Z_d with an
    admitted cell, under the units of Z_d acting by q -> u q u^-1 (every
    unit of Z_d is the reduction of a unit of Z_n, and each is taken as
    its least such lift): the search at the first q of a class opens
    every admitted cell of that q whose web has a solution, handing it the
    units of Z_n that reduce into q's stabilizer, least first, for the
    next levels of the chain, and the finds
    are transported onto the rest of the class along the lift.  A class
    is admitted whole: |q| and q's skew type are class invariants, and so
    is the multiset q.power[1:k] that the capacity rule reads, since u
    permutes the cosets of q's kernel <k_q> (k_q | k), which 0 .. k - 1
    meet k/k_q times each.  So the cells and webs of every other q of a
    class are neither opened nor solved.

    The quotient's classes come from its finds, one point per class
    (_unit_classes): the listed automorphisms, and each validated leaf
    moved onto the least perm of its class; no quotient report is
    expanded.
    1. Every morphism that Z_d's report stands for is a listed
       automorphism or a unit conjugate of a leaf: the count identity of
       _orbit_cut, since every transport of the cyclic search is _by_unit,
       conjugation by a unit.  On a split Z_d the leaves are all of its
       morphisms.
    2. Conjugation by a unit fixes x -> t*x, as Aut(Z_d) is abelian, so
       each automorphism is its own class.
    3. So the points meet every class, and once each, as they are keyed by
       the least perm of their class.  groups._orbits records the moves
       that fall outside points, so the cut gets the same orbits, moves
       and stabilizers from them as from every morphism of Z_d.
    4. The least perm of each class is the first point of its orbit when
       every morphism is listed in perm order, so the same cells open and
       the same webs are solved.

    Soundness is the revalidation of every completed table and of every
    conjugate that is built; completeness needs only the cell with the
    true (q, k, L), or the cell of the first q of its class, to reach each
    morphism.
    No morphism is found twice: it has one skew type k, hence one d, one
    reduction q, one order L and one seed t, the walk branches on distinct
    values, every cut is an _orbit_cut call, which yields each morphism of
    its points once, and the listed automorphisms are the only finds of
    type 1.
    """
    n = group.order
    split = coprime_split(n)
    if split is not None:
        n1, n2 = split
        e1 = crt_pair(1, n1, 0, n2)[0]
        e2 = crt_pair(0, n1, 1, n2)[0]
        for a in _cached_search((n1,)).morphisms:
            for b in _cached_search((n2,)).morphisms:
                table = tuple(
                    (e1 * a.perm[x % n1] + e2 * b.perm[x % n2]) % n for x in range(n)
                )
                sm = try_validate(group, table)
                if sm is not None:
                    yield sm
        return

    # the automorphisms, skew type 1, are the maps x -> t*x for the units t
    units = [t for t in range(1, n) if gcd(t, n) == 1]
    out: list = [_Listed(group, len(units), [tuple(t * x % n for x in range(n)) for t in units])]
    cells: dict[int, dict[tuple, list]] = {}  # the admitted cells, by d and by q
    for q, k, L in _cyclic_cells(n):
        if _powers_fit(L, q.power[1:k], q.order, 1):
            cells.setdefault(q.group.order, {}).setdefault(q.perm, []).append((q, k, L))
    webs: dict[tuple, list[tuple[int, ...]]] = {}  # _power_web by its arguments

    def search_q(perm, stab, _) -> list[SkewMorphism]:
        # the finds of every cell of q, under the units of Z_n, least first,
        # whose reduction fixes q
        d = len(perm)
        residues = {u % d for u in stab()}
        fixing = [u for u in units if u % d in residues]
        finds: list[SkewMorphism] = []
        for q, k, L in cells[d][perm]:
            orbit = [1]  # q^i(1) for i < |q|
            while len(orbit) < q.order:
                orbit.append(q.perm[orbit[-1]])
            web = (tuple(x % k for x in orbit), q.power[:k], q.order, k, L)
            if web not in webs:
                webs[web] = _power_web(*web)
            if webs[web]:
                finds += _lift_cell(group, q, k, L, webs[web], fixing)
        return finds

    def move_q(u, perm):
        return maps[len(perm)][u](perm)  # u q u^-1 on Z_d

    # each unit of Z_d as the least unit u of Z_n over it, with q -> u q u^-1
    maps: dict[int, dict] = {}
    for d, by_q in cells.items():
        maps[d] = {u: _unit_conjugation(u, d) for u in sorted({u % d: u for u in reversed(units)}.values())}
        out += _orbit_cut(by_q, list(maps[d]), len(maps[d]), move_q, search_q, _by_unit)
    yield from out


def _cyclic_cells(n: int):
    """The cells (q, k, L) of _lift_cell that _search_cyclic considers for a
    Z_n with no coprime split, each proper skew type k under one prime p
    (_search_cyclic): q the least perm of a class of skew morphisms of Z_d,
    d = n/p, under conjugation by its units (_unit_classes, from Z_d's
    finds), with skew type dividing k, and L a multiple of |q| that
    divides n*phi(n).  The skew type is d over the size of q's kernel, its
    elements of power 1."""
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
        d = n // p
        for q in _unit_classes(d):
            k_d = d // q.power.count(1 % q.order)  # d / |Ker q|, Ker q the powers 1
            for k in types:
                if k % k_d == 0:
                    # the orbit of 1 reduces onto its q-orbit, of length |q|,
                    # and meets each of the p lifts of a residue at most once
                    for L in range(q.order, min(n, q.order * p + 1), q.order):
                        if bound % L == 0:
                            yield q, k, L


def _unit_classes(d: int) -> list[SkewMorphism]:
    """One skew morphism of Z_d per class under conjugation by the units of
    Z_d, the least perm of each, sorted by perm, read from the finds of
    Z_d's report and never from its morphisms (_search_cyclic proves that
    they meet every class once): each listed automorphism, checked by
    as_skew_morphism, and each validated leaf, moved onto the least perm of
    its class by one _by_unit, revalidated, where it is not that perm.
    They are read once per report and kept on it, as its morphisms are, so
    that the cache of reports drops them with it."""
    return _cached_search((d,))._unit_classes


def _search_morphisms(group: AbelianGroup):
    """Yield the finds of the group's search, which stand for every skew
    morphism of the group once (_orbit_cut, _expand).

    The trivial group has no factor and takes _search_general, whose
    automorphism chain holds its identity alone.

    Admission lemma.  The size guards are checked once, for the group asked
    for (check_search_guard, in enumerate_skew_morphisms and
    cached_enumeration), and the recursion through _cached_search checks
    none: every group it reaches passes the check under the same max_order.
    A group is reached only as a coprime factor Z_n1 or Z_n2 or as Z_(n/p),
    from a one-factor Z_n, or as A/K0, K0 proper and nontrivial, from a
    multi-factor A; each is strictly smaller than its parent.  Its order
    guard is at least its parent's: a one-factor parent reaches only
    one-factor groups, of the same guard, and a multi-factor parent has
    the smallest guard of the two routes.  The automorphism guard cannot
    fire on a quotient either, though the search expands the quotients'
    reports (check_expansion_guard): the check refuses a multi-factor
    group with a quotient type of more than AUTOMORPHISM_GUARD
    automorphisms, and a quotient's quotients are the group's.  A test
    checks both on every group up to SUBGROUP_GUARD under the guard
    constants.
    """
    if len(group.factors) == 1:
        yield from _search_cyclic(group)
    else:
        yield from _search_general(group)


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
    completes a tau-orbit; then it is the tests of the phi-closed region R =
    K u (cosets of the orbits placed so far): for every placed coset j with
    representative r, the triple (r, pi_tau(j), pairs), pairs holding (b, r
    + b) for each placed coset representative b with r + b in R.  The cosets
    of the orbit just placed come first, as tests and as pairs, since their
    entries are the new ones.  All of it depends on tau only, not on the
    table.
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
        placed = orbit + order[: -len(orbit)]
        reps = [coset_elems[j][0] for j in placed]
        tests = []
        for j, r in zip(placed, reps):
            row = add[r]
            tests.append((r, tau.power[j], tuple((b, row[b]) for b in reps if row[b] in region)))
        checks.extend([None] * (len(orbit) - 1))
        checks.append(tests)
    return order, checks


def _region_holds(group: AbelianGroup, table, tests, tau_order: int, o: int) -> bool:
    """The defining identity on the final entries of a phi-closed region R,
    decided at its coset representatives by cycle offsets.

    Each test (r, e0, pairs) of _orbit_plan needs some e with e = e0 (mod
    tau_order), e = 1 (mod o), o = |theta|, and phi^e(b) = table[r + b] -
    table[r] at every pair (b, r + b): one CRT merge over the cycles of phi
    through the representatives b, each traced when first read
    (morphisms._power_witness).  The order cut then refuses the region when
    |phi_R| = lcm(o, the cycle lengths of the tests' representatives r,
    those of R's placed cosets) is |A| or more.  _search_general proves
    that this is its region condition exactly and that the order cut keeps
    every skew morphism.
    """
    n = group.order
    add = group.add_table
    neg = group.neg_list
    heads, lengths = [-1] * n, {}
    pins = heads, [0] * n, lengths  # the cycles traced so far (_power_witness)
    for r, e0, pairs in tests:
        start = crt_pair(e0, tau_order, 1, o)
        if start is None or _power_witness(table, add[neg[table[r]]], pins, pairs, *start) is not None:
            return False
    for r, _, _ in tests:
        if heads[r] < 0:
            _trace_cycle(table, r, pins)  # R is phi-closed and phi permutes it
    return lcm(o, *lengths.values()) < n


def _powers_fit(cap: int, powers, m: int, o: int) -> bool:
    """The coset-power capacity rule: whether the powers of the nonzero
    cosets, each in the class of its entry of powers mod m and 1 mod o, can
    be pairwise distinct and differ from 1 in Z_L for an L <= cap that is a
    multiple of lcm(m, o).  _search_general (cap |A| - 1) and _search_cyclic
    (cap L, o = 1) each prove that their morphisms meet it."""
    g = gcd(m, o)
    room = cap // lcm(m, o)
    return all((r - 1) % g == 0 and powers.count(r) <= room - (r == 1 % m) for r in set(powers))


def _search_general(group: AbelianGroup):
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
    with kernel sigma(K0) (conjugate), so the finds for K0 are transported
    over the orbit (_orbit_cut).  The automorphisms, kernel A, are held
    as a stabilizer chain (groups.automorphism_chain): a few generators on
    a primary basis, sifted on the elements of A until the chain's order
    is |Aut(A)| (automorphism_count), which proves that they generate it.
    The report counts them by that order and builds them only when its
    morphisms are read (_Listed), each checked by as_skew_morphism then.
    Every cut acts by generators: the kernel cut by those of Aut(A), and
    each level hands the next the generators of its point's stabilizer, as
    _orbits returns them (a sublist of the sigmas, or a Schreier step's
    strong generators).  Each level's group has the order |H| / |orbit|
    of the level above, so the orders are known all the way down, and the
    routine checks each Schreier step against its order.

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

    Coset-power capacity: a pair is searched only if _powers_fit(|A| - 1,
    pi_tau on the nonzero cosets, |tau|, o) holds for o = |theta|.  Let
    phi be a find of the pair, with kernel exactly K0 and L = |phi|.
    phi^L = 1 gives tau^L = 1 and theta^L = 1, so L is a multiple of M =
    lcm(|tau|, o), and L <= |A| - 1, since a
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
    the tau's stabilizer; so are |tau| and the multiset of pi_tau on the
    nonzero cosets, which sigma_bar permutes, so the taus that keep no
    theta are whole orbits of Stab(K0), and the tau cut leaves them out
    before it computes an orbit.

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
    place(i, G_i) returns F(y_0 .. y_(i-1)) for the images already placed,
    each morphism once, by induction from the last level up.  With every
    coset placed, F is the completed table if it validates with kernel
    exactly K0.  Below that, F(y_0 .. y_(i-1)) is the disjoint union of
    F(y_0 .. y_(i-1), y) over y in the coset; place takes one y per
    H_i-orbit, searches it under its stabilizer G_(i+1), which yields F(..,
    y) by the hypothesis, and transports the finds over the orbit
    (_orbit_cut).
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

    The condition is decided at the coset representatives by cycle
    offsets.  The search's tables satisfy phi|K = theta, an additive
    bijection of K of order o = |theta|, and the kernel placement phi(a +
    x) = theta(a) + phi(x) for a in K.  Iterating inside the phi-closed R
    gives phi^e(a + x) = theta^e(a) + phi^e(x) for x in R, and the
    placement at r + b and at r gives D_r(b + a) = theta(a) + D_r(b).  So
    phi^e agrees with D_r on a whole usable coset b + K exactly when it
    agrees at b and theta^e = theta, that is e = 1 (mod o); on K itself
    (b = 0, D_r(0) = 0) the condition is e = 1 (mod o) alone.  And phi^e(b)
    = D_r(b) holds exactly when D_r(b) lies on b's cycle of phi at offset e
    modulo its length.  So the region condition at r is the solvability of
    e = pi_tau(r mod K) (mod |tau|), e = 1 (mod o) and one congruence per
    usable placed representative b, one CRT merge
    (morphisms._power_witness), read from the cycles of the placed
    representatives only.

    The order cut.  Let phi_R be the table on R and the identity off R.
    phi^e fixes b + K pointwise exactly when phi^e(b) = b and theta^e = 1,
    so |phi_R| = lcm(o, the cycle lengths of the placed representatives),
    and a region with |phi_R| >= |A| is refused.  No skew morphism phi is
    lost: phi_R agrees with phi on R and fixes the rest, so |phi_R| divides
    |phi| <= |A| - 1 (the order bound above).  The check thus decides, on
    every table the search builds, what a scan of the exponents of phi_R
    at every usable b decides.

    Completed tables are still revalidated and filtered by exact kernel, so
    the check only has to keep every morphism, never to prove one.
    """
    n = group.order
    add = group.add_table
    neg = group.neg_list
    autos = automorphism_chain(group)
    # proper morphisms have nontrivial proper kernels
    subgroups = {sub.members: sub for sub in enumerate_subgroups(group) if 1 < sub.size < n}

    def move_subgroup(sigma, members):
        return tuple(sorted(map(sigma.__getitem__, members)))

    def by_automorphism(sm, sigma):
        return conjugate(sm, Automorphism(group, sigma))

    def search_kernel(members, stab, size) -> list[SkewMorphism]:
        # the finds with kernel exactly members, under its stabilizer: stab
        # generates it, and it has size elements
        sub = subgroups[members]
        kernel_set = set(members)
        quotient, proj = quotient_group(group, sub)
        t = quotient.order
        coset_elems: list[list[int]] = [[] for _ in range(t)]
        for x in range(n):
            coset_elems[proj[x]].append(x)
        reps = [cells[0] for cells in coset_elems]
        index = {a: i for i, a in enumerate(members)}

        taus = {tau.perm: tau for tau in _cached_search(quotient.factors).morphisms}
        thetas = {
            tuple(index[theta[a]] for a in members): theta
            for theta in _subgroup_automorphisms(group, sub)
        }
        theta_orders = {key: perm_order(key) for key in thetas}
        # the thetas each tau admits by the capacity rule, for the taus that
        # admit one: the rest are whole orbits, and are not cut.  The rule
        # reads |tau|, the multiset of pi_tau on the nonzero cosets and o.
        fits: dict[tuple, list] = {}
        plans = {}
        for perm, tau in taus.items():
            shape = (tau.order, *sorted(tau.power[1:]))
            if shape not in fits:
                orders = {o for o in theta_orders.values() if _powers_fit(n - 1, shape[1:], tau.order, o)}
                fits[shape] = [key for key, o in theta_orders.items() if o in orders]
            if fits[shape]:
                plans[perm] = fits[shape]

        # what move_tau and move_theta read of sigma in Stab(K0), built once
        # per table: the permutations it induces on the cosets (sigma_bar)
        # and on the members of K0, by index, and itemgetters of their
        # inverses
        moving: dict[tuple, tuple] = {}

        def induced(sigma):
            bar = tuple(proj[sigma[r]] for r in reps)
            on_k = tuple(index[sigma[a]] for a in members)
            entry = moving[sigma] = bar, on_k, itemgetter(*invert(bar)), itemgetter(*invert(on_k))
            return entry

        # p perm p^-1 for p = sigma_bar or sigma on K0: the values p[perm[x]],
        # read at x = p^-1(z), both by C-level itemgetters
        def move_tau(sigma, perm):
            entry = moving.get(sigma) or induced(sigma)
            return entry[2](itemgetter(*perm)(entry[0]))

        def move_theta(sigma, perm):
            entry = moving.get(sigma) or induced(sigma)
            return entry[3](itemgetter(*perm)(entry[1]))

        def move_coset(sigma, j):
            return proj[sigma[reps[j]]]

        table = [0] * n

        def search_tau(tau_perm, tau_stab, tau_size) -> list[SkewMorphism]:
            # the finds with quotient tau, under its stabilizer in Stab(K0)
            tau = taus[tau_perm]
            order, checks = _orbit_plan(group, coset_elems, proj[0], tau)

            def search_theta(theta_key, pair_stab, pair_size) -> list[SkewMorphism]:
                # the finds with restriction theta to K0, under the pair's stabilizer
                theta = thetas[theta_key]
                o = theta_orders[theta_key]
                for a, fa in theta.items():
                    table[a] = fa

                def place(idx: int, stab, size) -> list[SkewMorphism]:
                    # level idx of the chain: one phi(r) per orbit of the
                    # stabilizer of order[idx] in the group of size elements
                    # that stab() generates, r its representative;
                    # phi(r) and its coset by theta, the region check, then
                    # the next level under phi(r)'s stabilizer
                    if idx == len(order):
                        sm = try_validate(group, tuple(table))
                        if sm is None or {a for a in range(n) if sm.power[a] == 1 % sm.order} != kernel_set:
                            return []
                        return [sm]
                    j = order[idx]
                    r = reps[j]
                    check = checks[idx]

                    def move_image(sigma, y):  # y -> theta(r - sigma r) + sigma(y)
                        return add[theta[add[r][neg[sigma[r]]]]][sigma[y]]

                    def search_image(y, y_stab, y_size) -> list[SkewMorphism]:
                        for a, fa in theta.items():
                            table[add[a][r]] = add[fa][y]
                        if check is None or _region_holds(group, table, check, tau.order, o):
                            return place(idx + 1, y_stab, y_size)
                        return []

                    moves, fixing = _orbit(j, stab(), size, move_coset)
                    return _orbit_cut(
                        coset_elems[tau.perm[j]], fixing(), size // (1 + len(moves)), move_image, search_image,
                        by_automorphism,
                    )

                return place(0, pair_stab, pair_size)

            return _orbit_cut(plans[tau_perm], tau_stab(), tau_size, move_theta, search_theta, by_automorphism)

        if not plans:  # no tau admits a theta: build no stabilizer
            return []
        return _orbit_cut(plans, stab(), size, move_tau, search_tau, by_automorphism)

    yield _Listed(group, autos.order, autos)
    yield from _orbit_cut(subgroups, autos.generators, autos.order, move_subgroup, search_kernel, by_automorphism)


def check_search_guard(group: AbelianGroup, max_order: int | None = None) -> None:
    """Raise SizeGuardError when the group's order exceeds its route's guard,
    or when it takes _search_general and one of its proper quotients has
    more than AUTOMORPHISM_GUARD automorphisms: the search reads every
    quotient's morphisms (automorphism_count, so no table is listed).
    The group's own automorphisms are only counted on this path; reading a
    report's morphisms builds them, under check_expansion_guard.

    The guard is max_order when given, else CYCLIC_GUARD or GENERAL_GUARD by
    the route _search_morphisms takes, which goes by the factor count: a
    split cyclic literal such as Z5xZ7 takes the general route and its
    guard.  A group of more than one factor takes _search_general, which
    lists its subgroups, so its guard never exceeds SUBGROUP_GUARD."""
    cyclic = len(group.factors) == 1
    if max_order is None:
        max_order = CYCLIC_GUARD if cyclic else GENERAL_GUARD
    guard = max_order if cyclic else min(max_order, SUBGROUP_GUARD)
    if group.order > guard:
        capped = not cyclic and group.order > SUBGROUP_GUARD
        hint = "the multi-factor route stops there" if capped else "raise --max-order"
        raise SizeGuardError(f"order {group.order} exceeds enumeration guard {guard}; {hint}")
    if not cyclic:
        count, quotient = _largest_quotient(group.factors)
        if count > AUTOMORPHISM_GUARD:
            raise SizeGuardError(
                f"{group.label} has the quotient {quotient}, of {count} automorphisms, above the "
                f"multi-factor route's automorphism guard {AUTOMORPHISM_GUARD}"
            )


def check_expansion_guard(group: AbelianGroup) -> None:
    """Raise SizeGuardError when the morphisms of a multi-factor group would
    hold more than AUTOMORPHISM_GUARD automorphisms, each built as a table:
    its report counts them, but does not list them (_Expansion)."""
    count = 0 if len(group.factors) == 1 else automorphism_count(group)
    if count > AUTOMORPHISM_GUARD:
        raise SizeGuardError(
            f"{group.label} has {count} automorphisms, above the multi-factor "
            f"route's automorphism guard {AUTOMORPHISM_GUARD}"
        )


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _largest_quotient(factors: tuple[int, ...]) -> tuple[int, str]:
    """(|Aut(Q)|, Q's label) for the quotient Q = A/K with the most
    automorphisms, A the group of the factors and K a proper nontrivial
    subgroup (Z1 if there is none).  A finite abelian p-group of type
    lambda (the exponents of its cyclic factors, largest first) has
    quotients of exactly the types mu with mu_i <= lambda_i, so Q ranges
    over those of A's p-parts combined over the primes, A left out.  A
    pure function of the factors, kept like the reports."""
    lambdas: dict[int, list[int]] = {}
    for f in factors:
        for p, e in factorint(f).items():
            lambdas.setdefault(p, []).append(e)
    per_prime = []
    for p, lam in sorted(lambdas.items()):
        lam.sort(reverse=True)
        mus = [mu for mu in _cartesian(*(range(e + 1) for e in lam)) if list(mu) == sorted(mu, reverse=True)]
        per_prime.append([[p**e for e in mu if e] for mu in mus])
    largest = (1, "Z1")
    for combo in _cartesian(*per_prime):
        quotient = AbelianGroup(tuple(sorted(chain.from_iterable(combo))))
        if 1 < quotient.order < prod(factors):
            largest = max(largest, (automorphism_count(quotient), quotient.label))
    return largest


def _search_report(factors: tuple[int, ...]) -> EnumerationReport:
    """The report of _search_morphisms on the group of a factor tuple.
    Unguarded: the searches recurse through _cached_search, and the
    admission lemma (_search_morphisms) covers every group they reach."""
    group = make_group(factors)
    return EnumerationReport.from_search(group, _search_morphisms(group))


# The one cache of every entry point and of the recursion: the last
# ENUMERATION_CACHE_SIZE reports, each holding its group and the tables
# built on it.
_cached_search = lru_cache(maxsize=ENUMERATION_CACHE_SIZE)(_search_report)


def enumerate_skew_morphisms(
    group: AbelianGroup, max_order: int | None = None
) -> EnumerationReport:
    """Every skew morphism of the group, by the route for its shape
    (_search_morphisms), once the group passes check_search_guard;
    oracle-equal wherever both run.  The report comes from the cache the
    searches share (_cached_search), and does not depend on max_order, so
    one entry serves every call with the same factors.  As make_group
    does, it keeps no group above SUBGROUP_GUARD, so a raised guard does
    not fill the cache with the requested groups and their tables; the
    quotients their searches reach are kept.  The report's counts come
    from the search's validated leaves times proved orbit sizes, and its
    morphisms are built only when read (EnumerationReport).  A route that
    yields one morphism twice, or lists too few or too many automorphisms,
    fails the report's check when it is made; an expansion whose morphisms
    repeat or differ from the counts fails when the morphisms are read."""
    check_search_guard(group, max_order)
    search = _cached_search if group.order <= SUBGROUP_GUARD else _search_report
    return search(group.factors)


def cached_enumeration(factors: Iterable[int], max_order: int | None = None) -> EnumerationReport:
    """enumerate_skew_morphisms of the group of the factors."""
    return enumerate_skew_morphisms(make_group(factors), max_order)


cached_enumeration.cache_info = _cached_search.cache_info
cached_enumeration.cache_clear = _cached_search.cache_clear


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
        raise SizeGuardError(f"max_n {max_n} exceeds guard {guard}; raise --max-order")
    rows = []
    for n in range(1, max_n + 1):
        report = cached_enumeration((n,) if n > 1 else (), max_order)
        rows.append(
            Theorem1Row(n, report.total, report.nonsmooth, smooth_only_predicate(n))
        )
    return Theorem1Verdict(tuple(rows))
