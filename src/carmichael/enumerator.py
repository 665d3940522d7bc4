"""Backtracking enumeration of Carmichael numbers below a bound.

Search structure
----------------
Carmichael numbers are built as ascending products of odd primes
p1 < p2 < ... < pd satisfying Korselt's criterion.  A search node is a
prefix (p1, ..., pk) with product P and L = lcm(pi - 1).  Two facts drive
the search:

* Bounding.  A child p of a prefix leaves m = d - k primes to choose: p
  and m - 1 distinct primes above it, whose product must be at most
  R = (limit - 1) // P for N < limit.  Their product is at least p**m,
  so p <= iroot(R, m).  For m >= 3 it is also at least the product of
  the m consecutive primes from p (the i-th smallest of them is at least
  the i-th prime from p), so a child whose window of m consecutive primes
  has a product above R has no completion.  The window products increase
  along the sieve, so `_Tables.windows[m]` lists them and one bisection
  by R ends the children (`_Tables.child_end`); at m = 2 the end stays
  p <= isqrt(R).  Neither bound excludes a viable prefix, which is what
  makes the tree exhaustive.  At 2**64 and above, for d = 13..17, the
  window bound cuts the nodes visited from 1.08M to 0.62M, and the
  class cut of a node of d - 3 primes (below) to 0.27M.

  Each list stops after its first product above the largest R it has
  served, which is exact: every later product is larger still, so no
  later window fits that R or a smaller one, and a larger R grows the
  list before it is bisected.  When every window that ends inside the
  sieve fits R, the root bound ends the children; the windows beyond
  run past the sieve's end, and no run of `smallest` or `enumerate`
  measured reaches them.  `_descend` hands each child its
  slice: from the index of the prime after it to the child's bound, which
  costs one bisection.

  A node of d - 3 primes is also bounded by the residue class of the
  product of its last three primes.  Every completion N = P * w, with
  w = p * p' * q and sieve[lo] <= p < p' < q, has L | N - 1, so
  w = P^-1 (mod L); and windows[3][lo] <= w <= R, as the i-th smallest
  of p, p', q is at least the i-th prime from sieve[lo].  Where the list
  stops short of lo, which only the root bound allows, sieve[lo]**3 < w
  serves instead.  So when the class has no value in that range the node
  has no completion, and `_LeafBatch.add_children` closes it with one
  `pow`.  That closes 3 of 3,110 such nodes at 10**11, 46 of 10,314 at
  10**12, 45,559 of 168,832 at 2**63 with d = 11..12, and 69,114 of
  121,226 for `smallest` d = 13..17, where `_descend` calls fall from
  622K to 266K.  The same cut at m = 4 and 5 remaining primes closes
  4,997 of 57,567 and 56 of 31,779 nodes there, and measured no faster.

* Pruning.  If any prime s divides both P and L then s divides both N and
  N - 1 for every completion N of the prefix, which is impossible; those
  subtrees are dropped.  Concretely a child prime p is rejected when p
  divides L or when gcd(P, p - 1) > 1, keeping gcd(P, L) = 1 invariant.

Completing a prefix of d - 1 primes means finding every final prime q
with N = P * q < limit Carmichael (the large prime variation of Pinch,
*The Carmichael numbers up to 10^15*).  Korselt forces two conditions,
each sufficient to enumerate candidates exhaustively:

* q = P^-1 (mod L), because L must divide N - 1.  Walking that arithmetic
  progression and keeping q with (q - 1) | (P - 1), q prime covers all
  solutions (the progression route).

* (q - 1) | (P - 1), because q - 1 divides N - 1 = P(q - 1) + (P - 1).
  Enumerating divisors e of P - 1 and keeping q = e + 1 in the right
  residue class covers all solutions (the divisor route).

Either route alone is complete; `_complete_final` picks per leaf whichever
is cheaper (the progression when it is short, divisors otherwise).  Every
emission meets both conditions, and they make N Carmichael: its primes are
distinct and at least three, L | N - 1 covers those of P, and
(q - 1) | N - 1 covers q.  So no route re-checks Korselt's criterion.
`enumerate_carmichael` validates every merged entry in full and raises
`RuntimeError` on the first that fails: a route whose arithmetic is wrong
stops the run, where a re-check inside the route would drop the bad
number and hide the fault.  A route that loses a number emits only true
ones, so for a full catalog (every d from 3 up) the merge also compares
C(10**n) with the published count for every 10**n <= limit
(`_check_decades`) and raises `RuntimeError` on a mismatch.

Batched leaf layer
------------------
Nearly all of the work is closing leaves, and most leaves emit nothing:
at 10**11 the first term t of the progression already exceeds
rmax = (limit - 1) // (P * p) for 87% of them.  So the descent stops two
levels early, at d - 3 primes, and hands each node there to a
`_LeafBatch`, whose `add_children` forms the node's leaf parents of
d - 2 primes, each with its reach R = (limit - 1) // P and its slice of
the sieve (the candidates p for the last-but-one prime).

At or below 2**62 (`_BATCH_LIMIT`) the batch queues the parent.  Once
`_FLUSH` = 2**14 candidates are queued, across tasks, one int64 numpy
pass expands the slices, applies the pruning of the descent, forms
L2 = lcm(L, p - 1), P2 = P * p and rmax, takes t = P2^-1 (mod L2) by a
lane-wise extended Euclid (`_inverse_mod`) and drops the lanes with no
term in (p, rmax].  It tests every progression of at most
`_LONG_PROGRESSION` terms as (P2 - 1) % (r - 1) == 0, expanding the
terms about `_PIECE` at a time so that memory does not grow with the
spans; only the hits reach `is_prime`, and `_complete_final` closes the
longer ones by the divisor route.  The batch spans tasks because
per-prefix or per-task batches are too small to pay for numpy's per-call
cost.  Flushes of 2**14 to 2**16 candidates
run equally fast at 10**11 and 10**12, 2**13 is 15% slower, and larger
flushes hold more memory: at 10**11, over six runs in one process, peak
RSS is 48.4 MiB with 2**14 and 64.5 MiB with 2**16, against 40.7 MiB
when every parent is closed in Python ints (`_BATCH_LIMIT` = 0); at
10**12 a single run peaks at 55 MiB with 2**14 and 126 MiB with 2**18.

A flush's int64 temporaries of 2**14 lanes are 128 KiB, glibc's default
mmap threshold, so at glibc's defaults every flush maps, faults in and
unmaps them.  `enumerate_carmichael` first raises the mmap threshold to
16 MiB and the trim threshold to 32 MiB (`_tune_malloc`), so they stay in
the heap: a second run at 10**10 in one process takes about 200 minor
page faults instead of 16K, and one at 10**11 about 500 instead of 65K.
The heap keeps what the flushes free, up to the trim threshold, so
resident memory after a run at 10**11 is 48.5 MiB against 44.6 MiB at
the defaults; the peak stops growing after the second run.

Each table is cached on what it depends on, and a run's `_Tables` is a
plain record of both.  `_build_tables` keeps the sieve, its int64 copy
and its window lists for the last four sieve_tops, so runs whose table
sizes differ share them: a pass of `smallest` at d = 13..17 builds 49
sieves, each sieve_top once per d.  `_spf_table` keeps the last
smallest-factor table built, which takes spf_limit bytes in a mapping of
its own, which fork workers share, as they never write it: at most
8 MiB, or 64 MiB for a catalog from d = 3 at 2**43 to 2**62
(Residue-class route).  A run that needs another size builds it, and
the old table is freed once no run holds it.  The sieve keeps each prime
below sieve_top as a Python int, about 40 bytes each, so
`_Tables.for_limit` refuses a sieve_top above 2**30 (`_SIEVE_TOP_MAX`,
about 2 GiB) before it builds anything: a full catalog at 10**18 takes
2**30, and one at 10**20 would take 2**33.

The prune gcd(P, p - 1) = 1 of `_descend` holds exactly when no prime of
the parent divides p - 1, as P is their squarefree product.  So the flush
keeps the parents' primes as int64 columns, padded with sieve_top (which
exceeds every p - 1, so it divides none), and prunes by one int64 `%` per
column, each about 20x cheaper than `np.gcd` on the same lane.

Int64 is exact at or below 2**62: candidates obey P * p**2 < limit, so
P2 < limit; rmax = R // p equals (limit - 1) // (P * p) (flooring by P
and then by p floors by P * p), and rmax <= R < limit; L2 divides the
product of the (pi - 1), so L2 < P2; t < L2; the first term above p is
at most p + L2, and the Euclid's cofactors and products stay within
2 * L2.  So every value formed is below 2 * limit <= 2**63.

Above 2**62 (the deep `smallest` bounds) P2 leaves int64, and the batch
queues nothing: `_route` closes each parent at once, in Python ints,
through its residue class (below).

Residue-class route
-------------------
A leaf parent's completions N = P * p * q, with p from its slice and q
a prime above p, all put w = p * q in one residue class: L divides
N - 1 = P * w - 1, so w = c (mod L) with c = P^-1 (mod L).  And
pmin**2 < p * q = w <= R, where pmin = sieve[lo] is the slice's first
candidate.  `_class_values` gives the first value and the count there.

The loop of `add_children` over a node's children counts the class of
every parent with a non-empty slice, with one `pow` (about 1.4 us), and
that count alone routes the parent (`_route`).  The loop skips a child
p when sieve[after]**2 >= R // p, where the slice or the range of w is
empty, and ends a slice only when its class is not.  A count of 0
closes the parent at every limit: every completion has w in the class
and in (pmin**2, R], so when the class has no value there the parent
has no completion.  That closes 9,326 of 57,336 parents at
10**11 and 53,205 of 234,266 at 10**12.  The same argument for
w = p * p' * q closes a node of d - 3 primes before any of its children
is formed (Bounding).

`_CLASS_RATIO` caps the class route's work per slice candidate.  At or
below 2**62 the flush looks each class value up in the smallest-factor
table, so `_route` queues the class instead of the slice when its count is
below `_CLASS_RATIO` times the slice's candidates and R < tables.spf_limit,
so that the table covers every w and q.
The flush walks w = c + j * L through the range, indexing the uint16
`tables.spf` in place, and keeps w when
* p = spf(w) lies in [sieve[lo], sieve[hi - 1]], the slice's range;
* q = w // p exceeds p and is prime (spf(q) = 0);
* p - 1 and q - 1 both divide P * w - 1.
L divides P * w - 1 as w lies in the class, so a kept w makes P * w
Carmichael.  No inverse is taken per candidate.  At 10**11 the class
route takes 43.7K of 57.3K leaf parents: 6.5M class values replace 2.6M
of the 4.8M slice candidates, and the flush costs about 30 ns per class
value against several hundred per candidate.  Ratios of 8, 16 and 32 ran
equally fast at 10**11 and 10**12, and at 10**13 with a table of 2**26.
Int64 is exact: every w walked, and so j * L and q, is at most
R < spf_limit <= 2**26; and P * w <= P * R < limit <= 2**62.

The table is sized to what the run reads (`_spf_limit`).  Above 2**62
nothing is queued, and `_factor_fast` factors a P - 1 above the table by
`factorize`, so the table is `_SPF_FLOOR` = 2**12.  At or below 2**62
the class route reads it up to the largest leaf reach, (limit - 1) // P
with P the product of the d_min - 2 smallest odd primes (the quotient
that also sizes the sieve), and `_factor_fast` reads it for P - 1, where
P is at least the product of the d_min - 1 smallest odd primes.  While
that product is at most the cap (d_min <= 8), some P - 1 can fall inside
the table, so it is the power of two above the limit; from d_min = 9 on
no P - 1 can, and it is the power of two above the largest leaf reach.
Either is capped at `_SPF_BASE` = 2**23, or at `_SPF_TOP` = 2**26 for a
catalog from d = 3 at a limit of 2**43 or more.  A larger table moves
leaf parents from the slice route to the class route, and costs its
build and spf_limit bytes of memory.  Measured in fresh processes
(BENCH_spf.json):
* at 10**12 on one worker, 2**24 moves 2.1M of the 13.9M slice lanes
  and ran no faster than 2**23 (slower in 5 of 6 alternating pairs);
* at 10**13 on two workers, 2**26 moves 36M of 91M and took less CPU
  than 2**23 in 10 of 10 alternating pairs, median 33.3 against 40.4 s
  (-18%), for 56 MiB more peak RSS;
* at 10**14, one run with 2**26 took 13% less CPU than one with 2**23,
  and one with 2**28 no less than 2**26;
* `smallest` d = 10..12 search bounds of 2**43 and more with few
  leaves: with the larger cap, d = 11 built tables of 2**25 and 2**26
  for 0.33 s, where its whole search took 0.05 s with 2**23; so only a
  catalog from d = 3 takes the larger cap.
No limit between 10**12 and 10**13 was measured, so the step sits at
2**43 (8.8e12), the last power of two below 10**13.  Both routes are
complete, so the size changes no catalog.  A leaf of `smallest` d = 13
below 2**62 reaches at most (2**62 - 1) // (3 * 5 * ... * 37) < 1.25e6,
so its tables stay at or below 2**21, and d >= 15, which searches only
above 2**62, needs only the floor.

Above 2**62 no table covers w.  There a class of fewer than
`_CLASS_RATIO` values is walked by `_walk_class`: for each w it takes the
first slice candidate p that divides w, and keeps w by the flush's tests:
q = w // p is a prime above p, and p - 1 and q - 1 both divide P * w - 1.
A walk costs |class| trial divisions per candidate, so the ratio caps its
work as below 2**62.  Any other parent with a class loops its slice, pruning
each candidate as `_descend` does and closing it with `_complete_final`.
For d = 13..17, below the nodes the cut of their grandparents keeps, of
212K parents that cuts 199K, walks 13K (23K class values) and loops 238
(12K candidates).

Completeness: let N = P * p * q < limit be Carmichael with p in the
slice and q > p prime.  Korselt gives L | N - 1, so w = p * q is one of
the class values walked, and (p - 1) | N - 1 and (q - 1) | N - 1.  Below
2**62, p < q are prime, so spf(w) = p, which lies in the slice's range,
and q = w // p is a prime above p.  Above it, the only slice candidates
dividing w are p and, when it lies in the slice, q; p < q, so p is the
first, and q = w // p is a prime above p.  Either way w is kept and N
emitted.  Conversely every emission has the form above and is
Carmichael: L | N - 1 from the class, and the kept w gives
(p - 1) | N - 1 and (q - 1) | N - 1.  The slice route closes those
numbers completely, so the routes emit the same numbers for any slice,
partial or not.  The descent's prune needs no check of its own: p | L,
or a prime of P dividing p - 1, would make that prime divide both N and
N - 1.

Work is partitioned into tasks (d, prefix, lo, hi), the children
sieve[lo:hi] of one node of at most d - 3 primes: the root () for d = 3
and (p1,) deeper.  `_seed_tasks` gives each child a task of its own, and
any cut of a node's children into ranges searches the same tree.
`_chunk` cuts the tasks into about 8 batches per worker (9 on one worker
and 17 on two, at 10**11 and at 10**12, where the last batch holds 2
tasks at 10**11 and 5 or 13 at 10**12), each run by `_worker_run` under
one leaf batch, in this process or on a fork pool.  Workers are
capped at the CPU count.  Results are merged, sorted and checked for
duplicates, so output is identical for any worker count and any flush
boundaries; the merge also validates every entry, the engine's one full
check of Korselt's criterion.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .arith import iroot
from .catalog import Catalog, complete_provenance
from .korselt import PAPER_COUNTS, CarmichaelEntry
from .primes import factorize, is_prime, prime_sieve, smallest_factor_table

__all__ = [
    "EnumerationConfig",
    "max_factor_count",
    "enumerate_carmichael",
]

# Completion-route tuning: walk the residue progression when it has at most
# this many terms, otherwise enumerate divisors of P - 1.  The leaf batch
# walks the short progressions itself.
_LONG_PROGRESSION = 512
# Smallest-factor table sizes (`_spf_limit`): the floor serves the divisor
# route's factorizations where nothing else reads a table; every other
# table is capped at the base, or at the top for a catalog from d = 3 at
# 2**43 or more.
_SPF_FLOOR = 1 << 12
_SPF_BASE = 1 << 23
_SPF_TOP = 1 << 26
# The largest sieve_top `_Tables.for_limit` builds (module docstring).
_SIEVE_TOP_MAX = 1 << 30
# A leaf parent is closed through its residue class of p * q instead of its
# slice when the class holds fewer than this many values per candidate at
# or below _BATCH_LIMIT, and fewer than this many values above it, where a
# walk of the class costs |class| trial divisions per candidate.
_CLASS_RATIO = 16
# The leaf batch queues parents at or below this limit, where every value
# its int64 lanes form stays below 2 * limit; above it `_LeafBatch._route`
# closes each parent at once, in Python ints (module docstring).
_BATCH_LIMIT = 1 << 62
# Candidate primes, or class values, pending on either queue of the batched
# leaf layer before it flushes.
_FLUSH = 1 << 14
# Progression terms a flush expands at once, give or take one progression.
_PIECE = 4 * _FLUSH
# Lame: Euclid's algorithm on numbers below 2**62 reaches remainder 1 within
# 87 division steps, which consecutive Fibonacci numbers take.
_EUCLID_STEPS = 87
# glibc's malloc serves a request at or above its mmap threshold with a
# mapping of its own, and gives free heap above its trim threshold back to
# the kernel.  The flush's int64 temporaries of _FLUSH lanes are 128 KiB,
# the default mmap threshold, so at the defaults every flush maps, faults
# in and unmaps them.  16 MiB keeps every flush temporary in the heap; the
# tables map their own memory (`primes._odd_sieve`) at any threshold.
_MMAP_THRESHOLD = 16 << 20
# Twice the mmap threshold, so the heap a flush frees stays for the next
# one instead of being trimmed and faulted in again.
_TRIM_THRESHOLD = 32 << 20


def max_factor_count(limit: int) -> int:
    """Largest d with the product of the d smallest odd primes < limit.

    Every Carmichael number has at least 3 prime factors, so the answer is
    never below 3: it is 3 for every limit up to 3 * 5 * 7 * 11 = 1155.
    """
    d = 3
    while min_odd_prime_product(d + 1) < limit:
        d += 1
    return d


@functools.cache
def min_odd_prime_product(count: int) -> int:
    """Product of the `count` smallest odd primes (1 for count <= 0)."""
    product, p = 1, 1
    for _ in range(count):
        p += 2
        while not is_prime(p):
            p += 2
        product *= p
    return product


@dataclass(frozen=True)
class EnumerationConfig:
    limit: int
    d_min: int = 3
    d_max: int | None = None
    worker_count: int = 1

    def resolved_d_max(self) -> int:
        if self.d_max is None:
            return max_factor_count(self.limit)
        return self.d_max

    def validate(self) -> None:
        if self.limit < 2:
            raise ValueError("limit must be at least 2")
        if self.worker_count < 1:
            raise ValueError("worker count must be positive")
        d_max, cap = self.resolved_d_max(), max_factor_count(self.limit)
        if not 3 <= self.d_min <= d_max <= cap:
            raise ValueError(f"need 3 <= d_min <= d_max <= max_factor_count"
                             f"(limit) = {cap}, got [{self.d_min}, {d_max}]")


def _spf_limit(limit: int, d_min: int, reach: int) -> int:
    """Size of the smallest-factor table for a run from d_min whose leaf
    parents reach at most `reach` (module docstring, Residue-class route)."""
    if limit > _BATCH_LIMIT:
        return _SPF_FLOOR
    cap = _SPF_TOP if d_min == 3 and limit >= 1 << 43 else _SPF_BASE
    if min_odd_prime_product(d_min - 1) <= cap:
        reach = limit  # `_factor_fast` may read P - 1 below the cap
    return max(_SPF_FLOOR, min(1 << reach.bit_length(), cap))


@dataclass
class _Tables:
    """The lookup tables of one run: the sieve and its window lists, which
    `_build_tables` caches on sieve_top, and the smallest-factor table,
    which `_spf_table` caches on spf_limit (`_spf_limit`, from the limit
    and d_min).  Runs with the same sieve_top share the sieve and the
    window lists, which grow as larger reaches need them (`child_end`).
    """

    sieve_top: int
    sieve: list[int]
    sieve64: np.ndarray  # the same primes, for the batched leaf layer
    # m -> products of the m consecutive primes from each sieve index, up
    # to the first above the largest reach served (`child_end`).
    windows: defaultdict
    spf_limit: int
    # uint16 smallest factor of each odd number below spf_limit, 0 for a
    # prime (`smallest_factor_table`); read in place by numpy and through
    # a memoryview by Python.
    spf: np.ndarray

    @classmethod
    def for_limit(cls, limit: int, d_min: int = 3) -> "_Tables":
        # A leaf parent's P is at least the product of the d_min - 2
        # smallest odd primes, which bounds its reach R; the largest
        # sieve-drawn prime, the (d-1)-th, is at most isqrt(R), and every
        # shallower position is bounded lower.
        reach = (limit - 1) // min_odd_prime_product(max(d_min - 2, 1))
        # Round up to a power of two so nearby limits share tables.
        sieve_top = 1 << max(math.isqrt(reach), 64).bit_length()
        if sieve_top > _SIEVE_TOP_MAX:
            raise ValueError(
                f"a search below {limit} from {d_min} factors needs primes "
                f"up to {sieve_top}, above the bound of {_SIEVE_TOP_MAX}")
        spf_limit = _spf_limit(limit, d_min, reach)
        return cls(sieve_top, *_build_tables(sieve_top), spf_limit,
                   _spf_table(spf_limit))

    def child_end(self, reach: int, m: int) -> int:
        """End hi of the slice sieve[lo:hi] of children of a prefix with
        reach R, each of which leaves m primes to choose.

        A child p leaves p and m - 1 distinct primes above it, whose
        product must be at most R = (limit - 1) // P.  For m >= 3 the
        product of the m consecutive primes from p is at most R too, and
        those products increase along the sieve, so one bisection of
        `windows[m]` by R ends the children.  The list stops after its
        first product above the largest R it has served, and every later
        product is larger still, so a bisection that lands inside the list
        is exact; otherwise the list grows until a product exceeds R.
        When every whole window fits (the rest run past the sieve's end),
        the root bound p**m <= R ends the children.  At m = 2 the bound
        stays p <= isqrt(R), which the int64 proof of the leaf batch reads.
        """
        sieve = self.sieve
        if m == 2:
            return bisect_right(sieve, math.isqrt(reach))
        windows = self.windows[m]
        hi = bisect_right(windows, reach)
        if hi < len(windows):
            return hi
        whole = len(sieve) - m + 1
        while len(windows) < whole and (not windows or windows[-1] <= reach):
            i = len(windows)
            windows.append(math.prod(sieve[i : i + m]))
        if windows and windows[-1] > reach:
            return bisect_right(windows, reach)
        return bisect_right(sieve, iroot(reach, m))


@functools.lru_cache(maxsize=4)
def _build_tables(sieve_top: int) -> tuple[list[int], np.ndarray, defaultdict]:
    """The primes below sieve_top, as a list and as int64, and their window
    lists, empty until `_Tables.child_end` grows them."""
    sieve = prime_sieve(sieve_top)
    return sieve, np.array(sieve, dtype=np.int64), defaultdict(list)


@functools.lru_cache(maxsize=1)
def _spf_table(spf_limit: int) -> np.ndarray:
    # A call through the module's name, so that a wrapper put there (as
    # perfbench's tracer does) sees every build.
    return smallest_factor_table(spf_limit)


def _factor_fast(n: int, tables: _Tables) -> list[tuple[int, int]]:
    """Factor n, through the smallest-factor table when n is below its
    limit; every prime and exponent is a Python int."""
    if n >= tables.spf_limit:
        return list(factorize(n).factors)
    fac = []
    if n % 2 == 0:
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        fac.append((2, e))
    spf = memoryview(tables.spf)
    while n > 1:
        p = spf[n >> 1] or n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        fac.append((p, e))
    return fac


def _bounded_divisors(fac, hi: int) -> list[int]:
    """All divisors <= hi of the factorization `fac` (unsorted)."""
    divs = [1] if hi >= 1 else []
    for p, e in fac:
        extra = []
        for d in divs:
            v = d
            for _ in range(e):
                v *= p
                if v > hi:
                    break
                extra.append(v)
        divs += extra
    return divs


def _complete_final(
    primes: tuple[int, ...],
    product: int,
    carry: int,
    limit: int,
    tables: _Tables,
    out: list,
) -> None:
    """Emit every Carmichael P*q < limit extending a d-1 prime prefix.

    gcd(P, L) = 1 holds by construction (pruned during descent), so the
    inverse below always exists.  Each route keeps a prime q with
    q = P^-1 (mod L) and (q - 1) | (P - 1), which make P * q Carmichael
    (module docstring), so neither re-checks Korselt's criterion.
    """
    rmax = (limit - 1) // product
    p_last = primes[-1]
    if rmax <= p_last:
        return
    t = pow(product % carry, -1, carry)
    span = (rmax - t) // carry + 1 if rmax >= t else 0
    if span <= 0:
        return

    pm1 = product - 1
    if span <= _LONG_PROGRESSION:
        r = t if t > p_last else t + ((p_last - t) // carry + 1) * carry
        while r <= rmax:
            if pm1 % (r - 1) == 0 and is_prime(r):
                out.append((product * r, primes + (r,)))
            r += carry
    else:
        for e in _bounded_divisors(_factor_fast(pm1, tables), rmax - 1):
            q = e + 1
            if q <= p_last or q % carry != t % carry:
                continue
            if is_prime(q):
                out.append((product * q, primes + (q,)))


def _inverse_mod(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m lane by lane (int64, gcd(a, m) = 1, 2 <= m < 2**62).

    Extended Euclid on all lanes at once, keeping s1 * a = r1 (mod m).
    A lane is done when its remainder r1 reaches 1, and s1 is then its
    inverse.  Done lanes step on harmlessly (r1 drops to 0 and stays
    there; dividing by it yields 0) until half the lanes are done, when
    they are dropped.  The cofactors stay within [-m, m] and q * s1
    within 2m, so nothing leaves int64.  A lane with gcd(a, m) > 1 never
    reaches 1; after `_EUCLID_STEPS` steps it raises ArithmeticError.
    """
    out = np.zeros_like(m)  # an inverse is never 0, so 0 marks a lane not done
    lanes = np.arange(len(m))
    r0, r1 = m, a % m
    s0, s1 = np.zeros_like(m), np.ones_like(m)
    live = len(m)
    with np.errstate(divide="ignore"):
        for _ in range(_EUCLID_STEPS + 1):
            hit = np.flatnonzero(r1 == 1)
            if hit.size:
                out[lanes[hit]] = s1[hit]
                live -= hit.size
                if 2 * live < lanes.size:
                    keep = np.flatnonzero(r1 > 1)
                    lanes, r0, r1, s0, s1 = (
                        x[keep] for x in (lanes, r0, r1, s0, s1)
                    )
            if not live:
                return out % m
            q, r = np.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
    i = np.flatnonzero(out == 0)[0]
    raise ArithmeticError(f"{a[i]} has no inverse modulo {m[i]}")


def _lanes(los, his) -> tuple[np.ndarray, np.ndarray]:
    """One lane per index j of every range [lo, hi): its range and j."""
    los, his = np.array(los, dtype=np.int64), np.array(his, dtype=np.int64)
    counts = his - los
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.repeat(los - (np.cumsum(counts) - counts), counts)
    return owner, np.arange(len(owner)) + offset


def _class_values(product: int, carry: int, floor: int,
                  reach: int) -> tuple[int, int]:
    """First value and count of the w = P^-1 (mod L) in (floor, reach].

    The first value is at most floor + L, so the count is never negative
    when floor <= reach.  `add_children`, the only caller, ensures that:
    for its node by lo < hi, which puts windows[3][lo] and sieve[lo]**3
    at most R (`_Tables.child_end` at m = 3), and for a child by skipping it
    when floor >= R.  The count may exceed what `len` of a range can
    hold.
    """
    c = pow(product, -1, carry)
    start = floor + 1 + (c - floor - 1) % carry
    return start, (reach - start) // carry + 1


class _LeafBatch:
    """The leaf layer of one batch of tasks: its limit, its tables, the
    emissions (N, primes) it has made and not yet handed on (`out`), and
    the queues of leaf parents of d - 2 primes, each closed through its
    slice of candidates for the last-but-one prime p or its residue class
    of p * q (module docstring).

    `add_children` takes a node of d - 3 primes, drops it when its class
    of p * p' * q is empty, and forms the leaf parent of each child that
    passes the descent's prune.  It counts each parent's class once,
    drops the parent when the class is empty and hands it to `_route`
    otherwise.  At or below
    `_BATCH_LIMIT` `_route` queues the class or the slice, and `flush`
    closes both queues in int64 numpy once either holds `_FLUSH` lanes.
    Above it `_route` closes each parent at once, in Python ints: it walks
    a class of fewer than `_CLASS_RATIO` values and loops any other
    parent's slice.  The arithmetic that keeps an emission proves it
    Carmichael (module docstring), so no route re-checks Korselt's
    criterion; the merge of `enumerate_carmichael` validates every entry.
    """

    def __init__(self, limit: int, tables: _Tables):
        self.limit = limit
        self.tables = tables
        self.out: list = []
        # (primes, product, carry, reach, lo, hi)
        self.parents: list[tuple] = []
        # (primes, product, carry, pmin, pmax, start, lo, hi): the class
        # values w = start + j * carry for lo <= j < hi.
        self.classes: list[tuple] = []
        self.pending = self.class_pending = 0  # lanes queued on each

    def add_children(self, primes, product, carry, reach, lo, hi) -> None:
        """Close or queue the leaf parents below a node of d - 3 primes
        with children sieve[lo:hi] and reach R = (limit - 1) // P.

        The node is closed when its class of w = p * p' * q is empty.  Each
        child passing the descent's prune forms its parent, which the
        parent's own class count closes when empty and otherwise hands to
        `_route`; the slice end is found only for a non-empty class.  This
        loop is the only place a leaf parent is formed.
        """
        if lo >= hi:
            return
        tables = self.tables
        sieve, windows = tables.sieve, tables.windows[3]
        floor = windows[lo] - 1 if lo < len(windows) else sieve[lo] ** 3
        if not _class_values(product, carry, floor, reach)[1]:
            return
        # The last prime of the sieve leaves its parent an empty slice.
        hi = min(hi, len(sieve) - 1)
        for after, p in enumerate(sieve[lo:hi], lo + 1):
            if carry % p == 0 or math.gcd(product, p - 1) != 1:
                continue
            reach2, floor = reach // p, sieve[after] ** 2
            if floor >= reach2:
                continue  # an empty slice, or an empty range of w
            product2, carry2 = product * p, math.lcm(carry, p - 1)
            start, count = _class_values(product2, carry2, floor, reach2)
            if count:
                self._route(primes + (p,), product2, carry2, reach2, after,
                            tables.child_end(reach2, 2), start, count)

    def _route(self, primes, product, carry, reach, lo, hi, start,
               count) -> None:
        """Close or queue a parent whose class holds `count` values from
        `start` (`_class_values`)."""
        sieve = self.tables.sieve
        if self.limit > _BATCH_LIMIT:
            if count < _CLASS_RATIO:
                self._walk_class(primes, product, range(start, reach + 1, carry),
                                 sieve[lo:hi])
            else:
                self._loop_slice(primes, product, carry, sieve[lo:hi])
            return
        if reach < self.tables.spf_limit and count < _CLASS_RATIO * (hi - lo):
            head = (primes, product, carry, sieve[lo], sieve[hi - 1], start)
            # Both queues are cut into pieces of at most _FLUSH lanes.
            jlo = 0
            while jlo < count:
                take = min(count - jlo, _FLUSH - self.class_pending)
                self.classes.append(head + (jlo, jlo + take))
                self.class_pending += take
                jlo += take
                if self.class_pending >= _FLUSH:
                    self.flush()
            return
        while lo < hi:
            take = min(hi - lo, _FLUSH - self.pending)
            self.parents.append((primes, product, carry, reach, lo, lo + take))
            self.pending += take
            lo += take
            if self.pending >= _FLUSH:
                self.flush()

    def _walk_class(self, primes, product, values, candidates) -> None:
        """Emit P * w for each class value w = p * q with p the first of
        the candidates dividing w, q = w // p a prime above p, and p - 1
        and q - 1 dividing P * w - 1: the flush's tests, which with
        L | P * w - 1 from the class make P * w Carmichael."""
        for w in values:
            for p in candidates:
                if w % p == 0:
                    q, n = w // p, product * w
                    if (q > p and (n - 1) % (p - 1) == 0
                            and (n - 1) % (q - 1) == 0 and is_prime(q)):
                        self.out.append((n, primes + (p, q)))
                    break

    def _loop_slice(self, primes, product, carry, candidates) -> None:
        """Prune each candidate as `_descend` does and complete it."""
        for p in candidates:
            if carry % p == 0 or math.gcd(product, p - 1) != 1:
                continue
            _complete_final(primes + (p,), product * p, math.lcm(carry, p - 1),
                            self.limit, self.tables, self.out)

    def flush(self) -> None:
        parents, self.parents = self.parents, []
        classes, self.classes = self.classes, []
        self.pending = self.class_pending = 0
        if classes:
            self._close_classes(classes)
        if parents:
            self._close_slices(parents)

    def _close_classes(self, classes: list) -> None:
        heads, products, carries, pmins, pmaxs, starts, los, his = zip(*classes)
        owner, step = _lanes(los, his)
        carry = np.array(carries, dtype=np.int64)[owner]
        w = np.array(starts, dtype=np.int64)[owner] + step * carry
        # p = spf(w) must be a candidate of the parent's slice; spf is 0
        # for a prime w (and for 1).
        spf = self.tables.spf
        p = spf[w >> 1].astype(np.int64)
        keep = np.flatnonzero((p >= np.array(pmins, dtype=np.int64)[owner])
                              & (p <= np.array(pmaxs, dtype=np.int64)[owner]))
        owner, w, p = owner[keep], w[keep], p[keep]
        q = w // p
        keep = np.flatnonzero((q > p) & (spf[q >> 1] == 0))
        owner, w, p, q = owner[keep], w[keep], p[keep], q[keep]
        # carry | P * w - 1 by construction; p - 1 and q - 1 must divide it.
        nm1 = np.array(products, dtype=np.int64)[owner] * w - 1
        hits = np.flatnonzero((nm1 % (p - 1) == 0) & (nm1 % (q - 1) == 0))
        for i in hits.tolist():
            o = int(owner[i])
            self.out.append((products[o] * int(w[i]),
                             heads[o] + (int(p[i]), int(q[i]))))

    def _close_slices(self, parents: list) -> None:
        heads, products, carries, reaches, los, his = zip(*parents)
        owner, index = _lanes(los, his)
        p = self.tables.sieve64[index]
        carry = np.array(carries, dtype=np.int64)[owner]
        # The pruning of `_descend`: p must not divide L, and no prime of
        # the parent may divide p - 1 (so gcd(P, p - 1) = 1).  Shorter
        # parents are padded with sieve_top, which divides no p - 1.
        width = max(map(len, heads))
        pad = (self.tables.sieve_top,) * width
        factors = np.array([h + pad[len(h):] for h in heads], dtype=np.int64)
        keep = carry % p != 0
        for column in factors.T:
            keep &= (p - 1) % column[owner] != 0
        keep = np.flatnonzero(keep)
        owner, p, carry = owner[keep], p[keep], carry[keep]
        carry = carry // np.gcd(carry, p - 1) * (p - 1)  # L2 = lcm(L, p - 1)
        # rmax = (limit - 1) // (P * p) = R // p with R = (limit - 1) // P;
        # p <= isqrt(R) (the descent's bound), so rmax >= p.
        rmax = np.array(reaches, dtype=np.int64)[owner] // p
        product = np.array(products, dtype=np.int64)[owner] * p
        t = _inverse_mod(product, carry)
        # First term above p; keep the lanes where it is at most rmax.
        first = np.where(t > p, t, t + ((p - t) // carry + 1) * carry)
        keep = np.flatnonzero(first <= rmax)
        owner, p, product, carry, rmax, t, first = (
            a[keep] for a in (owner, p, product, carry, rmax, t, first)
        )
        span = (rmax - t) // carry + 1
        long = span > _LONG_PROGRESSION
        for i in np.flatnonzero(long).tolist():
            o, q = int(owner[i]), int(p[i])
            _complete_final(heads[o] + (q,), products[o] * q, int(carry[i]),
                            self.limit, self.tables, self.out)
        short = np.flatnonzero(~long)
        terms = (rmax[short] - first[short]) // carry[short] + 1
        # The lanes whose terms start in one window of _PIECE are expanded
        # together: fewer than _PIECE + _LONG_PROGRESSION terms at once.
        start = np.cumsum(terms) - terms
        cuts = (np.flatnonzero(np.diff(start // _PIECE)) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(short)]):
            count = terms[a:b]
            lane = np.repeat(short[a:b], count)
            step = np.arange(len(lane)) - np.repeat(np.cumsum(count) - count,
                                                    count)
            r = first[lane] + step * carry[lane]
            hits = np.flatnonzero((product[lane] - 1) % (r - 1) == 0)
            for i, q in zip(lane[hits].tolist(), r[hits].tolist()):
                if is_prime(q):
                    self.out.append((int(product[i]) * q,
                                     heads[owner[i]] + (int(p[i]), q)))


def _descend(leaves: _LeafBatch, d: int, primes: tuple[int, ...], product: int,
             carry: int, reach: int, lo: int, hi: int) -> None:
    """Search the children sieve[lo:hi] of the prefix, whose reach is
    R = (limit - 1) // P, for the Carmichael numbers of d primes below
    the limit of `leaves`, which carries the run's tables and emissions.

    A node of d - 3 primes hands them to `leaves.add_children`, which
    forms their leaf parents; a shallower node descends into each child
    p that passes the prune, with reach R // p (flooring by P and then by
    p floors by P * p) and its own children ending at `child_end`.
    """
    k = len(primes)
    if k == d - 3:
        leaves.add_children(primes, product, carry, reach, lo, hi)
        return
    tables = leaves.tables
    for after, p in enumerate(tables.sieve[lo:hi], lo + 1):
        if carry % p == 0 or math.gcd(product, p - 1) != 1:
            continue
        reach2 = reach // p
        _descend(leaves, d, primes + (p,), product * p, math.lcm(carry, p - 1),
                 reach2, after, tables.child_end(reach2, d - k - 1))


# ---------------------------------------------------------------------------
# Task partitioning and the public entry point.


def _seed_tasks(config: EnumerationConfig, tables: _Tables) -> list[tuple]:
    """Search tasks (d, prefix, lo, hi): the children sieve[lo:hi] of the
    node `prefix`, which is () for d = 3 and (p1,) for deeper targets.

    Each node's children are cut into tasks of one child each, in
    (d, p1, p2) order; any cut of [lo, hi) into ranges searches the same
    tree.  The bounds are `_descend`'s, and the prune is left to
    `_descend`, which applies it to every child of a task.
    """
    limit, sieve = config.limit, tables.sieve
    tasks: list[tuple] = []
    for d in range(config.d_min, config.resolved_d_max() + 1):
        # Index 0 of the sieve is 2, which the prune of the root
        # (P = L = 1) lets through, so the odd primes start at 1.
        hi = tables.child_end(limit - 1, d)
        nodes = [((), 1, hi)] if d == 3 else [
            ((p1,), after, tables.child_end((limit - 1) // p1, d - 1))
            for after, p1 in enumerate(sieve[1:hi], 2)]
        tasks += [(d, prefix, i, i + 1)
                  for prefix, lo, end in nodes for i in range(lo, end)]
    return tasks


def _run_task_impl(task: tuple, leaves: _LeafBatch, last: bool) -> list:
    """Search one task (d, prefix, lo, hi); return what was emitted during
    this call.

    The emissions include those of the flushes this call made, which may
    complete earlier tasks' leaves; `last` flushes what is still pending,
    so every emission leaves through this function.
    """
    d, primes, lo, hi = task
    product = math.prod(primes)
    _descend(leaves, d, primes, product, math.lcm(*(p - 1 for p in primes)),
             (leaves.limit - 1) // product, lo, hi)
    if last:
        leaves.flush()
    out, leaves.out = leaves.out, []
    return out


def _worker_run(job: tuple) -> tuple[int, list]:
    """Run one batch of tasks; return its task count and its emissions.

    job = (limit, d_min, tasks).  The leaf layer is batched across the
    batch's tasks and flushed at its end.  A task that raises is named in
    a `RuntimeError` chained from the original; its flush may have been
    closing earlier tasks' leaves.
    """
    limit, d_min, tasks = job
    # Both table caches are filled before a fork pool starts, so workers
    # inherit them.
    leaves = _LeafBatch(limit, _Tables.for_limit(limit, d_min))
    out: list = []
    for i, task in enumerate(tasks):
        try:
            out.extend(_run_task_impl(task, leaves, i == len(tasks) - 1))
        except Exception as exc:
            d, prefix, lo, hi = task
            raise RuntimeError(f"search task d={d} prefix={prefix} children "
                               f"[{lo}, {hi}) failed: {exc}") from exc
    return len(tasks), out


def _tune_malloc() -> None:
    """Set glibc's mmap and trim thresholds (`mallopt`); a no-op where the
    C library has no `mallopt` or cannot be loaded."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def enumerate_carmichael(
    config: EnumerationConfig, progress=None
) -> Catalog:
    """The complete ascending catalog of Carmichael numbers < limit.

    The worker count is capped at `default_worker_count()`.  `_chunk` cuts
    the tasks into about 8 batches per worker, and each batch runs through
    `_worker_run`: in this process for one worker (or a single batch), on
    a fork pool otherwise.  `progress(done, total)` counts finished tasks
    after each batch.  Output is independent of the worker count.  Raises
    `RuntimeError` when an entry fails Korselt's criterion or, for a full
    catalog, a published count C(10**n) differs (`_check_decades`).
    """
    config.validate()
    _tune_malloc()  # before the fork pool starts, so workers inherit it
    workers = min(config.worker_count, default_worker_count())
    tables = _Tables.for_limit(config.limit, config.d_min)
    tasks = _seed_tasks(config, tables)
    jobs = [(config.limit, config.d_min, batch)
            for batch in _chunk(tasks, workers)]
    raw: list = []
    done = 0
    with contextlib.ExitStack() as stack:
        results = map(_worker_run, jobs)
        if workers > 1 and len(jobs) > 1:
            pool = stack.enter_context(
                get_context("fork").Pool(processes=workers))
            results = pool.imap_unordered(_worker_run, jobs)
        for count, part in results:
            raw.extend(part)
            done += count
            if progress is not None:
                progress(done, len(tasks))

    raw.sort()
    entries = []
    previous = 0
    for n, fs in raw:
        if n == previous:
            raise AssertionError(f"duplicate emission for {n}")
        previous = n
        entry = CarmichaelEntry(n, fs)
        try:
            entry.validate()
        except ValueError as exc:
            raise RuntimeError(f"the search emitted a number that is not "
                               f"Carmichael: {exc}") from exc
        entries.append(entry)
    full = max_factor_count(config.limit)
    if (config.d_min, config.resolved_d_max()) == (3, full):
        _check_decades([entry.value for entry in entries], config.limit)
    # No worker count here: it provably does not affect the content, and
    # equal catalogs must serialize byte-identically.
    return Catalog(entries, complete_provenance(
        config.limit, config.d_min, config.resolved_d_max(), len(entries)))


def _check_decades(numbers: list[int], limit: int) -> None:
    """Raise `RuntimeError` unless the ascending Carmichael numbers below
    `limit` hold the published count C(10**n) for every 10**n <= limit.

    The merge proves every entry Carmichael, but a route that loses a
    number emits only true ones; this check catches such a loss wherever
    a published count lies within the bound.
    """
    for n, published in PAPER_COUNTS.items():
        if 10**n > limit:
            break
        found = bisect_left(numbers, 10**n)
        if found != published:
            raise RuntimeError(f"the search found {found} Carmichael numbers "
                               f"below 10**{n}, but the published count is "
                               f"{published}")


def _chunk(tasks: list, workers: int) -> list[list]:
    # Aim for several batches per worker so stragglers even out.
    per = max(1, len(tasks) // (workers * 8))
    return [tasks[i : i + per] for i in range(0, len(tasks), per)]


def default_worker_count() -> int:
    return os.cpu_count() or 1
