"""Seeded inputs for the benchmark, made without `waerden`.

Long AP-free colourings come from Rabung's power-residue construction:
for a prime p with primitive root g, colour x (not a multiple of p) by
ind_g(x mod p) mod r and a multiple m*p like m.  For the primes below the
colouring of [1, length] has no monochromatic k-AP; `checker.mono_ap`
confirms it every time an input set is built.  A window of an AP-free
colouring is AP-free, and so are its reversal and any permutation of its
colours, so the seed picks those freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import checker

# (r, k) -> (p, length): [1, length] of the construction mod p is AP-free.
CYCLIC = {
    (2, 3): (7, 6),
    (2, 4): (17, 17),
    (3, 3): (19, 19),
    (2, 6): (139, 695),
    (3, 4): (97, 291),
    (4, 3): (37, 74),
}


def _primitive_root(p: int) -> int:
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % s for s in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def cyclic_colouring(r: int, k: int) -> list[int]:
    p, length = CYCLIC[(r, k)]
    g = _primitive_root(p)
    index = {pow(g, e, p): e for e in range(p - 1)}

    def colour(x: int) -> int:
        while x % p == 0:
            x //= p
        return index[x % p] % r

    colors = [colour(x) for x in range(1, length + 1)]
    if checker.mono_ap(colors, k) is not None:
        raise RuntimeError(f"power-residue colouring for {(r, k)} is not AP-free")
    return colors


def ap_free(base: list[int], r: int, length: int, rng: random.Random) -> list[int]:
    """A seeded window of `base`, maybe reversed, with its colours permuted."""
    start = rng.randrange(len(base) - length + 1)
    window = base[start:start + length]
    if rng.random() < 0.5:
        window.reverse()
    perm = list(range(r))
    rng.shuffle(perm)
    return [perm[c] for c in window]


def with_progression(colors: list[int], r: int, k: int, rng: random.Random) -> list[int]:
    """`colors` with one seeded k-AP of the largest difference made monochromatic."""
    d = (len(colors) - 1) // (k - 1)
    a = rng.randrange(1, len(colors) - (k - 1) * d + 1)
    return checker.planted(colors, k, a, d, rng.randrange(r))


@dataclass(frozen=True)
class VerifySet:
    """Inputs of one verify pass for one (r, k) family."""

    r: int
    k: int
    n: int  # length of the random colourings decoded as models; the CNF's N
    free: tuple[tuple[int, ...], ...]  # AP-free colourings
    planted: tuple[tuple[int, ...], ...]  # colourings with a planted progression
    random: tuple[tuple[int, ...], ...]  # random colourings of length n
    models: tuple[tuple[int, ...], ...]  # models of the random colourings
    free_flags: tuple[bool, ...]  # independent scan verdicts for free + planted


def verify_set(r: int, k: int, n: int, length: int, rng: random.Random, count: int) -> VerifySet:
    base = cyclic_colouring(r, k)
    free = [ap_free(base, r, length, rng) for _ in range(count)]
    planted = [with_progression(c, r, k, rng) for c in free]
    rand = [[rng.randrange(r) for _ in range(n)] for _ in range(count)]
    return VerifySet(
        r=r,
        k=k,
        n=n,
        free=tuple(map(tuple, free)),
        planted=tuple(map(tuple, planted)),
        random=tuple(map(tuple, rand)),
        models=tuple(tuple(checker.model_of(c, r)) for c in rand),
        free_flags=tuple(checker.mono_ap(c, k) is None for c in free + planted),
    )
