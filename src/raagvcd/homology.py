"""Reduced integral homology of simplicial complexes, by coreduction.

Simplices come in as vertex bitmasks, and cells get integer ids in order
of degree.  A face clears one set bit, so finding it is one integer
operation and one dictionary lookup.  The empty simplex (mask 0) is the
one cell of degree -1 and the only face of every vertex, so the chain
complex built here is the augmented one and its homology is reduced
homology.

A queue-based coreduction (Mrozek & Batko, *Coreduction homology
algorithm*, DCG 41, 2009) removes every cell.  A live cell with exactly one
live face is removed together with that face; when the queue runs empty,
the lowest-degree live cell, which then has no live face, is removed as
critical.  The result is exact over the integers:

* Each step adds to the cells removed so far either a critical cell whose
  faces are all removed, or a pair (a, b) whose cell b is the only face of
  a not yet removed.  Every face of b is also a face of another face of a,
  so the removed cells form a subcomplex after every step.
* A pair has incidence <da, b> = +-1 because the complex is simplicial, so
  adding it is an elementary expansion: an elementary chain reduction,
  which keeps the homology over Z.  The pairs form an acyclic matching
  whose gradient paths run strictly back in removal order, and by Forman's
  discrete Morse theory the chain complex is chain homotopy equivalent to
  the Morse complex on the critical cells.
* The Morse boundary of a critical q-cell s is the image of ds under the
  flow: a (q-1)-cell b paired with a coface a becomes b - eps * da, where
  eps = <da, b>, and a (q-1)-cell paired with a face becomes zero.  The
  other faces of a were all removed before the pair, so taking the pairs
  in the order they were formed handles each cell once.

When no two critical cells lie in adjacent degrees every Morse boundary is
zero and H_q is free of rank c_q, with no matrix work.  Otherwise the small
Morse boundary matrices go through a dense Smith reduction with exact
arithmetic.  No floating point is used anywhere.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class HomologySummary:
    """Reduced Betti numbers by degree and torsion coefficients per degree."""

    reduced_betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return all(b == 0 for b in self.reduced_betti) and all(
            not t for t in self.torsion
        )

    def to_dict(self) -> dict:
        return {
            "reduced_betti": list(self.reduced_betti),
            "torsion": [list(t) for t in self.torsion],
            "trivial": self.trivial,
        }


def _dense_smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonalize over Z by elementary operations; returns the diagonal."""
    if not mat or not mat[0]:
        return []
    m, n = len(mat), len(mat[0])
    diag: list[int] = []
    t = 0
    while t < min(m, n):
        # Locate the smallest nonzero entry in the remaining block.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if mat[i][j] != 0 and (
                    pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        mat[t], mat[pi] = mat[pi], mat[t]
        for row in mat:
            row[t], row[pj] = row[pj], row[t]
        p = mat[t][t]
        dirty = False
        for i in range(t + 1, m):
            if mat[i][t] != 0:
                q = mat[i][t] // p
                for j in range(t, n):
                    mat[i][j] -= q * mat[t][j]
                if mat[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if mat[t][j] != 0:
                q = mat[t][j] // p
                for i in range(t, m):
                    mat[i][j] -= q * mat[i][t]
                if mat[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # nonzero remainders appeared; repeat with smaller pivot
        diag.append(abs(p))
        t += 1
    return diag


def _invariant_factors(diagonal: Sequence[int]) -> list[int]:
    """Normalize a diagonal to the divisibility chain d1 | d2 | ..."""
    factors = [abs(d) for d in diagonal if d != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a != 0:
                    g = gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
    return sorted(factors)


@dataclass(frozen=True)
class BoundaryReduction:
    rank: int
    torsion: tuple[int, ...]


def reduce_boundary(
    n_rows: int, n_cols: int, entries: dict[tuple[int, int], int]
) -> BoundaryReduction:
    """Rank and invariant factors (>1) of an integer matrix."""
    mat = [[0] * n_cols for _ in range(n_rows)]
    for (r, c), val in entries.items():
        mat[r][c] = val
    factors = _invariant_factors(_dense_smith_diagonal(mat))
    return BoundaryReduction(
        rank=len(factors), torsion=tuple(d for d in factors if d > 1)
    )


def _face_lists(
    simplices_by_dim: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """Number the cells and list the faces and cofaces of each.

    Cell 0 is the empty simplex (mask 0); the others follow level by level
    in the given order.  The i-th face of a simplex clears its i-th lowest
    set bit and has sign (-1)**i, the orientation of the simplex as an
    increasing vertex sequence.
    """
    faces: list[list[int]] = [[]]
    cofaces: list[list[int]] = [[]]
    index: dict[int, int] = {0: 0}
    for level in simplices_by_dim:
        start = len(faces)
        ids = dict(zip(level, range(start, start + len(level))))
        cofaces += [[] for _ in level]
        for cell, simplex in enumerate(level, start):
            fs = []
            m = simplex
            while m:
                low = m & -m
                m ^= low
                f = index[simplex ^ low]
                fs.append(f)
                cofaces[f].append(cell)
            faces.append(fs)
        index = ids
    return faces, cofaces


def reduced_homology_of_chain(
    simplices_by_dim: Sequence[Sequence[int]],
) -> HomologySummary:
    """Reduced homology of a simplicial complex given per-dimension cells.

    ``simplices_by_dim[q]`` lists the q-simplices as vertex bitmasks (bit
    ``v`` set for vertex ``v``), closed under taking faces.  Degree 0
    reports components minus one.  The empty complex is refused: its
    reduced homology is Z in degree -1, which the summary has no place for.
    """
    if not simplices_by_dim or not simplices_by_dim[0]:
        raise ValueError("the empty complex has reduced homology Z in degree -1")
    faces, cofaces = _face_lists(simplices_by_dim)

    n = len(faces)
    live = bytearray(b"\x01") * n
    n_live = [len(fs) for fs in faces]
    pairs: list[tuple[int, int]] = []  # (a, b): b was the only live face of a
    critical: list[int] = []
    queue = deque([1])  # the first vertex pairs with the empty simplex
    lowest = 0
    while True:
        while queue:
            a = queue.popleft()
            if not live[a] or n_live[a] != 1:
                continue
            b = next(f for f in faces[a] if live[f])
            live[a] = live[b] = 0
            pairs.append((a, b))
            for c in cofaces[a] + cofaces[b]:
                n_live[c] -= 1
                if n_live[c] == 1:
                    queue.append(c)
        while lowest < n and not live[lowest]:
            lowest += 1
        if lowest == n:
            break
        live[lowest] = 0
        critical.append(lowest)
        for c in cofaces[lowest]:
            n_live[c] -= 1
            if n_live[c] == 1:
                queue.append(c)

    dims = len(simplices_by_dim)
    by_degree: list[list[int]] = [[] for _ in range(dims)]
    for c in critical:
        by_degree[len(faces[c]) - 1].append(c)
    # reductions[q] reduces the Morse boundary from degree q to degree q - 1.
    reductions = [BoundaryReduction(0, ())] * (dims + 1)
    for q in range(1, dims):
        if by_degree[q] and by_degree[q - 1]:
            reductions[q] = _morse_boundary(
                faces, pairs, by_degree[q], by_degree[q - 1]
            )
    return HomologySummary(
        reduced_betti=tuple(
            len(by_degree[q]) - reductions[q].rank - reductions[q + 1].rank
            for q in range(dims)
        ),
        torsion=tuple(reductions[q + 1].torsion for q in range(dims)),
    )


def _morse_boundary(
    faces: list[list[int]],
    pairs: list[tuple[int, int]],
    sources: list[int],
    targets: list[int],
) -> BoundaryReduction:
    """Reduce the Morse boundary from critical ``sources`` to ``targets``."""
    q = len(faces[targets[0]])  # cells of the target degree have q faces
    # flow[c] is the image of cell c in the critical cells of its degree.
    flow: dict[int, dict[int, int]] = {t: {t: 1} for t in targets}
    for a, b in pairs:
        if len(faces[b]) != q:
            continue
        fs = faces[a]
        eps = -1 if fs.index(b) % 2 else 1
        image: dict[int, int] = {}
        for i, f in enumerate(fs):
            if f != b and f in flow:
                coeff = eps if i % 2 else -eps
                for t, v in flow[f].items():
                    image[t] = image.get(t, 0) + coeff * v
        flow[b] = {t: v for t, v in image.items() if v}
    row = {t: i for i, t in enumerate(targets)}
    entries: dict[tuple[int, int], int] = {}
    for j, s in enumerate(sources):
        for i, f in enumerate(faces[s]):
            for t, v in flow.get(f, {}).items():
                key = (row[t], j)
                entries[key] = entries.get(key, 0) + (-v if i % 2 else v)
    return reduce_boundary(len(targets), len(sources), entries)
