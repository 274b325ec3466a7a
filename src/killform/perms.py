"""Permutations on {0..degree-1}: the element type of every group here.

Composition follows function notation: (p * q)(i) = p(q(i)), i.e. q acts first.
Cycle notation in text form is 1-based, matching the group file format.
"""
from __future__ import annotations

import re
from functools import reduce
from math import lcm


class Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> Perm:
        return Perm(range(degree))

    @staticmethod
    def from_cycles(cycles, degree: int) -> Perm:
        """Build from 0-based disjoint cycles, e.g. [(0,1,2),(3,4)]."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                if pt in seen:
                    raise ValueError(f"point {pt} appears twice")
                seen.add(pt)
                images[pt] = cyc[(i + 1) % len(cyc)]
        return Perm(images)

    @staticmethod
    def parse(text: str, degree: int | None = None) -> Perm:
        """Parse 1-based disjoint-cycle notation like ``(1,2,3)(4,5)``.

        Separators inside a cycle may be commas or spaces; ``()`` and ``e``
        denote the identity.  With degree=None the degree is the largest point
        mentioned (so the identity needs an explicit degree).
        """
        text = text.strip()
        if text in ("e", "()", ""):
            if degree is None:
                raise ValueError("identity needs an explicit degree")
            return Perm.identity(degree)
        if not re.fullmatch(r"(\(\s*\d+(?:[,\s]+\d+)*\s*\))+", text):
            raise ValueError(f"bad cycle notation: {text!r}")
        cycles = []
        seen = set()
        for group in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) - 1 for tok in re.split(r"[,\s]+", group.strip())]
            if any(p < 0 for p in pts):
                raise ValueError(f"point out of range in {text!r}")
            for p in pts:
                if p in seen:
                    raise ValueError(f"point {p + 1} appears twice in {text!r}")
                seen.add(p)
            if len(pts) > 1:
                cycles.append(tuple(pts))
        # one-point cycles are dropped above, but their points count here too
        if degree is None:
            degree = 1 + max(seen)
        if max(seen) >= degree:
            raise ValueError(f"point {max(seen) + 1} out of range in {text!r} for degree {degree}")
        return Perm.from_cycles(cycles, degree)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: Perm) -> Perm:
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        im = self.images
        return Perm([im[j] for j in other.images])

    def inverse(self) -> Perm:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def __pow__(self, n: int) -> Perm:
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Full cycle type including fixed points, weakly decreasing."""
        lens = [len(c) for c in self.cycles()]
        lens += [1] * (len(self.images) - sum(lens))
        return tuple(sorted(lens, reverse=True))

    def order(self) -> int:
        return reduce(lcm, (len(c) for c in self.cycles()), 1)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: Perm) -> bool:
        return self.images < other.images

    def __le__(self, other: Perm) -> bool:
        return self.images <= other.images

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"
