"""Finitely generated abelian groups in canonical form.

Every integer group the engines produce is cyclic or free of rank at
most one (the ko chart cells), so a group is stored by its invariants
alone: a free rank and a divisibility chain of torsion coefficients.
"""

__all__ = ["AbelianGroupPresentation"]


class AbelianGroupPresentation:
    """Canonical form Z^free_rank + sum Z/d_i with d_1 | d_2 | ..."""

    def __init__(self, free_rank, torsion=()):
        self.free_rank = int(free_rank)
        self.torsion = tuple(int(d) for d in torsion)
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    def __eq__(self, other):
        if not isinstance(other, AbelianGroupPresentation):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"
