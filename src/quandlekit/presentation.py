"""Generator/relator presentations emitted as plain text data.

No simplification and no word-problem machinery: presentations are output
for external tools.  Text format: one `gen <name>` line per generator,
then one `rel <lhs> = <rhs>` line per relation.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple
    kind: str    # "associated_group" | "fundamental_quandle"

    def __post_init__(self):
        # every relation must reference only listed generators; relations
        # store (lhs, rhs) textual pairs built from generator names.  One
        # subset test per relation; only a failing one is scanned token by token
        gens = set(self.generators) | {"<|", "<|~", "="}
        for lhs, rhs in self.relations:
            toks = (lhs + " " + rhs).replace("^-1", "").split()
            if not gens.issuperset(toks):
                bad = next(tok for tok in toks if tok not in gens)
                raise ValueError(f"relation references unknown generator {bad!r}")

    def format(self):
        out = [f"gen {g}" for g in self.generators]
        out += [f"rel {lhs} = {rhs}" for lhs, rhs in self.relations]
        return "\n".join(out) + "\n"
