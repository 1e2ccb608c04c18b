"""The building blocks and their numerical invariants.

Walks through truncation towers for the standard blocks, checks the
ring relations exactly, and prints the invariant tables for three
fixtures: the elementary domino U_0, projective 4-space, and the
diagonal-heart object of a supersingular elliptic curve.
"""

from raynaud.blocks import make_block, truncate
from raynaud.formal import FormalObject
from raynaud.invariants import (
    InvariantConfig,
    crew_check,
    domino_number,
    hodge_witt_numbers,
    newton_hodge_polygon,
    newton_slopes,
)
from raynaud.rmod import check_relations, standard_filtration

CFG = InvariantConfig(3, 8, 3)


def show_table(name, table):
    print(f"\n{name}")
    print("  h   =", {k: int(v) for k, v in sorted(table.h.items())})
    print("  h_W =", {k: int(v) for k, v in sorted(table.hW.items())})
    print("  T   =", dict(sorted(table.T.items())))
    print("  m   =", {k: str(v) for k, v in sorted(table.m.items())})
    print("  b_n =", dict(sorted(table.betti.items())))


def main():
    p = 2
    print("block towers satisfy FV = VF = p, FdV = d, d^2 = 0 at every level:")
    for kind, params in [("UnitW", {}), ("Domino", {"t": 0}), ("Dieudonne", {"i": 1, "j": 1})]:
        b = make_block(kind, p, **params)
        print(f"  {b.label():7s}", check_relations(b.tower, 3, 6).ok())

    u0 = make_block("Domino", p, t=0)
    L = truncate(u0, 1, 4)
    print("\nU_0 truncated at depth 4: dims", [L.piece(g).pres.kdim() for g in (0, 1)])
    print("Fil^1 length in grading 0:", standard_filtration(L, 1)[0]["length"])
    print("domino number T^0(U_0):", domino_number(u0, 0, CFG))

    e = make_block("Dieudonne", p, i=1, j=1)
    print("\nslopes of the height-2 block:", newton_slopes(e, 0, CFG))
    print("slopes of the unit block:    ", newton_slopes(make_block("UnitW", p), 0, CFG))

    # U_0 placed in degree 0: the spectral-sequence torsion pattern
    X = FormalObject.of_blocks(p, 1, (u0, 0, 0))
    show_table("U_0 in degree 0", hodge_witt_numbers(X, CFG))
    crew = crew_check(X, 1, CFG).details
    print(f"  Crew column i=1: sum (-1)^j h_W = {crew['hW_sum']}, sum (-1)^j h = {crew['h_sum']}")

    # projective 4-space: the diagonal ladder of unit blocks
    p4 = FormalObject.of_blocks(p, 1, *[("UnitW", -i, -i) for i in range(5)])
    show_table("P^4", hodge_witt_numbers(p4, CFG))

    # a supersingular elliptic curve: W + E_{1/2}[-1] + W(-1)[-1]
    ell = FormalObject.of_blocks(p, 1, ("UnitW", 0, 0), (e, 0, -1), ("UnitW", -1, -1))
    show_table("supersingular elliptic curve", hodge_witt_numbers(ell, CFG))
    poly = newton_hodge_polygon(ell, 1, CFG)
    print("  degree-1 Newton polygon:", [(str(s), mu) for s, mu in poly["newton"]])
    print("  Newton-Hodge points:    ", [(str(s), str(mu)) for s, mu in poly["newton_hodge"]])
    print("  integral polygon below the Newton polygon:", poly["pass"])


if __name__ == "__main__":
    main()
