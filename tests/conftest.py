"""Shared inputs: the two band examples as raw gate configurations, and
the grid triangulations of the torus.

Both encode a square whose core is a middle band.  In the one-gate case
only the bottom edge is glued, so every loop retracts off the core; in the
two-gate case both horizontal edges are glued and vertical segments cross
the band.  Slot orders follow the core-induced gate directions, which run
opposite ways along the two sides of the band.
"""

from loopcalc.gates import raw_config_from_json


def one_gate_config():
    """Each loop dips into the core and straight back out."""
    return raw_config_from_json(
        {
            "gates": [
                {
                    "id": "g1",
                    "eps_omega": 1,
                    "crossings": [
                        {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g1", "slot": 1}},
                        {"owner": "a", "eps": -1, "slot": 1, "link": {"gate": "g1", "slot": 0}},
                        {"owner": "b", "eps": 1, "slot": 2, "link": {"gate": "g1", "slot": 3}},
                        {"owner": "b", "eps": -1, "slot": 3, "link": {"gate": "g1", "slot": 2}},
                    ],
                }
            ]
        }
    )


def two_gate_config(aligned: bool = True, two_loops: bool = True):
    """Loop ``a`` crosses the band twice near one end, ``b`` twice near the
    other.  ``aligned`` directs both gates the same way across the band
    (compatibility signs +1, -1); anti-aligned gives +1, +1."""
    crossings_g1 = [
        {"owner": "a", "eps": 1, "slot": 0, "link": {"gate": "g2", "slot": 3}},
        {"owner": "a", "eps": 1, "slot": 1, "link": {"gate": "g2", "slot": 2}},
    ]
    crossings_g2 = [
        {"owner": "a", "eps": -1, "slot": 3, "link": {"gate": "g1", "slot": 1}},
        {"owner": "a", "eps": -1, "slot": 2, "link": {"gate": "g1", "slot": 0}},
    ]
    if two_loops:
        crossings_g1 += [
            {"owner": "b", "eps": 1, "slot": 2, "link": {"gate": "g2", "slot": 1}},
            {"owner": "b", "eps": 1, "slot": 3, "link": {"gate": "g2", "slot": 0}},
        ]
        crossings_g2 += [
            {"owner": "b", "eps": -1, "slot": 1, "link": {"gate": "g1", "slot": 3}},
            {"owner": "b", "eps": -1, "slot": 0, "link": {"gate": "g1", "slot": 2}},
        ]
    return raw_config_from_json(
        {
            "gates": [
                {"id": "g1", "eps_omega": 1, "crossings": crossings_g1},
                {"id": "g2", "eps_omega": -1 if aligned else 1, "crossings": crossings_g2},
            ]
        }
    )


def torus_grid(n: int):
    """Triangles of the n x n grid triangulation of the torus, each square
    split along its rising diagonal, corners in counterclockwise order."""

    def v(i, j):
        return f"v{i % n}_{j % n}"

    tris = []
    for i in range(n):
        for j in range(n):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i + 1, j + 1), v(i, j + 1)))
    return tris
