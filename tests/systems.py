"""Shared rings, parsers, the acceptance suite of input systems and the
brute-force reference of the thm5 check."""

from __future__ import annotations

from f5gb.cli import _parse_poly
from f5gb.poly import MonomialOrder, Polynomial, Ring
from f5gb.trace import build_registry, classify_pairs_at_insertion


def make_ring(p: int, names, order: str = "degrevlex") -> Ring:
    return Ring(p, MonomialOrder(order, len(names)), list(names))


def P(ring: Ring, text: str) -> Polynomial:
    return _parse_poly(ring, text, 0)


def polys(ring: Ring, *texts: str) -> list[Polynomial]:
    return [P(ring, t) for t in texts]


def thm5_brute_force(events, ring: Ring) -> tuple[int, list]:
    """(checked, failures) as ``check_thm5_exhaustive`` should report them,
    found by classifying every pair at every insertion one at a time."""
    registry = build_registry(events)
    classified = [
        cls
        for ev in events
        if ev["kind"] == "DoneInserted"
        for cls in classify_pairs_at_insertion(events, registry, ring, ev)
    ]
    failures = [
        (c.g_pos, c.pair, "unclassified") for c in classified if c.outcome == "unclassified"
    ]
    return len(classified), failures


def strip_rejections(events) -> list[dict]:
    """The log without its criterion rejections: every pair they classified
    becomes unclassified."""
    return [
        ev for ev in events if ev["kind"] not in ("F5CritPairReject", "RewrittenReject")
    ]


# Coefficients of the "generic" systems were drawn once from a fixed seed and
# frozen here so every run sees identical inputs.

SUITE = {
    "two_gen_demo": (["x", "y"], ["x^2 + y^2", "x*y"]),
    "mono_pair": (["x", "y"], ["x^2*y", "x*y^2"]),
    "mono_triple": (["x", "y"], ["x^2", "x*y", "y^3"]),
    "quadric_pair": (
        ["x", "y", "z"],
        [
            "x^2 + 2*x*y + 3*y^2 + 4*x*z + 5*y*z + 6*z^2",
            "3*x^2 + x*y + 4*y^2 + x*z + 5*y*z + 2*z^2",
        ],
    ),
    "quadric_cubic": (
        ["x", "y", "z"],
        [
            "x^2 + 3*x*y + y^2 + 2*x*z + 4*y*z + z^2",
            "x^3 + 2*x^2*y + 3*x*y^2 + 4*y^3 + 5*x^2*z + x*y*z "
            "+ 2*y^2*z + 3*x*z^2 + 4*y*z^2 + 5*z^3",
        ],
    ),
    "cyclic3_homog": (
        ["x", "y", "z", "h"],
        ["x + y + z", "x*y + y*z + x*z", "x*y*z - h^3"],
    ),
    "katsura3_homog": (
        ["x0", "x1", "x2", "x3", "h"],
        [
            "x0 + 2*x1 + 2*x2 + 2*x3 - h",
            "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 - x0*h",
            "2*x0*x1 + 2*x1*x2 + 2*x2*x3 - x1*h",
            "x1^2 + 2*x0*x2 + 2*x1*x3 - x2*h",
        ],
    ),
    "nonregular_quadrics": (
        ["x", "y"],
        ["x^2 + 2*x*y + 3*y^2", "x^2 + 5*y^2", "x*y + y^2"],
    ),
    "nonregular_mixed": (
        ["x", "y"],
        [
            "4*x^2 + 4*x*y + 5*y^2",
            "2*x + 4*y",
            "x + 2*y",
            "x^3 + 2*x^2*y + 5*x*y^2 + 5*y^3",
        ],
    ),
}

SUITE_PRIMES = (7, 32003)


def suite_instances():
    for name, (names, texts) in SUITE.items():
        for p in SUITE_PRIMES:
            ring = make_ring(p, names)
            yield f"{name}_gf{p}", ring, polys(ring, *texts)
