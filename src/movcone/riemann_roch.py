"""Section counting: the Euler characteristic on nef integral classes and
section counts of arbitrary integral movable classes via reduction to the
fundamental domain."""

from __future__ import annotations

from .cones import (
    Cone2,
    CYModel,
    DivisorClass,
    SigmaData,
    cone_contains,
    reduce_to_domain,
)


class ChamberCoveringError(ValueError):
    """Fundamental domain differs from the nef cone; chi is only known there."""


def chi_nef(model: CYModel, D: DivisorClass) -> int:
    """chi(D) = D^3/6 + c2.D/12 for an integral nef class, exactly."""
    if not D.is_integral:
        raise ValueError(f"chi requires an integral class, got {D}")
    if not cone_contains(model.nef_cone(), D):
        raise ValueError(f"{D} is not nef")
    p, q = D.integer_coords()
    val = model.chi(p, q)
    if val.denominator != 1:
        raise ValueError(
            f"chi({p},{q}) = {val} is not an integer; model intersection data invalid"
        )
    return int(val)


def h0_movable(
    model: CYModel, s: SigmaData, pi: Cone2, D: DivisorClass
) -> tuple[int, list[str]]:
    """Sections of an integral class in the open movable cone.

    Reduces D into the fundamental domain (a composition of birational
    pullbacks, so the count is preserved) and evaluates chi there.  Only
    models whose fundamental domain equals the nef cone are supported; the
    rays of a domain from fundamental_domain are primitive, as H1 and H2 are,
    so that is a comparison with nef1 and nef2.
    """
    if {pi.ray1, pi.ray2} != {model.nef1, model.nef2}:
        raise ChamberCoveringError(
            "chamber covering not implemented: fundamental domain is not the nef cone"
        )
    word, reduced = reduce_to_domain(model, s, pi, D)
    return chi_nef(model, reduced), word
