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
    """A class outside the nef cone, where chi need not count its sections."""


def chi_nef(model: CYModel, D: DivisorClass) -> int:
    """chi(D) = D^3/6 + c2.D/12 for an integral nef class, exactly."""
    if not D.is_integral:
        raise ValueError(f"chi requires an integral class, got {D}")
    if not cone_contains(model.nef_cone(), D):
        raise ChamberCoveringError(f"chamber covering not implemented: {D} is not nef")
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

    Reduces D into the fundamental domain by birational pullbacks, which
    preserve h0, and returns chi of the reduced class D'.  A nef class of
    the open movable cone is big, so h0(D') = chi(D') by Kawamata-Viehweg.
    With involutions the domain is the nef cone; without them, a D' outside
    the nef cone raises ChamberCoveringError.
    """
    word, reduced = reduce_to_domain(model, s, pi, D)
    return chi_nef(model, reduced), word
