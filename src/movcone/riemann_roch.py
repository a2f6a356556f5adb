"""Section counting: the Euler characteristic on nef integral classes and
section counts of arbitrary integral movable classes via reduction to the
fundamental domain."""

from __future__ import annotations

from .cones import CYModel, DivisorClass, SigmaData, coord_signs, reduce_to_domain


class ChamberCoveringError(ValueError):
    """A class outside the nef cone, where chi need not count its sections."""


def chi_nef(model: CYModel, D: DivisorClass) -> int:
    """chi(D) = D^3/6 + c2.D/12 for an integral nef class, exactly; an integer,
    as every model has chi integral at a*H1 + b*H2 with a, b >= 0 and
    a + b <= 2, and hence on all classes."""
    if not D.is_integral:
        raise ValueError(f"chi requires an integral class, got {D}")
    if min(coord_signs(model.nef1, model.nef2, D)) < 0:
        raise ChamberCoveringError(f"chamber covering not implemented: {D} is not nef")
    return int(model.chi(*D.integer_coords()))


def h0_movable(
    model: CYModel, s: SigmaData, pi: tuple[tuple[int, int], tuple[int, int]], D: DivisorClass
) -> tuple[int, list[str]]:
    """Sections of an integral class in the open movable cone; NotMovable outside it.

    Reduces D into the fundamental domain by birational pullbacks, which
    preserve h0, and returns chi of the reduced class D'.  A nef class of
    the open movable cone is big, so h0(D') = chi(D') by Kawamata-Viehweg.
    With involutions the domain is the nef cone; without them, a D' outside
    the nef cone raises ChamberCoveringError.
    """
    word, reduced = reduce_to_domain(model, s, pi, D)
    return chi_nef(model, reduced), word
