"""Exact movable-cone dynamics and section-count growth for Picard-rank-2
Calabi-Yau threefold models.

Every public name is imported from its module on first access (PEP 562), so
`import movcone` loads no submodule and each CLI command pays only for the
modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "chow": (
        "CIData", "MultiProjAmbient", "ambient_tangent_chern", "ci_chern", "integrate",
        "intersection_data", "multiply",
    ),
    "cones": (
        "C2Form", "CYModel", "DivisorClass", "InvalidModel", "LatticeMap", "NotMovable",
        "SigmaData", "TriForm", "area_coordinate", "eigen_coords", "eigen_sigma",
        "fundamental_domain", "in_open_movable", "reduce_to_domain", "slope_coordinate",
        "validate_model",
    ),
    "exact": ("QuadNum", "RadicandMismatch", "squarefree_decompose"),
    "growth": (
        "FitReport", "SweepRecord", "estimate_exponent", "floor_class", "geometric_grid",
        "sweep", "write_csv",
    ),
    "hilbert": (
        "BiPoly", "BiPolyRing", "FitInconsistency", "IdealSpec", "PolyParseError", "default_sample_grid",
        "fit_chi", "hilbert_dim", "load_ideal_file", "merge_ideals", "parse_ideal_text", "parse_poly",
    ),
    "models": (
        "ModelFile", "ModelParseError", "bundled_model_path", "list_bundled_models",
        "load_model", "parse_model_text", "save_model",
    ),
    "riemann_roch": ("ChamberCoveringError", "chi_nef", "h0_movable"),
}
# name -> the module that defines it; a module's own name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
