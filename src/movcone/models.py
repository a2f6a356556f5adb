"""Model files: JSON schema, canonical serialization, bundled models.

A model file records the intersection data and lattice maps of one threefold
model.  The top-level "convention" field must read "columns-are-images";
unknown fields are rejected so convention drift cannot pass silently.  The
parser checks types only; CYModel decides which lattice maps a model carries.
"""

from __future__ import annotations

import json
import os
import re
import stat
from contextlib import contextmanager
from pathlib import Path

from .cones import C2Form, CYModel, LatticeMap, TriForm, _Value

CONVENTION = "columns-are-images"

_CI_KEYS = ("dims", "degrees")
_PROVENANCE_KEYS = ("triform", "c2form", "note")


class ModelParseError(ValueError):
    """Malformed model file."""


class ModelFile(_Value):
    """The fields of a model file, in the order the file writes its keys
    after "convention"; path, where it was read from, is no key and takes no
    part in equality."""

    __slots__ = ("name", "tau1", "tau2", "sigma", "triform", "c2form", "ci", "ideal_files", "provenance", "path")
    __hash__ = None

    def _key(self) -> tuple:
        return self.as_tuple()[:-1]

    def to_cymodel(self) -> CYModel:
        return CYModel(
            name=self.name,
            triform=TriForm(*self.triform),
            c2form=C2Form(*self.c2form),
            tau1=LatticeMap.from_flat(self.tau1) if self.tau1 else None,
            tau2=LatticeMap.from_flat(self.tau2) if self.tau2 else None,
            sigma=LatticeMap.from_flat(self.sigma) if self.sigma else None,
        )

    def ideal_paths(self) -> list[Path]:
        """ideal_files beside the model file; a symlinked model's ideal files
        sit beside the file the link names."""
        if not self.ideal_files:
            return []
        base = Path(os.path.realpath(self.path)).parent if self.path else Path(".")
        return [base / name for name in self.ideal_files]

    def to_json(self) -> str:
        doc: dict = {"convention": CONVENTION}
        for key in self._fields[:-1]:
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        if self.provenance is not None:
            doc["provenance"] = {k: self.provenance[k] for k in _PROVENANCE_KEYS if k in self.provenance}
        text = json.dumps(doc, indent=2)
        # keep numeric lists on one line
        text = re.sub(
            r"\[\s+((?:-?\d+,\s+)*-?\d+)\s+\]",
            lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
            text,
        )
        return text + "\n"


def _int_list(value, label: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers, of the given length if one is given.  JSON
    true/false load as bool, a subclass of int, and are rejected."""
    if (
        not isinstance(value, list)
        or (length is not None and len(value) != length)
        or not all(type(v) is int for v in value)
    ):
        size = "" if length is None else f"{length} "
        raise ModelParseError(f"{label} must be a list of {size}integers, got {value!r}")
    return tuple(value)


def parse_model_text(text: str, path: Path | None = None) -> ModelFile:
    # ValueError covers JSONDecodeError and an integer literal past the
    # interpreter's digit limit; RecursionError, nesting too deep to decode
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ModelParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ModelParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ModelParseError("model file must contain a JSON object")
    unknown = set(doc) - {"convention", *ModelFile._fields[:-1]}
    if unknown:
        raise ModelParseError(f"unknown fields {sorted(unknown)}")
    if doc.get("convention") != CONVENTION:
        raise ModelParseError(
            f'"convention" must equal "{CONVENTION}", got {doc.get("convention")!r}'
        )
    for key in ("name", "triform", "c2form"):
        if key not in doc:
            raise ModelParseError(f"missing required field {key!r}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ModelParseError("name must be a non-empty string")

    tri = _int_list(doc["triform"], "triform", 4)
    c2 = _int_list(doc["c2form"], "c2form", 2)

    tau1, tau2, sigma = (_int_list(doc[key], key, 4) if key in doc else None for key in ("tau1", "tau2", "sigma"))

    ci = None
    if "ci" in doc:
        raw = doc["ci"]
        if not isinstance(raw, dict) or set(raw) != set(_CI_KEYS):
            raise ModelParseError('ci block must have exactly the keys "dims" and "degrees"')
        dims = _int_list(raw["dims"], "ci.dims")
        degrees = raw["degrees"]
        if not isinstance(degrees, list):
            raise ModelParseError("ci.degrees must be a list of multidegree lists")
        degrees = [_int_list(d, "ci.degrees entry", len(dims)) for d in degrees]
        ci = {"dims": list(dims), "degrees": [list(d) for d in degrees]}

    ideal_files = None
    if "ideal_files" in doc:
        raw = doc["ideal_files"]
        if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw) or not raw:
            raise ModelParseError("ideal_files must be a non-empty list of file names")
        ideal_files = tuple(raw)

    provenance = None
    if "provenance" in doc:
        raw = doc["provenance"]
        if not isinstance(raw, dict) or set(raw) - set(_PROVENANCE_KEYS):
            raise ModelParseError(f"provenance keys must be among {_PROVENANCE_KEYS}")
        provenance = dict(raw)

    return ModelFile(name, tau1, tau2, sigma, tri, c2, ci, ideal_files, provenance, path)


def load_model(path) -> ModelFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"cannot read {path}: {exc}") from exc
    return parse_model_text(text, path)


@contextmanager
def atomic_write(path):
    """Open a new file beside path for writing.  It replaces path when the
    block ends normally and is removed when the block raises, so a failure
    leaves path as it was.  A symlink is followed, so the file it names is
    replaced and the link stays; a regular file keeps its permission bits;
    an existing path that is no regular file (a FIFO, a device) is written
    in place."""
    path = Path(os.path.realpath(path))
    mode = path.stat().st_mode if path.exists() else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as fp:
            yield fp
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fp = open(tmp, "x")
    try:
        with fp:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(mf: ModelFile, path) -> None:
    """Replace path by the model text atomically, through a new file beside it."""
    with atomic_write(path) as fp:
        fp.write(mf.to_json())


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def bundled_model_path(name: str) -> Path:
    return data_dir() / f"{name}.model"


def list_bundled_models() -> list[str]:
    return sorted(p.stem for p in data_dir().glob("*.model"))
