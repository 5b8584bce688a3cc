"""File formats: JSON-Lines profile and flux datasets, JSON model files.

All numbers are written as decimal JSON floats, which round-trip IEEE
doubles exactly. Writes stream into a temp file and finish with an atomic
rename. A profile file holds profiles on one grid with unique ids.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .column import (
    AtmosphericProfile,
    FluxSet,
    PhysConsts,
    ProfileBatch,
    RowError,
    VerticalGrid,
    _as_level_array,
)
from .features import FeatureSchema, Normalization
from .net import MlpModel

MODEL_FORMAT_VERSION = 1


class DatasetError(ValueError):
    """Malformed file content, carrying a file/record locus."""

    def __init__(self, path, record: Optional[int], message: str):
        locus = f"{path}" if record is None else f"{path}:record {record}"
        super().__init__(f"{locus}: {message}")


@contextlib.contextmanager
def _atomic_open(path):
    """Text handle on a new file beside `path`, renamed over `path` once
    everything is written and removed if writing fails. The file gets the
    mode open() would give it (0o666 less the umask)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one JSON document per line, encoding each record as it is written."""
    with _atomic_open(path) as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)


def _lines(fh) -> Iterator[Tuple[int, str]]:
    """The non-blank lines of an open JSON-Lines file, numbered as records
    from 1 (blank lines are skipped and not counted)."""
    return enumerate((line for line in fh if not line.isspace()), start=1)


def _decode(path, index: int, line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(path, index, f"invalid JSON ({exc})") from exc


def _check_new_id(seen: dict, pid, path, index: int) -> None:
    """Remember a non-null id, or fail if an earlier record had it."""
    if isinstance(pid, (list, dict)):
        raise DatasetError(path, index, f"id must be a string, a number or null, got {pid!r}")
    if pid is not None and seen.setdefault(pid, index) != index:
        raise DatasetError(path, index, f"duplicate id {pid!r} (first in record {seen[pid]})")


def _check_ids(path, ids) -> None:
    """Fail, before `path` is written, on ids its reader would reject."""
    seen = {}
    for index, pid in enumerate(ids, start=1):
        _check_new_id(seen, pid, path, index)


def _read_rows(path, parse: Callable[[dict], dict], stack: Callable[[dict, list], object], what: str):
    """Read a JSON-Lines file one record at a time and return the stacked rows.

    `parse(record)` checks one decoded record and returns its fields by
    name; `stack(columns, ids)` builds the result from each field's list of
    values and the records' ids. Every record must carry an id (or null)
    that no earlier record has. Errors name the file and the first bad
    record, counted as records: a record that fails to decode or to parse
    is reported after the records read so far are stacked, so a value rule
    (a RowError of `stack`) broken by an earlier record is named first.
    """
    columns, ids, seen = {}, [], {}

    def stacked():
        try:
            return stack(columns, ids)
        except RowError as exc:
            raise DatasetError(path, exc.row + 1, exc.message) from exc

    with open(path) as fh:
        for index, line in _lines(fh):
            try:
                record = _decode(path, index, line)
                row = parse(record)
                _check_new_id(seen, record.get("id"), path, index)
            except (TypeError, ValueError) as exc:
                if ids:
                    stacked()
                if isinstance(exc, DatasetError):
                    raise
                raise DatasetError(path, index, str(exc)) from exc
            for name, value in row.items():
                columns.setdefault(name, []).append(value)
            ids.append(record.get("id"))
    if not ids:
        raise DatasetError(path, None, f"no {what}")
    return stacked()


def _stacked(columns: dict) -> dict:
    """Each field's rows as one array, each list released once stacked."""
    return {name: np.array(columns.pop(name)) for name in list(columns)}


# ---------------------------------------------------------------------------
# Profiles

_PROFILE_ARRAYS = ("T", "f_c", "q_l", "q_i", "r_l", "r_i")
_PROFILE_SCALARS = ("T_s", "alpha", "mu0")


def write_profiles(path, profiles: Sequence[AtmosphericProfile]) -> None:
    """Write one record per row of a ProfileBatch (a sequence of profiles
    is stacked into one first, so it must share one grid), converting one
    row at a time. Repeated non-null ids fail before the file is created."""
    batch = ProfileBatch.from_profiles(profiles)
    _check_ids(path, batch.ids)
    p_hl = batch.grid.p_hl.tolist()
    scalars = [(name, getattr(batch, name).tolist()) for name in _PROFILE_SCALARS]
    arrays = [(name, getattr(batch, name)) for name in _PROFILE_ARRAYS + ("q",)
              if getattr(batch, name) is not None]
    write_jsonl(path, ({"id": pid, "p_hl": p_hl, **{name: values[i] for name, values in scalars},
                        **{name: arr[i].tolist() for name, arr in arrays}}
                       for i, pid in enumerate(batch.ids)))


def read_profiles(path) -> ProfileBatch:
    """Read a profile file into one validated ProfileBatch.

    Records are decoded one at a time and only their arrays are kept.
    Every record must have record 1's `p_hl`, give `q` if and only if
    record 1 does, and carry an id (or null) that no earlier record has.
    Errors name the file and the first bad record: the value rules are
    checked on the stacked batch, and on the records read so far when a
    record fails one of the checks above.
    """
    grid = first_p_hl = with_q = None

    def parse(record: dict) -> dict:
        nonlocal grid, first_p_hl, with_q
        for key in ("p_hl",) + _PROFILE_ARRAYS + _PROFILE_SCALARS:
            if key not in record:
                raise ValueError(f"missing field {key!r}")
        if grid is None:
            grid = VerticalGrid(np.asarray(record["p_hl"], dtype=float))
            first_p_hl, with_q = record["p_hl"], record.get("q") is not None
        elif record["p_hl"] != first_p_hl:
            raise ValueError("p_hl differs from record 1; profiles must share one grid")
        if (record.get("q") is not None) != with_q:
            raise ValueError("q must be given in every record or in none")
        row = {name: _as_level_array(record[name], name, grid.n_fl)
               for name in _PROFILE_ARRAYS + (("q",) if with_q else ())}
        row.update((name, float(record[name])) for name in _PROFILE_SCALARS)
        return row

    return _read_rows(path, parse, lambda columns, ids: ProfileBatch(grid=grid, ids=ids, **_stacked(columns)),
                      "profiles")


# ---------------------------------------------------------------------------
# Flux records

_FLUX_FIELDS = ("up", "down", "heat", "direct_down")


def write_fluxes(path, ids: Sequence[Optional[str]], flux: FluxSet) -> None:
    """Write one record per row of `flux`, with id `ids[i]` for row i,
    converting one row at a time. Repeated non-null ids fail before the
    file is created."""
    fields = [(name, getattr(flux, name)) for name in _FLUX_FIELDS if getattr(flux, name) is not None]
    if flux.up.ndim != 2 or len(ids) != len(flux.up):
        raise ValueError(f"{path}: need (n, levels) flux rows and one id per row, got "
                         f"{len(ids)} ids for rows of shape {flux.up.shape}")
    _check_ids(path, ids)
    write_jsonl(path, ({"id": pid, **{name: arr[i].tolist() for name, arr in fields}}
                       for i, pid in enumerate(ids)))


def read_fluxes(path) -> Tuple[List[Optional[str]], FluxSet]:
    """Read a flux file as its ids and one FluxSet of (n, levels) rows.

    Every record must have record 1's lengths, give `direct_down` if and
    only if record 1 does, and carry an id (or null) that no earlier
    record has. Errors name the file and the first bad record.
    """
    shapes = None

    def parse(record: dict) -> dict:
        nonlocal shapes
        for key in ("up", "down", "heat"):
            if key not in record:
                raise ValueError(f"missing field {key!r}")
        row = {name: np.asarray(record[name], dtype=float)
               for name in _FLUX_FIELDS if record.get(name) is not None}
        shape = {name: arr.shape for name, arr in row.items()}
        if shapes is None:
            if row["up"].ndim != 1:
                raise ValueError("up must be a list of numbers")
            FluxSet(**row)  # record 1 sets the shapes of the file
            shapes = shape
        elif shape != shapes:
            raise ValueError(f"field shapes {shape} differ from record 1's {shapes}: a flux "
                             "file holds one grid, and direct_down in every record or in none")
        return row

    return _read_rows(path, parse, lambda columns, ids: (ids, FluxSet(**_stacked(columns))), "flux records")


# ---------------------------------------------------------------------------
# Model files


def _normalization_to_json(norm: Normalization) -> dict:
    return {"mean": norm.mean.tolist(), "scale": norm.scale.tolist()}


def _normalization_from_json(obj: dict) -> Normalization:
    return Normalization(mean=np.asarray(obj["mean"], dtype=float),
                         scale=np.asarray(obj["scale"], dtype=float))


def model_to_json(model: MlpModel, consts: PhysConsts) -> dict:
    if model.schema is None or model.norm_in is None or model.norm_out is None:
        raise ValueError("only fully-fitted models (schema + normalization) can be saved")
    schema = model.schema
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "component": schema.component,
        "schema": {
            "component": schema.component,
            "n_fl_window": schema.n_fl_window,
            "n_hl_window": schema.n_hl_window,
            "include_humidity": schema.include_humidity,
            "include_thickness": schema.include_thickness,
            "input_len": schema.input_len,
            "output_len": schema.output_len,
        },
        "normalization": {
            "in": _normalization_to_json(model.norm_in),
            "out": _normalization_to_json(model.norm_out),
        },
        "layers": [
            {"rows": int(w.shape[0]), "cols": int(w.shape[1]),
             "w_rowmajor": w.ravel().tolist(), "b": b.tolist()}
            for w, b in zip(model.weights, model.biases)
        ],
        "training": dict(model.meta),
        "constants": {"g": consts.g, "c_p": consts.c_p, "rho_l": consts.rho_l,
                      "rho_i": consts.rho_i, "p_trunc": consts.p_trunc},
    }


def model_from_json(obj: dict, path="<model>") -> Tuple[MlpModel, PhysConsts]:
    try:
        if obj.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {obj.get('format_version')!r}")
        s = obj["schema"]
        schema = FeatureSchema(
            component=s["component"],
            n_fl_window=int(s["n_fl_window"]),
            n_hl_window=int(s["n_hl_window"]),
            include_humidity=bool(s.get("include_humidity", False)),
            include_thickness=bool(s.get("include_thickness", False)),
        )
        weights, biases = [], []
        for layer in obj["layers"]:
            w = np.asarray(layer["w_rowmajor"], dtype=float).reshape(
                int(layer["rows"]), int(layer["cols"]))
            weights.append(w)
            biases.append(np.asarray(layer["b"], dtype=float))
        model = MlpModel(
            weights=weights, biases=biases, schema=schema,
            norm_in=_normalization_from_json(obj["normalization"]["in"]),
            norm_out=_normalization_from_json(obj["normalization"]["out"]),
            meta=dict(obj.get("training", {})),
        )
        c = obj["constants"]
        consts = PhysConsts(g=c["g"], c_p=c["c_p"], rho_l=c["rho_l"],
                            rho_i=c["rho_i"], p_trunc=c["p_trunc"])
        return model, consts
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(path, None, f"bad model file: {exc}") from exc


def save_model(path, model: MlpModel, consts: PhysConsts) -> None:
    atomic_write_text(path, json.dumps(model_to_json(model, consts)))


def load_model(path) -> Tuple[MlpModel, PhysConsts]:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(path, None, f"invalid JSON ({exc})") from exc
    return model_from_json(obj, path)
