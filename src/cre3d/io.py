"""File formats: JSON-Lines profile and flux datasets, JSON model files.

All numbers are written as decimal JSON floats, which round-trip IEEE
doubles exactly. Writes stream into a temp file and finish with an atomic
rename. A profile file holds profiles on one grid with unique ids.

JSON-Lines records are encoded and decoded in contiguous parts at the same
time: this process handles part 0 and forked children the others (see
`_n_parts`). The bytes written and the errors raised do not depend on how
the records are split.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import pickle
import shutil
import stat
import threading
from collections.abc import Sequence
from typing import Callable, List, NamedTuple, Optional, Tuple

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
# Fewest records per part of a JSON-Lines file: a fork, a pipe and a join
# cost a few ms, and encoding or decoding one flux record on the reference
# grid 0.2 to 0.5 ms.
PART_RECORDS = 100


class DatasetError(ValueError):
    """Malformed file content, carrying a file/record locus."""

    def __init__(self, path, record: Optional[int], message: str):
        locus = f"{path}" if record is None else f"{path}:record {record}"
        super().__init__(f"{locus}: {message}")


def _temp_path(path) -> str:
    """A new file name beside `path`, for what is written before `path` is."""
    return os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.part")


@contextlib.contextmanager
def _atomic_open(path):
    """Text handle on a new file beside `path`, renamed over `path` once
    everything is written and removed if writing fails. The file gets the
    mode open() would give it (0o666 less the umask)."""
    tmp = _temp_path(path)
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


# ---------------------------------------------------------------------------
# Parts


def _n_parts(n_records: int) -> int:
    """How many parts to split `n_records` records into: one per CPU this
    process may run on, with at least PART_RECORDS records each. One where
    the CPUs are unknown, or where the process runs other threads: a fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the child."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_records // PART_RECORDS))


def _child(work: Callable, part, pipe_fd: int) -> None:
    """Run `work(part)` in a forked child, send (True, result) or (False,
    the error) through the pipe and leave the process; the exit status is 0
    once a whole message is sent."""
    status = 1
    try:
        with os.fdopen(pipe_fd, "wb") as pipe:
            try:
                message = (True, work(part))
            except Exception as exc:  # noqa: BLE001 - reported by the parent
                message = (False, f"{type(exc).__name__}: {exc}")
            pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _in_parts(path, work: Callable, parts: Sequence) -> list:
    """[work(part) for part in parts]: parts[0] in this process, each other
    part in a forked child that sends its result back through a pipe. A
    child that raises, exits with another status or is killed fails the
    call with an error naming `path`. Every child is reaped before this
    returns or raises."""
    children = []  # [pid or None once reaped, pipe]
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(work, part, write_fd)
            os.close(write_fd)
            children.append([pid, os.fdopen(read_fd, "rb")])
        results = [work(parts[0])]
        for k, child in enumerate(children, start=1):
            pid, pipe = child
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                ok, value = False, None
            child[0] = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if ok and not code:
                results.append(value)
                continue
            if not ok and value:
                how = value
            elif code > 0:
                how = f"its process exited with status {code}"
            elif code < 0:
                how = f"its process was killed by signal {-code}"
            else:
                how = "its process sent no result"
            raise RuntimeError(f"{path}: part {k + 1} of {len(parts)} failed: {how}")
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:  # the call failed before this child's result was read
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# JSON Lines


def write_jsonl(path, records: Sequence[dict]) -> None:
    """Write `records[i]` as line i + 1, encoding each record as it is
    written. Part 0 goes straight into the temp file; each other part is
    encoded by a child into a file beside it, appended in order once all
    parts are done."""
    n = len(records)
    with _atomic_open(path) as fh:
        k = _n_parts(n)
        rows = [range(n * i // k, n * (i + 1) // k) for i in range(k)]
        part_paths = [None] + [_temp_path(path) for _ in rows[1:]]

        def encode(i: int) -> None:
            with contextlib.nullcontext(fh) if i == 0 else open(part_paths[i], "x") as out:
                out.writelines(json.dumps(records[j]) + "\n" for j in rows[i])

        try:
            _in_parts(path, encode, range(k))
            fh.flush()
            for part in part_paths[1:]:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh.buffer)
        finally:
            for part in part_paths[1:]:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(part)


class _Records(Sequence):
    """`n` records, record i built by `record(i)` each time it is read."""

    def __init__(self, n: int, record: Callable[[int], dict]):
        self._n, self._record = n, record

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i) -> dict:
        return self._record(range(self._n)[i])


def _chunks(fh, end: Optional[int] = None):
    """The lines of binary file `fh` as they end at b"\\n", from its
    position up to byte `end` (None: the end of the file)."""
    left = math.inf if end is None else end - fh.tell()
    while left > 0:
        chunk = fh.readline()
        if not chunk:
            return
        left -= len(chunk)
        yield chunk


def _lines(chunks):
    """The non-blank lines in `chunks`, split and blank as a text-mode file
    reads them: \\r\\n and \\r end a line as \\n does and read as \\n,
    and a line of whitespace is blank."""
    for chunk in chunks:
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        for line in chunk.splitlines(keepends=True):
            # a record starts with "{"; other lines may be blank by str.isspace()
            if not (line.isspace() or (line[:1] != b"{" and line.decode(errors="replace").isspace())):
                yield line


def _split(fh, line_bytes: int) -> List[Tuple[Optional[int], Optional[int]]]:
    """Byte ranges (start, end) of the parts of the rest of binary file
    `fh`, whose lines are about `line_bytes` long. Each range starts at a
    line; part 0 starts where `fh` is (start None) and the last part ends
    at the end of the file (end None)."""
    info = os.fstat(fh.fileno())
    if not stat.S_ISREG(info.st_mode):
        return [(None, None)]
    start = fh.tell()
    rest = info.st_size - start
    k = _n_parts(round(rest / line_bytes))
    bounds = []
    for i in range(1, k):
        fh.seek(start + rest * i // k - 1)
        fh.readline()
        bounds.append(fh.tell())
    fh.seek(start)
    bounds = sorted({b for b in bounds if b < info.st_size})
    return list(zip([None] + bounds, bounds + [None]))


class _Rows(NamedTuple):
    """What a part of a JSON-Lines file holds, up to its first bad record."""

    count: int  # records read, a bad one included
    ids: list  # the ids of the records before the first bad one
    columns: dict  # each field's rows before the first bad record, stacked
    error: Optional[Tuple[int, str]]  # (record, message) of the first bad record


def _parse_rows(lines, parse: Callable[[dict], dict]) -> _Rows:
    """Decode and parse `lines`, records 1, 2, ... of a part, up to the first bad one."""
    columns, ids, count, error = {}, [], 0, None
    for count, line in enumerate(lines, start=1):
        try:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON ({exc})") from exc
            row = parse(record)
        except (TypeError, ValueError) as exc:
            error = (count, str(exc))
            break
        for name, value in row.items():
            columns.setdefault(name, []).append(value)
        ids.append(record.get("id"))
    return _Rows(count, ids, {name: np.array(columns.pop(name)) for name in list(columns)}, error)


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


def _read_rows(path, parse: Callable[[dict], dict], build: Callable[[dict, list], object], what: str):
    """Read a JSON-Lines file and return its records' rows, built into one result.

    `parse(record)` checks one decoded record and returns its fields by
    name; `build(columns, ids)` makes the result from each field's stacked
    rows and the records' ids, and raises a RowError for a row that breaks
    a value rule. Record 1 is parsed first, so `parse` can check the others
    against it; the rest of the file is read in parts (see `_in_parts`).
    Every record must carry an id (or null) that no earlier record has.
    Errors name the file and the first bad record, counted as records: a
    record that fails to decode, to parse or the id rule is reported after
    the records before it are built, so a value rule broken by an earlier
    record is named first.
    """
    with open(path, "rb") as fh:
        first = []  # the lines of the first chunk that has one
        for chunk in _chunks(fh):
            first = list(_lines([chunk]))
            if first:
                break
        if not first:
            raise DatasetError(path, None, f"no {what}")
        head = _parse_rows(first[:1], parse)
        if head.error:
            raise DatasetError(path, 1, head.error[1])
        parts = _split(fh, len(first[0]))

        def read(part) -> _Rows:
            start, end = part
            if start is None:
                return _parse_rows(itertools.chain(first[1:], _lines(_chunks(fh, end))), parse)
            with open(path, "rb") as part_fh:
                part_fh.seek(start)
                return _parse_rows(_lines(_chunks(part_fh, end)), parse)

        results = [head] + _in_parts(path, read, parts)

    ids, taken, failure, before, seen = [], [], None, 0, {}
    for part in results:
        n = len(part.ids)
        for j, pid in enumerate(part.ids):
            try:
                _check_new_id(seen, pid, path, before + j + 1)
            except DatasetError as exc:
                failure, n = exc, j
                break
        else:
            if part.error:
                failure = DatasetError(path, before + part.error[0], part.error[1])
        ids += part.ids[:n]
        taken.append((part.columns, n))
        if failure:
            break
        before += part.count
    if ids:
        columns = {name: np.concatenate([cols.pop(name)[:n] for cols, n in taken if n])
                   for name in list(head.columns)}
        try:
            result = build(columns, ids)
        except RowError as exc:
            raise DatasetError(path, exc.row + 1, exc.message) from exc
    if failure:
        raise failure
    return result


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
    write_jsonl(path, _Records(len(batch), lambda i: {
        "id": batch.ids[i], "p_hl": p_hl, **{name: values[i] for name, values in scalars},
        **{name: arr[i].tolist() for name, arr in arrays}}))


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

    return _read_rows(path, parse, lambda columns, ids: ProfileBatch(grid=grid, ids=ids, **columns), "profiles")


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
    write_jsonl(path, _Records(len(ids), lambda i: {"id": ids[i], **{name: arr[i].tolist() for name, arr in fields}}))


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

    return _read_rows(path, parse, lambda columns, ids: (ids, FluxSet(**columns)), "flux records")


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
            **({} if schema.p_hl_window is None else {"p_hl_window": schema.p_hl_window.tolist()}),
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
            p_hl_window=s.get("p_hl_window"),
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
