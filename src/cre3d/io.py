"""File formats: JSON-Lines profile and flux datasets, JSON model files.

All numbers are written as decimal JSON floats, which round-trip IEEE
doubles exactly; a file holds the bytes `json.dumps` gives for its
records. Float arrays become text through `_floattext.format_rows`:
Schubfach's shortest round-trip digits (R. Giulietti, "The Schubfach way
to render doubles", 2020) computed on numpy arrays, spliced into the
records a block of records at a time. Writes stream into a temp file and
finish with an atomic rename. A profile file holds profiles on one grid
with unique ids. A record is one line ending at \\n or \\r\\n; lines of
ASCII whitespace are blank.

JSON-Lines records are encoded and decoded in contiguous parts at the same
time: this process handles part 0 and forked children the others (see
`_n_parts` and `_in_parts`). Both dataset writers end in `_write_records`,
where each part makes its records' text once, in order (see
`write_jsonl`). Every file written in parts is joined by
`_written_in_parts`. The bytes written and the errors raised do not depend
on how the records are split. `_in_parts` also loads the two model files
of `cre3d predict` and `cre3d bench` at once (`cli._model_pair`).
The readers take every field through `_field`'s JSON type rule. Every
profile record repeats the grid, so `read_profiles` matches record 1's grid
text in the others instead of parsing it again.

`read_profiles`, `read_fluxes` and `map_profiles` (what `cre3d predict`
runs) are one pipeline per part (`_read_rows`): record 1 is checked and
mapped alone, then each part reads, checks and maps its records a block
of ROW_CHUNK at a time, and sends back its ids, its record count, its
mapped blocks and its first error. The readers' map keeps each checked
block, and the parent joins them without checking them again;
`map_profiles`' map writes the block's flux records into the part's own
part of each output, so no process holds more than one block of records,
whatever the size of the file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import pickle
import shutil
import signal
import stat
from collections.abc import Sequence
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from ._floattext import CHUNK, format_rows
from .column import (
    AtmosphericProfile,
    FluxSet,
    PhysConsts,
    ProfileBatch,
    RowError,
    VerticalGrid,
    _LEVEL_FIELDS,
    _SCALAR_FIELDS,
    _as_level_array,
    _frozen,
    _unchecked,
)
from .features import FeatureSchema, Normalization
from .net import MlpModel
from . import rowblocks
from .rowblocks import usable_cpus

MODEL_FORMAT_VERSION = 1
# Fewest records per part of a JSON-Lines file: a fork, a pipe and a join
# cost a few ms, and encoding or decoding one flux record on the reference
# grid 0.2 to 0.5 ms.
PART_RECORDS = 100
# Read buffer of a JSON-Lines file and of each of its parts. A profile
# record on the reference grid is about 16.6 KB: on a 2-vCPU x86 VM,
# splitting 2000 of them into lines took 35 ms with the default 8 KiB
# buffer, 10.6 ms with this one and 9.0 ms with 1 MiB, under which the
# peak RSS of repeated `cre3d predict` runs was about 1.5 MB higher.
READ_BUFFER = 1 << 17


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


def write_json(path, obj, indent: Optional[int] = 2) -> None:
    """Write `obj` as JSON, indented by default, each non-finite number as
    null: JSON has none."""
    atomic_write_text(path, json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None), indent=indent))


# ---------------------------------------------------------------------------
# Parts


def _n_parts(n_records: int) -> int:
    """How many parts to split `n_records` records into: one per usable CPU
    (`rowblocks.usable_cpus`, which is one while the process runs another OS
    thread), with at least PART_RECORDS records each."""
    return max(1, min(usable_cpus(), n_records // PART_RECORDS))


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
            try:
                pid = os.fork()
            except BaseException:  # e.g. EAGAIN: this pipe is not in `children` yet
                os.close(read_fd)
                os.close(write_fd)
                raise
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
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# JSON Lines


@contextlib.contextmanager
def _written_in_parts(paths: Sequence, k: int):
    """Write each file of `paths` in `k` parts: yields `part(i)`, a context
    manager giving part i's text handles, one per path, to be entered in
    the process that writes part i; its text is in the files once it exits.
    Part 0 goes straight into each file's temp file (see `_atomic_open`);
    each other part into a file beside it, appended in order once the body
    is done. The files are renamed over `paths` only if the body and every
    append succeed, and no part file is left behind. Two paths that name
    one file fail before any file is made."""
    real = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(paths):
        if real[i] in real[:i]:
            raise ValueError(f"{paths[real.index(real[i])]} and {path} name the same file")
    part_paths = [[_temp_path(path) for path in paths] for _ in range(1, k)]
    with contextlib.ExitStack() as outputs:
        handles = [outputs.enter_context(_atomic_open(path)) for path in paths]

        @contextlib.contextmanager
        def part(i: int):
            if i == 0:
                yield handles
                for fh in handles:  # a child forked after this holds none of its text
                    fh.flush()
                return
            with contextlib.ExitStack() as files:
                yield [files.enter_context(open(name, "x")) for name in part_paths[i - 1]]

        try:
            yield part
            for fh, names in zip(handles, zip(*part_paths)):
                for name in names:
                    with open(name, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
        finally:
            for name in itertools.chain.from_iterable(part_paths):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(name)


def write_jsonl(path, n: int, lines: Callable[[range], Iterable[str]]) -> None:
    """Write `n` records, line i + 1 holding record i's JSON text:
    `lines(rows)` yields the text (without its newline) of the records in
    `rows`, in order, and is called once for each part, in the process that
    writes it (see `_written_in_parts`)."""
    k = _n_parts(n)
    rows = [range(n * i // k, n * (i + 1) // k) for i in range(k)]
    with _written_in_parts([path], k) as part:
        def encode(i: int) -> None:
            with part(i) as (out,):
                out.writelines(line + "\n" for line in lines(rows[i]))

        _in_parts(path, encode, range(k))


def _records(ids: Sequence, fields: Sequence[Tuple[str, object]]) -> Callable[[range], Iterable[str]]:
    """`lines(rows)` for `write_jsonl`: the JSON text
    `json.dumps({"id": ids[i], name: value, ...})` of each record i in
    `rows`, made one block of about CHUNK float values at a time. A field's
    value is a JSON text (str), the same in every record, or an array:
    record i's row of a 2-D one as a list, its element of a 1-D one as a
    number."""
    parts, arrays = ['{{"id": {}'], []
    for name, value in fields:
        key = json.dumps(name).replace("{", "{{").replace("}", "}}")
        if isinstance(value, str):
            parts.append(f"{key}: " + value.replace("{", "{{").replace("}", "}}"))
        else:
            parts.append(f"{key}: [{{}}]" if value.ndim == 2 else f"{key}: {{}}")
            arrays.append(value if value.ndim == 2 else value[:, None])
    line = ", ".join(parts) + "}}"
    widths = [arr.shape[1] for arr in arrays]
    size = max(1, CHUNK // sum(widths))

    def lines(rows: range) -> Iterable[str]:
        for start in range(rows.start, rows.stop, size):
            stop = min(start + size, rows.stop)
            texts = format_rows(np.concatenate([arr[start:stop] for arr in arrays], axis=1), widths)
            for i, j in zip(range(start, stop), range(0, len(texts), len(widths))):
                yield line.format(json.dumps(ids[i]), *texts[j:j + len(widths)])

    return lines


def _write_records(path, ids: Sequence, fields: Sequence[Tuple[str, object]]) -> None:
    """Write record i as line i + 1 (see `_records`), failing before the
    file is created on no records or on ids its reader would reject."""
    if not len(ids):
        raise ValueError(f"{path}: no records to write; a file without any would not read back")
    seen = {}
    for index, pid in enumerate(ids, start=1):
        _check_new_id(seen, pid, path, index)
    write_jsonl(path, len(ids), _records(ids, fields))


def _lines(fh, end: Optional[int] = None):
    """The non-blank lines of binary file `fh`, each ending at b"\\n" (the
    last may not), from its position up to byte `end` (None: the end of
    the file). A line of ASCII whitespace (`bytes.isspace`) is blank."""
    left = math.inf if end is None else end - fh.tell()
    while left > 0:
        line = fh.readline()
        if not line:
            return
        left -= len(line)
        if not line.isspace():
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
    # the ids of the records before the first bad one, and its own if it broke only a value
    # rule (the id rule is checked first)
    ids: list
    mapped: list  # what `map_block` returned for each block of them, in order
    # (record, message) of the first bad record, or (record, a map_block ValueError)
    error: Optional[Tuple[int, object]]


def _parse_rows(lines, parse: Callable[[dict], dict], decode: Callable[[bytes], object],
                build: Callable[[dict, list], object], map_block: Callable[[object], object]) -> _Rows:
    """Decode, parse, build and map `lines`, records 1, 2, ... of a part, a
    block of ROW_CHUNK records at a time, up to the first bad record. A
    block's records are decoded and parsed up to its first bad one, the
    rows before that built together, and the result passed to `map_block`.
    A RowError of `build` is the error of its row's record; a ValueError
    of `map_block` (kept as it is) that of the block's first record."""
    count, ids, mapped = 0, [], []
    while True:
        start, columns, block_ids, error = count, {}, [], None
        for line in itertools.islice(lines, rowblocks.ROW_CHUNK):
            count += 1
            try:
                try:
                    record = decode(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"invalid JSON ({exc})") from exc
                row = parse(record)
            except (TypeError, ValueError) as exc:
                error = (count, str(exc))
                break
            for name, value in row.items():
                columns.setdefault(name, []).append(value)
            block_ids.append(record.get("id"))
        if block_ids:
            try:
                result = build({name: np.array(columns.pop(name)) for name in list(columns)}, block_ids)
            except RowError as exc:
                block_ids, error = block_ids[:exc.row + 1], (start + exc.row + 1, exc.message)
            else:
                try:
                    mapped.append(map_block(result))
                except ValueError as exc:
                    block_ids, error = [], (start + 1, exc)
        ids += block_ids
        if error or count - start < rowblocks.ROW_CHUNK:
            return _Rows(count, ids, mapped, error)


def _check_new_id(seen: dict, pid, path, index: int) -> None:
    """Remember a non-null id, or fail if it is no `_ID` or an earlier record had it."""
    try:
        _field({"id": pid}, "id", _ID, default=None)
    except ValueError as exc:
        raise DatasetError(path, index, str(exc)) from None
    if pid is not None and seen.setdefault(pid, index) != index:
        raise DatasetError(path, index, f"duplicate id {pid!r} (first in record {seen[pid]})")


_MISSING = object()
_ID = "a string, a number or null"


def _field(obj, name: str, kind: Optional[str], where: str = "", default=_MISSING):
    """Field `name` of the decoded JSON object `obj` (named by `where`, or a
    record), checked to hold `kind`; errors name its path `where + name`.
    Kinds: "a list of numbers" comes back as a float array (numpy would
    parse strings and take booleans), "a number" as a float; "an integer",
    "a boolean", "a string", "a list" and "an object" are exact JSON types
    (`True` is no integer); an `_ID` number must be finite, as JSON has no
    NaN, and may be a subclass (a writer's numpy.float64); None is any value.
    A missing field is `default` if given, and a null one is None if that is.
    """
    if type(obj) is not dict:
        raise ValueError(f"{where.rstrip('.') or 'a record'} must be an object, got {obj!r}")
    path, value = where + name, obj.get(name, default)
    if value is _MISSING:
        raise ValueError(f"missing field {path!r}")
    if (value is None and default is None) or kind is None:
        return value
    if kind == "a list of numbers":
        try:
            arr = np.asarray(value) if type(value) is list else None
        except ValueError:  # lists of different lengths
            arr = None
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
            raise ValueError(f"{path} must be a list of numbers")
        return arr.astype(float, copy=False)
    if kind == "a number" and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{path} must be a number, got an integer too large for a float") from None
    if kind == _ID:
        ok = isinstance(value, str) or (isinstance(value, (int, float)) and not isinstance(value, bool)
                                        and -math.inf < value < math.inf)
    else:  # a "number" of another type matches no entry
        ok = type(value) is {"an integer": int, "a boolean": bool, "a string": str, "a list": list,
                             "an object": dict}.get(kind)
    if not ok:
        raise ValueError(f"{path} must be {kind}, got {value!r}")
    return value


def _read_rows(path, parse: Callable[[dict], dict], build: Callable[[dict, list], object], what: str,
               decoder: Optional[Callable[[bytes], Callable[[bytes], object]]] = None, out_paths: Sequence = (),
               map_block: Callable[[object, list], object] = lambda result, handles: result) -> Tuple[list, list]:
    """Read a JSON-Lines file a block of records at a time: its records'
    ids, in order, and what `map_block` returned for each block.

    `parse(record)` checks one decoded record and returns its fields by
    name; `build(columns, ids)` makes a block's result from each field's
    stacked rows and the records' ids, and raises a RowError for a row
    that breaks a value rule; `map_block(result, handles)` takes it, with
    one text handle per path of `out_paths`, into which it may write that
    block's text (see `_written_in_parts`). Records are the non-blank lines
    (see `_lines`). Record 1 is decoded with `json.loads`, parsed, built
    and mapped alone, before the file is split, so `parse` can check the
    others against it and a `map_block` that cannot take the file fails
    before a fork. The rest of the file is read in parts (see `_in_parts`),
    each in blocks (see `_parse_rows`), each line decoded by
    `decoder(line 1)` if given, which must give what `json.loads` gives and
    raise what it raises. A part sends back only its ids, its record count,
    its mapped blocks and its first error. Every record must carry an id
    (or null) that no earlier record has. Nothing is written to
    `out_paths` unless every record is read and mapped.

    Errors name the file and the first bad record, counted over the whole
    file. Value rules name the lowest bad row of a block, so that record
    does not depend on the block size; a record that breaks one is named
    for the id rule first if it breaks that too. A ValueError of
    `map_block` is raised as it is, in the same order.
    """
    with open(path, "rb", buffering=READ_BUFFER) as fh:
        first = next(_lines(fh), None)  # fh is left right after it
        if first is None:
            raise DatasetError(path, None, f"no {what}")
        parts = _split(fh, len(first))

        @contextlib.contextmanager
        def part_lines(i: int):
            start, end = parts[i]
            if start is None:
                yield _lines(fh, end)
                return
            with open(path, "rb", buffering=READ_BUFFER) as part_fh:
                part_fh.seek(start)
                yield _lines(part_fh, end)

        with _written_in_parts(out_paths, len(parts)) as part:
            with part(0) as out:
                head = _parse_rows(iter([first]), parse, json.loads, build, lambda result: map_block(result, out))
            failure = _first_failure(path, [head])
            if failure:
                raise failure
            decode = json.loads if decoder is None else decoder(first)

            def read(i: int) -> _Rows:
                with part_lines(i) as lines, part(i) as out:
                    return _parse_rows(lines, parse, decode, build, lambda result: map_block(result, out))

            results = [head] + _in_parts(path, read, range(len(parts)))
            failure = _first_failure(path, results)
            if failure:
                raise failure
    return ([pid for rows in results for pid in rows.ids],
            [block for rows in results for block in rows.mapped])


def _first_failure(path, results: Sequence[_Rows]) -> Optional[Exception]:
    """The error of the first record of the parts `results`, in order, that
    breaks the id rule or has its part's error (None if there is none)."""
    seen, before = {}, 0
    for rows in results:
        for j, pid in enumerate(rows.ids):
            try:
                _check_new_id(seen, pid, path, before + j + 1)
            except DatasetError as exc:
                return exc
        if rows.error:
            record, error = rows.error
            return DatasetError(path, before + record, error) if isinstance(error, str) else error
        before += rows.count
    return None


def _joined(blocks: list, **fields):
    """The built blocks `blocks` (ProfileBatches or FluxSets) as one of
    their class, not checked again: each array field stacked, each block's
    array freed as it is, the other fields block 1's unless in `fields`."""
    joined = {}
    for name, value in list(vars(blocks[0]).items()):
        if isinstance(value, np.ndarray):
            value = _frozen(np.concatenate([vars(block).pop(name) for block in blocks]))
        joined[name] = value
    return _unchecked(type(blocks[0]), **{**joined, **fields})


# ---------------------------------------------------------------------------
# Profiles


def write_profiles(path, profiles: Sequence[AtmosphericProfile]) -> None:
    """Write one record per row of a ProfileBatch (a sequence of profiles
    is stacked into one first, so it must share one grid), converting a
    block of rows at a time. Repeated non-null ids fail before the file is
    created."""
    batch = ProfileBatch.from_profiles(profiles)
    # every record holds the one grid, whose text is made once
    p_hl = f"[{format_rows(batch.grid.p_hl[None])[0]}]"
    fields = [("p_hl", p_hl)] + [(name, getattr(batch, name))
                                 for name in _SCALAR_FIELDS + _LEVEL_FIELDS + ("q",)
                                 if getattr(batch, name) is not None]
    _write_records(path, batch.ids, fields)


_GRID_KEY = b'"p_hl"'
_GRID_START = b'"p_hl": ['
# Put in place of record 1's grid text: a string holding one backslash,
# which no string of a line without a backslash can decode to.
_GRID_MARK = b'"p_hl": "\\\\"'


def _grid_decoder(first: bytes, p_hl: list) -> Callable[[bytes], object]:
    """`json.loads` for the lines after line 1 of a profile file, given line 1
    and record 1's decoded `p_hl`, that matches record 1's grid text G
    instead of parsing it again.

    G runs from `"p_hl": [` to the first `]` after it in line 1. It is
    taken only where `"p_hl"` occurs once in line 1 and G's list equals
    `p_hl`, so it is one whole JSON value. A line with no backslash whose
    first `"p_hl"` is followed by G is decoded with G replaced by
    `_GRID_MARK`. Without a backslash a key is spelled as it reads, and no
    other string decodes to the mark's, so the record's `p_hl` is the mark
    only if that occurrence is its `p_hl` key and the last one: then the
    record is what `json.loads(line)` gives with `p_hl` equal to record 1's
    (identical text, identical values), and it gets `p_hl` itself. Every
    other line goes through `json.loads(line)`, its errors included.
    """
    start = first.find(_GRID_START)
    if start < 0 or first.count(_GRID_KEY) != 1:
        return json.loads
    grid = first[start:first.find(b"]", start) + 1]
    try:
        if json.loads(grid[len(_GRID_START) - 1:]) != p_hl:
            return json.loads
    except ValueError:
        return json.loads

    def decode(line: bytes):
        at = line.find(_GRID_KEY)
        if at >= 0 and line.startswith(grid, at) and b"\\" not in line:
            try:
                record = json.loads(line[:at] + _GRID_MARK + line[at + len(grid):])
            except ValueError:
                pass
            else:
                if type(record) is dict and record.get("p_hl") == "\\":
                    record["p_hl"] = p_hl
                    return record
        return json.loads(line)

    return decode


def _read_profiles(path, **mapping) -> Tuple[list, list]:
    """`_read_rows` on a profile file, its blocks built into ProfileBatches
    (see `read_profiles`) and mapped as `mapping` says."""
    grid = first_p_hl = with_q = None

    def parse(record: dict) -> dict:
        nonlocal grid, first_p_hl, with_q
        q = _field(record, "q", "a list of numbers", default=None)
        if grid is None:
            grid = VerticalGrid(_field(record, "p_hl", "a list of numbers"))
            first_p_hl, with_q = record["p_hl"], q is not None
        elif _field(record, "p_hl", None) != first_p_hl:  # any value: compared as JSON values
            raise ValueError("p_hl differs from record 1; profiles must share one grid")
        if (q is not None) != with_q:
            raise ValueError("q must be given in every record or in none")
        row = {name: _as_level_array(_field(record, name, "a list of numbers"), name, grid.n_fl)
               for name in _LEVEL_FIELDS}
        if with_q:
            row["q"] = _as_level_array(q, "q", grid.n_fl)
        row.update((name, _field(record, name, "a number")) for name in _SCALAR_FIELDS)
        return row

    return _read_rows(path, parse, lambda columns, ids: ProfileBatch(grid=grid, ids=ids, **columns), "profiles",
                      lambda first: _grid_decoder(first, first_p_hl), **mapping)


def read_profiles(path) -> ProfileBatch:
    """Read a profile file into one validated ProfileBatch.

    Records are decoded one at a time and only their arrays are kept.
    Record 1's grid text is matched in the later records, not parsed again
    (see `_grid_decoder`). Every record must have record 1's `p_hl`, give
    `q` if and only if record 1 does, and carry an id (or null) that no
    earlier record has.
    Errors name the file and the first bad record: the value rules are
    checked on each block of ROW_CHUNK records as it is read (see
    `_read_rows`), and the blocks are joined without checking them again.
    """
    ids, blocks = _read_profiles(path)
    return _joined(blocks, ids=tuple(ids))


def map_profiles(path, out_paths: Sequence, fluxes: Callable[[ProfileBatch], Sequence[FluxSet]]) -> int:
    """Write one flux file per path of `out_paths` from the profile file
    `path` and return the record count: record i of each file holds
    profile i's row of `fluxes(batch)`'s FluxSet for that file, under
    profile i's id, where `batch` is the ProfileBatch of the block of
    profiles that holds profile i.

    One pass: each part of the profile file (see `_read_rows`) reads,
    checks (as `read_profiles` does), maps and writes its records a block
    of at most ROW_CHUNK profiles at a time, so no process holds more than
    one block, whatever the file's size; record 1 is mapped alone, before
    the file is split. The bytes are those `write_fluxes` writes for the
    same rows. Errors are `read_profiles`'s, a ValueError of `fluxes` is
    raised as it is, and nothing is written unless every record is read
    and mapped.
    """
    def write(batch: ProfileBatch, handles: list) -> None:
        for fh, flux in zip(handles, fluxes(batch)):
            lines = _records(batch.ids, _flux_fields(flux))(range(len(batch.ids)))
            fh.writelines(line + "\n" for line in lines)

    return len(_read_profiles(path, out_paths=out_paths, map_block=write)[0])


# ---------------------------------------------------------------------------
# Flux records

_FLUX_FIELDS = ("up", "down", "heat", "direct_down")


def write_fluxes(path, ids: Sequence[Optional[str]], flux: FluxSet) -> None:
    """Write one record per row of `flux`, with id `ids[i]` for row i,
    converting a block of rows at a time. Repeated non-null ids fail before
    the file is created."""
    if flux.up.ndim != 2 or len(ids) != len(flux.up):
        raise ValueError(f"{path}: need (n, levels) flux rows and one id per row, got "
                         f"{len(ids)} ids for rows of shape {flux.up.shape}")
    _write_records(path, ids, _flux_fields(flux))


def _flux_fields(flux: FluxSet) -> list:
    """The record fields (see `_records`) of a FluxSet's rows."""
    return [(name, getattr(flux, name)) for name in _FLUX_FIELDS if getattr(flux, name) is not None]


def read_fluxes(path) -> Tuple[List[Optional[str]], FluxSet]:
    """Read a flux file as its ids and one FluxSet of (n, levels) rows.

    Every record must have record 1's lengths, give `direct_down` if and
    only if record 1 does, and carry an id (or null) that no earlier
    record has. Errors name the file and the first bad record.
    """
    shapes = None

    def parse(record: dict) -> dict:
        nonlocal shapes
        row = {name: _field(record, name, "a list of numbers") for name in ("up", "down", "heat")}
        if (direct := _field(record, "direct_down", "a list of numbers", default=None)) is not None:
            row["direct_down"] = direct
        shape = {name: arr.shape for name, arr in row.items()}
        if shapes is None:
            FluxSet(**row)  # record 1 sets the shapes of the file
            shapes = shape
        elif shape != shapes:
            raise ValueError(f"field shapes {shape} differ from record 1's {shapes}: a flux "
                             "file holds one grid, and direct_down in every record or in none")
        return row

    ids, blocks = _read_rows(path, parse, lambda columns, ids: FluxSet(**columns), "flux records")
    return ids, _joined(blocks)


# ---------------------------------------------------------------------------
# Model files


def _normalization_from_json(obj: dict, side: str) -> Normalization:
    where = f"normalization.{side}."
    norm = _field(_field(obj, "normalization", "an object"), side, "an object", "normalization.")
    return Normalization(*(_field(norm, stat, "a list of numbers", where) for stat in ("mean", "scale")))


def model_to_json(model: MlpModel, consts: PhysConsts) -> dict:
    """The model file's JSON object, each of its float lists as a 1-D float64 array."""
    if model.schema is None or model.norm_in is None or model.norm_out is None:
        raise ValueError("only fully-fitted models (schema + normalization) can be saved")
    schema = model.schema
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "component": schema.component,
        "schema": {name: getattr(schema, name) for name in ("component", "n_fl_window", "n_hl_window",
                   "include_humidity", "include_thickness", "input_len", "output_len", "p_hl_window")},
        "normalization": {side: {"mean": norm.mean, "scale": norm.scale}
                          for side, norm in (("in", model.norm_in), ("out", model.norm_out))},
        "layers": [{"rows": int(w.shape[0]), "cols": int(w.shape[1]), "w_rowmajor": w.ravel(), "b": b}
                   for w, b in zip(model.weights, model.biases)],
        "training": dict(model.meta),
        "constants": {"g": consts.g, "c_p": consts.c_p, "rho_l": consts.rho_l,
                      "rho_i": consts.rho_i, "p_trunc": consts.p_trunc},
    }


def model_from_json(obj: dict, path="<model>") -> Tuple[MlpModel, PhysConsts]:
    if not isinstance(obj, dict):
        raise DatasetError(path, None, f"bad model file: the top-level value is a "
                                       f"{type(obj).__name__}, not an object")
    try:
        version = obj.get("format_version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        s = _field(obj, "schema", "an object")
        fields = dict(component=_field(s, "component", "a string", "schema."),
                      p_hl_window=_field(s, "p_hl_window", "a list of numbers", "schema."),
                      include_humidity=_field(s, "include_humidity", "a boolean", "schema.", False),
                      include_thickness=_field(s, "include_thickness", "a boolean", "schema.", False))
        try:
            schema = FeatureSchema(**fields)
        except ValueError as exc:  # its messages begin with the field they are about
            raise ValueError(f"schema.{exc}") from None
        # fields the schema repeats or derives, written for the file's readers: each must agree with it
        for container, where, name, kind, want in (
                (obj, "", "component", "a string", schema.component),
                *((s, "schema.", name, "an integer", getattr(schema, name))
                  for name in ("n_fl_window", "n_hl_window", "input_len", "output_len"))):
            got = _field(container, name, kind, where)
            if got != want:
                raise ValueError(f"{where}{name} is {got!r}, but the schema built from the file has {want!r}")
        weights, biases = [], []
        for k, layer in enumerate(_field(obj, "layers", "a list")):
            where = f"layers[{k}]."
            rows, cols = (_field(layer, name, "an integer", where) for name in ("rows", "cols"))
            for name, value in (("rows", rows), ("cols", cols)):
                if value < 1:
                    raise ValueError(f"{where}{name} must be at least 1, got {value}")
            w = _field(layer, "w_rowmajor", "a list of numbers", where)
            if rows * cols != w.size:
                raise ValueError(f"{where}rows * {where}cols is {rows * cols}, "
                                 f"but {where}w_rowmajor holds {w.size} numbers")
            weights.append(w.reshape(rows, cols))
            biases.append(_field(layer, "b", "a list of numbers", where))
        norm_in, norm_out = (_normalization_from_json(obj, side) for side in ("in", "out"))
        model = MlpModel(weights=weights, biases=biases, schema=schema, norm_in=norm_in, norm_out=norm_out,
                         meta=dict(_field(obj, "training", "an object", default={})))
        for what, width, want in (("first layer input", model.input_len, schema.input_len),
                                  ("norm_in", model.norm_in.mean.size, schema.input_len),
                                  ("last layer output", model.output_len, schema.output_len),
                                  ("norm_out", model.norm_out.mean.size, schema.output_len)):
            if width != want:
                raise ValueError(f"{what} has width {width}, but the schema's is {want}")
        c = _field(obj, "constants", "an object")
        consts = PhysConsts(**{name: _field(c, name, "a number", "constants.")
                               for name in ("g", "c_p", "rho_l", "rho_i", "p_trunc")})
        return model, consts
    except ValueError as exc:
        raise DatasetError(path, None, f"bad model file: {exc}") from exc


def _dumps(obj) -> str:
    """`json.dumps(obj)` of a JSON value whose float lists may be 1-D float64 arrays."""
    if isinstance(obj, np.ndarray):
        return f"[{format_rows(obj[None])[0]}]"
    if isinstance(obj, list):
        return f"[{', '.join(map(_dumps, obj))}]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dumps(value)}" for key, value in obj.items()) + "}"
    return json.dumps(obj)


def save_model(path, model: MlpModel, consts: PhysConsts) -> None:
    atomic_write_text(path, _dumps(model_to_json(model, consts)))


def load_model(path) -> Tuple[MlpModel, PhysConsts]:
    with open(path, "rb") as fh:
        try:
            obj = json.loads(fh.read())
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise DatasetError(path, None, f"invalid JSON ({exc})") from exc
    return model_from_json(obj, path)
