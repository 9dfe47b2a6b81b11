"""Deterministic artifact writing: atomic replace, locale-free CSV, sorted JSON.

Payloads arrive as arrays, and their floats are written as float.__repr__
writes them.  write_csv takes a header and column blocks: a 1-D array or a
sequence is one column, a 2-D array several, and a complex block gives a re,
im pair per column; non-float blocks follow format_cell cell by cell.
write_json takes a tree whose numeric blocks stay ndarrays (a complex one
gains a trailing [re, im] axis) and writes json.dumps(tree, indent=2,
sort_keys=True) + "\\n" of the .tolist() tree, byte for byte.

Both writers stream: csv_chunks and json_chunks check the payload (block
widths and row counts; the JSON skeleton, with a marker for each numeric
block) before the temp file exists, then render a chunk of first-axis rows at
a time into it.  At peak, memory holds one chunk's text (see below), never the
payload's, and a render that fails midway leaves the target file as it was.
Each chunk is encoded once, as UTF-8, and its bytes go both to the file and
to one sha256, so the writers return the payload's digest without reading
the file back.

Every float block goes through one bulk renderer, _chunk_texts: one orjson
call per chunk of about 4,096 values.  orjson's Ryu shortest round-trip
digits (Adams 2018) are the digits repr takes from Gay's dtoa, laid out as
repr lays them out for 0 and 1e-4 <= |x| < 1e16.  Every other entry is found
with one vectorized mask per chunk, set to nan in a copy so that orjson
writes null there, and spliced in: below 1e-4 orjson's own digits relaid by
string replacements, one group per exponent class and, in 1e-5 <= |x| <
1e-4, per leading digit (see _BOUNDS), and repr's text (json.dumps's NaN,
Infinity and -Infinity in JSON) for the rest.  A CSV row is the compact text
of a chunk split at "],[".  A JSON block is laid out by orjson's
OPT_INDENT_2, which is json.dumps(indent=2)'s layout: a block whose line is
indented k levels has each chunk dumped inside k one-item lists, so that its
rows come out at their final indent, and the chunk's text loses the
wrappers' lines and its own brackets.  The skeleton around the blocks
is orjson's OPT_INDENT_2 text too, of a tree built in one pass (_skeleton):
dicts in json.dumps's sorted order, and a marker for each block and for each
value that orjson spells otherwise, which is spliced back in json.dumps's
spelling.  A list nest with every leaf at one depth and every leaf a plain
float or int that orjson spells as json.dumps does (a config's label list,
most often) enters the tree whole, after one type scan per level and one
mask over its leaves; any other list is walked item by item.

Each file is written to .tmp-<pid>-<n>~ in the target directory, opened by
one os.open (O_EXCL, mode 0o600; n counts per process, and a taken name
moves on to the next n), and renamed into place; the directory is made only
when that open finds it missing.

Importable without numpy or orjson, so the CLI can pin thread pools before
any numeric library loads; the array helpers import both lazily.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re

from .errors import ConfigError

# the n of the temp files .tmp-<pid>-<n>~, one count per process
_TEMP_COUNT = itertools.count()
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def _open_temp(directory: str) -> tuple:
    """(fd, path) of a new file .tmp-<pid>-<n>~ in directory, mode 0o600,
    opened by one os.open; a taken name moves on to the next n, and a
    missing directory is made, with its parents, once."""
    made = False
    while True:
        tmp = os.path.join(directory, f".tmp-{os.getpid()}-{next(_TEMP_COUNT)}~")
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o600), tmp
        except FileExistsError:
            pass
        except FileNotFoundError:
            if made:
                raise
            os.makedirs(directory, exist_ok=True)
            made = True


def atomic_write_text(path: str, chunks) -> str:
    """Write the strings of chunks, UTF-8 encoded, via a temp file in the
    target directory, then rename it into place; return the sha256 hex
    digest of the bytes written, hashed as each chunk is written."""
    fd, tmp = _open_temp(os.path.dirname(os.path.abspath(path)))
    digest = hashlib.sha256()
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                data = chunk.encode()
                digest.update(data)
                f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest.hexdigest()


def format_cell(value) -> str:
    """One CSV cell; floats as repr (shortest round-trip, '.' decimal, no locale)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return format_cell(value.item())
    raise ConfigError(f"cannot format a {type(value).__name__} into a CSV cell")


def _as_real(a):
    """A complex array as floats with a trailing [re, im] axis, a view when it
    is C-contiguous complex128 with axes; others unchanged."""
    if a.dtype.kind != "c":
        return a
    import numpy as np

    if a.ndim and a.dtype == np.complex128 and a.flags.c_contiguous:
        return a.view(float).reshape(*a.shape, 2)
    return np.stack([a.real, a.imag], axis=-1)


# values per orjson call in _chunk_texts
_CHUNK = 4096

# orjson's layouts below 1e-4 made repr's.  _spliced sorts the entries by
# size and cuts them at _BOUNDS; the texts of each class, each ending in a
# comma, take its replacements: none below 1e-9 (exponents of 2 or 3 digits,
# as repr's), a one-digit exponent padded from 1e-9 (1e-6 -> 1e-06), and
# 0.0000dxx -> d.xxe-05 from 1e-5, one class per leading digit d.  Comparing
# a float with a bound d * 10^k sorts it exactly by the exponent and leading
# digit of its shortest digits, since the float nearest d * 10^k prints as
# de<k>.
_BOUNDS = [1e-9, 1e-5, 2e-5, 3e-5, 4e-5, 5e-5, 6e-5, 7e-5, 8e-5, 9e-5, 1e-4]
_FIXES = ([], [("e-", "e-0")],
          *([("0.0000" + d, d + "."), (",", "e-05,"), (".e", "e")] for d in "123456789"))


def _spliced(text: str, v, spell) -> str:
    """text with its k-th "null" replaced by the text of v[k]: orjson's digits
    relaid as repr's below 1e-4, spell's (float.__repr__ or json.dumps) for
    |x| >= 1e16, nan and inf."""
    import numpy as np
    import orjson

    size = np.abs(v)
    order = size.argsort()  # nan last
    v = v[order]
    texts, start = [], 0
    for end, fixes in zip(size[order].searchsorted(_BOUNDS).tolist(), _FIXES):
        if end > start:  # one orjson call per class
            s = orjson.dumps(v[start:end], option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1] + ","
            for old, new in fixes:
                s = s.replace(old, new)
            texts += s.split(",")[:-1]
        start = end
    texts += map(spell, v[start:].tolist())
    parts = np.empty(2 * len(v) + 1, dtype=object)
    parts[::2] = text.split("null")
    parts[1::2][order] = texts
    return "".join(parts.tolist())


def _chunk_texts(f, option: int, spell, depth: int = 0):
    """orjson's text, with option, of each chunk of about _CHUNK values (at
    least one first-axis row) of the float array f, widened to float64, the
    chunk wrapped in depth one-item lists.  orjson's Ryu digits are repr's,
    and its layout is too for 0 and 1e-4 <= |x| < 1e16; every other entry
    (tiny, huge, nan, inf) is written as null by orjson and spliced in by
    _spliced, in spell's spelling (float.__repr__ or json.dumps)."""
    import numpy as np
    import orjson

    step = max(1, _CHUNK // max(1, math.prod(f.shape[1:])))
    for start in range(0, len(f), step):
        chunk = np.ascontiguousarray(f[start:start + step], dtype=np.float64)
        size = np.abs(chunk)
        other = ~((size >= 1e-4) & (size < 1e16) | (chunk == 0))  # one mask per chunk
        spliced = other.any()
        dumped = np.where(other, np.nan, chunk) if spliced else chunk  # orjson: nan -> null
        for _ in range(depth):
            dumped = [dumped]
        text = orjson.dumps(dumped, option=option | orjson.OPT_SERIALIZE_NUMPY).decode()
        yield _spliced(text, chunk[other], spell) if spliced else text


def _row_texts(f, spell=float.__repr__):
    """",".join(map(spell, row.tolist())) of each row of the 2-D float array
    f, byte for byte, where spell is float.__repr__ or json.dumps: the
    compact text of each chunk, split into rows."""
    for text in _chunk_texts(f, 0, spell):
        yield from text[2:-2].split("],[")


def _fragments(block) -> tuple:
    """(column count, the comma-joined CSV fragment of each row, rendered as
    it is drawn) of one block."""
    if not hasattr(block, "dtype"):
        return 1, map(format_cell, block)
    a = _as_real(block)
    a = a.reshape(a.shape[0], math.prod(a.shape[1:]))  # a 1-D block as one column
    if a.dtype.kind == "f":
        return a.shape[1], _row_texts(a)
    return a.shape[1], (",".join(map(format_cell, row.tolist())) for row in a)


def csv_chunks(header, blocks):
    """The CSV's lines, header first, each rendered as it is drawn; the
    blocks' widths and row counts are checked before any is."""
    widths, columns = zip(*map(_fragments, blocks))
    if sum(widths) != len(header):
        raise ConfigError(f"CSV blocks have {sum(widths)} columns, header has {len(header)}")
    if len(set(map(len, blocks))) > 1:
        raise ConfigError("CSV blocks differ in row count")
    rows = columns[0] if len(columns) == 1 else map(",".join, zip(*columns))
    return (line + "\n" for line in itertools.chain([",".join(header)], rows))


def write_csv(path: str, header, blocks) -> str:
    """Write the CSV of csv_chunks; return the file's sha256 hex digest."""
    return atomic_write_text(path, csv_chunks(header, blocks))


def _array_chunks(a, depth: int):
    """An ndarray laid out as json.dumps(indent=2) lays out its .tolist()
    (complex as [re, im]) on a line indented by depth levels; a float block
    one _chunk_texts chunk at a time, each dumped inside depth lists, so that
    orjson's OPT_INDENT_2 writes its rows at their final indent."""
    import orjson

    f = _as_real(a)
    nl = "\n" + "  " * depth
    if f.dtype.kind != "f":
        yield json.dumps(f.tolist(), indent=2).replace("\n", nl)
        return
    # the text opens with the wrappers' lines "[\n", "  [\n", ... and the
    # chunk's own indented "[" (head characters) and closes with the same
    # brackets mirrored, each on its own line (head + 1): the rest is the rows
    head = depth * depth + 3 * depth + 1
    sep = "["
    for text in _chunk_texts(f, orjson.OPT_INDENT_2, json.dumps, depth):
        yield sep + text[head:-head - 1]
        sep = ","
    yield "[]" if sep == "[" else nl + "]"


# the marker of a value the skeleton leaves out (numbered), and orjson's text of it
_MARK = "\0cohspace-array\0"
_MARKED = re.compile(r'"\\u0000cohspace-array\\u0000\d+"')


def _mark(parts: list, part) -> str:
    parts.append(part)
    return _MARK + str(len(parts))


def _plain_nest(v: list) -> bool:
    """Whether v is a nest of lists, every leaf at one depth of at least two,
    whose leaves orjson spells as json.dumps does: plain floats and ints, each
    0 or 1e-4 <= |x| < 1e16 (so an int is within int64).  One type scan per
    level and one mask over the leaves; the scan stops at orjson's 255
    levels, so a list that holds itself is not plain."""
    level, depth = v, 0
    while (types := {*map(type, level)}) == {list} and depth < 255:
        level = [*itertools.chain.from_iterable(level)]
        depth += 1
    if not depth or not types <= {float, int}:
        return False
    import numpy as np

    try:
        a = np.array(level, dtype=float)
    except OverflowError:  # an int beyond the float range
        return False
    size = np.abs(a)
    return bool(((size >= 1e-4) & (size < 1e16) | (a == 0)).all())


def _skeleton(v, parts: list, whole: bool = True):
    """v as a tree whose orjson OPT_INDENT_2 text is json.dumps(v, indent=2,
    sort_keys=True)'s, with a numbered marker for each numeric block and each
    value orjson spells otherwise (floats outside 0 and 1e-4 <= |x| < 1e16,
    ints outside int64, strings not printable ASCII, non-str keys,
    subclasses); parts gets each marker's block or json.dumps text in order.
    A plain nest (_plain_nest) is taken as it is, in one piece, unless it
    lies in a list that was not one (whole False): that is walked."""
    t = type(v)
    if t is float:
        if 1e-4 <= abs(v) < 1e16 or v == 0:
            return v
    elif t is int:
        if -1 << 63 <= v < 1 << 63:
            return v
    elif t is str:
        if v.isascii() and v.isprintable():
            return v
        if v == _MARK:
            raise ConfigError(f"JSON strings may not equal {_MARK!r}")
    elif isinstance(v, (list, tuple)):  # plain floats and ints inline: most leaves
        if whole and t is list and _plain_nest(v):
            return v
        return [x if type(x) is float and (1e-4 <= abs(x) < 1e16 or x == 0)
                or type(x) is int and -1 << 63 <= x < 1 << 63 else _skeleton(x, parts, False)
                for x in v]
    elif isinstance(v, dict):  # each key before its value; json's text of a key, or its TypeError
        return {key if type(key) is str and key.isascii() and key.isprintable()
                else _mark(parts, json.dumps({key: 0})[1:-4]): _skeleton(x, parts)
                for key, x in sorted(v.items())}
    elif v is None or t is bool:
        return v
    elif hasattr(v, "dtype"):  # an ndarray block, or a numpy scalar as its .tolist()
        return _skeleton(_as_real(v).tolist(), parts) if v.shape == () else _mark(parts, v)
    return _mark(parts, json.dumps(v))  # or json's own TypeError


def json_chunks(obj):
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n" in pieces: orjson's
    text of the skeleton, split at its markers, each replaced by its text or
    by its block's _array_chunks; all but the blocks is done up front."""
    import orjson

    parts = []
    pieces = _MARKED.split(orjson.dumps(_skeleton(obj, parts), option=orjson.OPT_INDENT_2).decode())

    def chunks():
        line = ""  # from the last line break on: a block takes this line's indent
        for piece, part in zip(pieces, parts):
            yield piece
            line = piece[piece.rfind("\n") + 1:] if "\n" in piece else line
            yield from ((part,) if type(part) is str else
                        _array_chunks(part, (len(line) - len(line.lstrip(" "))) // 2))
        yield pieces[-1] + "\n"

    return chunks()


def write_json(path: str, obj) -> str:
    """Write the JSON of json_chunks; return the file's sha256 hex digest."""
    return atomic_write_text(path, json_chunks(obj))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()

