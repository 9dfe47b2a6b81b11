"""Deterministic artifact writing: atomic replace, locale-free CSV, sorted JSON.

Payloads arrive as arrays and are rendered with float.__repr__.  write_csv
takes a header and column blocks: a 1-D array or a sequence is one column, a
2-D array several, and a complex block gives a re, im pair per column;
non-float blocks follow format_cell cell by cell.  write_json takes a tree
whose numeric blocks stay ndarrays (a complex one gains a trailing [re, im]
axis) and writes json.dumps(tree, indent=2, sort_keys=True) + "\\n" of the
.tolist() tree, byte for byte.

Both writers stream: csv_chunks and json_chunks check the payload (block
widths and row counts; the json.dumps skeleton, with a marker for each numeric
block) before the temp file exists, then render one CSV row or one first-axis
row of a JSON array block at a time into it.  At peak, memory holds one row's
text plus the Hermitian mirror's waiting texts, never the payload's, and a
render that fails midway leaves the target file as it was.

A Hermitian block (see _is_hermitian) renders each entry above the diagonal
once: its mirror below reuses the real text and the sign-flipped imaginary
text, since repr(-x) is repr(x) with its sign flipped for every finite x.
Each mirrored entry waits for its row as one string, its two CSV cells or its
laid-out JSON [re, im] pair.  That changes no byte of the output.

Importable without numpy, so the CLI can pin thread pools before any numeric
library loads; the array helpers import numpy lazily.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile

from .errors import ConfigError


def atomic_write_text(path: str, chunks) -> None:
    """Write the strings of chunks via a temp file in the target directory,
    then rename it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def _is_hermitian(a) -> bool:
    """Whether a is a finite square complex128 2-D array equal to its conjugate
    transpose bit for bit: the real parts equal as uint64 and, off the
    diagonal, the imaginary parts differing in the sign bit alone.  Real parts
    go first: a mismatch there returns before an n x n integer array exists."""
    if a.ndim != 2 or a.dtype != "complex128" or a.shape[0] != a.shape[1]:
        return False
    import numpy as np

    if not np.isfinite(a).all():  # repr ignores the sign of a nan
        return False
    bits = np.ascontiguousarray(a).view(np.uint64)
    re, im = bits[:, 0::2], bits[:, 1::2]
    if not (re == re.T).all():
        return False
    flips = im ^ im.T
    np.fill_diagonal(flips, 1 << 63)
    return bool((flips == 1 << 63).all())


def _hermitian_rows(a, open_="", sep=",", close=""):
    """The entry texts of a Hermitian block a row at a time, each entry one
    string f"{open_}{re}{sep}{im}{close}"; with the CSV default a row's own
    entries (diagonal and upper) stay two cells each.  Each column's mirrored
    entries wait in a list, released with its row."""
    import numpy as np

    f = np.ascontiguousarray(a).view(float)
    waiting = [[] for _ in range(len(f))]
    for i, row in enumerate(waiting):
        texts = list(map(float.__repr__, f[i, 2 * i:].tolist()))  # diagonal and upper
        flipped = [s[1:] if s[0] == "-" else "-" + s for s in texts[3::2]]
        for mirror, re, im in zip(waiting[i + 1:], texts[2::2], flipped):
            mirror.append(f"{open_}{re}{sep}{im}{close}")
        waiting[i] = None
        if open_:
            texts = [f"{open_}{re}{sep}{im}{close}" for re, im in zip(texts[::2], texts[1::2])]
        row += texts
        yield row


def _fragments(block) -> tuple:
    """(column count, the comma-joined CSV fragment of each row, rendered as
    it is drawn) of one block."""
    if not hasattr(block, "dtype"):
        return 1, map(format_cell, block)
    if _is_hermitian(block):
        return 2 * len(block), map(",".join, _hermitian_rows(block))
    a = _as_real(block)
    cell = float.__repr__ if a.dtype.kind == "f" else format_cell
    if a.ndim == 1:
        return 1, map(cell, a.tolist())
    a = a.reshape(a.shape[0], math.prod(a.shape[1:]))
    return a.shape[1], (",".join(map(cell, row.tolist())) for row in a)


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


def write_csv(path: str, header, blocks) -> None:
    atomic_write_text(path, csv_chunks(header, blocks))


def _layout(items, shape, nl: str) -> str:
    """The texts items of an array of the given shape (complex as [re, im])
    laid out as json.dumps(indent=2) lays out its .tolist(), with nl the line
    break and indent of the array's own line."""
    for depth in range(len(shape) - 1, -1, -1):  # innermost axis first
        n = shape[depth]
        if n == 0:
            items = ["[]"] * math.prod(shape[:depth])
            continue
        inner = nl + "  " * (depth + 1)
        open_, close = "[" + inner, nl + "  " * depth + "]"
        groups = map(("," + inner).join, zip(*[iter(items)] * n))  # runs of n items
        items = [open_ + group + close for group in groups]
    return items[0]


def _array_chunks(a, nl: str):
    """_layout of an ndarray, one first-axis row at a time."""
    import numpy as np

    shape = (*a.shape, 2) if a.dtype.kind == "c" else a.shape  # complex as [re, im]
    inner = nl + "  "
    if _is_hermitian(a):  # its rows hold laid-out [re, im] pairs
        rows = _hermitian_rows(a, "[" + inner + "    ", "," + inner + "    ", inner + "  ]")
        shape = shape[1:-1]
    else:  # json.dumps writes a float as float.__repr__ does, bar nan and inf
        f = _as_real(a)
        cell = float.__repr__ if f.dtype.kind == "f" and np.isfinite(f).all() else json.dumps
        rows = (list(map(cell, row.tolist())) for row in f.reshape(len(f), math.prod(f.shape[1:])))
        shape = shape[1:]
    sep = "["
    for row in rows:
        yield sep + inner + _layout(row, shape, inner)
        sep = ","
    yield "[]" if sep == "[" else nl + "]"


# what json.dumps writes for a numeric block until the block is rendered
_MARK = "\0cohspace-array\0"


def json_chunks(obj):
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n" in pieces, with each
    numpy value (json.dumps cannot encode it) rendered by _array_chunks in
    place; the skeleton is dumped and split before any block is rendered."""
    blocks = []

    def stash(value):
        if not hasattr(value, "dtype"):
            return json.JSONEncoder().default(value)  # raises json's own TypeError
        if value.shape == ():  # a numpy scalar, laid out by json.dumps
            return _as_real(value).tolist()
        blocks.append(value)
        return _MARK

    pieces = json.dumps(obj, indent=2, sort_keys=True, default=stash).split(json.dumps(_MARK))
    if len(pieces) != len(blocks) + 1:
        raise ConfigError(f"JSON strings may not equal {_MARK!r}")

    def chunks():
        yield pieces[0]
        for block, before, after in zip(blocks, pieces, pieces[1:]):
            line = before[before.rfind("\n") + 1:]  # the block's own line
            yield from _array_chunks(block, "\n" + " " * (len(line) - len(line.lstrip(" "))))
            yield after
        yield "\n"

    return chunks()


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_chunks(obj))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def pairs_to_complex(data):
    """Nested [re, im] pairs -> complex ndarray (last axis must have length 2)."""
    import numpy as np

    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"complex data must be nested [re, im] pairs: {exc}") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ConfigError("complex data must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]
