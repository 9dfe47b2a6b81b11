"""Deterministic artifact writing: atomic replace, locale-free CSV, sorted JSON.

Payloads arrive as arrays and are rendered in bulk with float.__repr__.
write_csv takes a header and column blocks: a 1-D array or a sequence is one
column, a 2-D array several, and a complex block gives a re, im pair per
column; non-float blocks follow format_cell cell by cell.  write_json takes a
tree whose numeric blocks stay ndarrays (a complex one gains a trailing
[re, im] axis) and writes json.dumps(tree, indent=2, sort_keys=True) + "\\n"
of the .tolist() tree, byte for byte.

A Hermitian block (see _is_hermitian) renders each entry above the diagonal
once: its mirror below reuses the real text and the sign-flipped imaginary
text, since repr(-x) is repr(x) with its sign flipped for every finite x.
That changes no byte of the output.

Importable without numpy, so the CLI can pin thread pools before any numeric
library loads; the array helpers import numpy lazily.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

from .errors import ConfigError

# json's spelling of the non-finite floats that float.__repr__ writes
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.write(text)
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
    """A complex array as floats with a trailing [re, im] axis; others unchanged."""
    if a.dtype.kind != "c":
        return a
    import numpy as np

    return np.stack([a.real, a.imag], axis=-1)


def _is_hermitian(a) -> bool:
    """Whether a is a finite square complex128 2-D array equal to its conjugate
    transpose bit for bit: the real parts equal as uint64 and, off the
    diagonal, the imaginary parts differing in the sign bit alone."""
    if a.ndim != 2 or a.dtype != "complex128" or a.shape[0] != a.shape[1]:
        return False
    import numpy as np

    if not np.isfinite(a).all():  # repr ignores the sign of a nan
        return False
    bits = np.ascontiguousarray(a).view(np.uint64)
    re, im = bits[:, 0::2], bits[:, 1::2]
    flips = im ^ im.T
    np.fill_diagonal(flips, 1 << 63)
    return bool((re == re.T).all() and (flips == 1 << 63).all())


def _hermitian_rows(a):
    """The float texts (re, im per entry) of a Hermitian block a row at a time.
    Each column's mirrored texts wait in a list released with its row."""
    import numpy as np

    f = np.ascontiguousarray(a).view(float)
    waiting = [[] for _ in range(len(f))]
    for i, row in enumerate(waiting):
        texts = list(map(float.__repr__, f[i, 2 * i:].tolist()))  # diagonal and upper
        flipped = [s[1:] if s[0] == "-" else "-" + s for s in texts[3::2]]
        for mirror, re, im in zip(waiting[i + 1:], texts[2::2], flipped):
            mirror.append(re)
            mirror.append(im)
        waiting[i] = None
        row += texts
        yield row


def _fragments(block) -> tuple[int, list]:
    """(column count, one comma-joined CSV fragment per row) of one block."""
    if not hasattr(block, "dtype"):
        return 1, [format_cell(v) for v in block]
    if _is_hermitian(block):
        return 2 * len(block), list(map(",".join, _hermitian_rows(block)))
    a = _as_real(block)
    cell = float.__repr__ if a.dtype.kind == "f" else format_cell
    if a.ndim == 1:
        return 1, list(map(cell, a.tolist()))
    a = a.reshape(a.shape[0], math.prod(a.shape[1:]))
    return a.shape[1], [",".join(map(cell, row.tolist())) for row in a]  # a row at a time


def csv_text(header, blocks) -> str:
    widths, columns = zip(*map(_fragments, blocks))
    if sum(widths) != len(header):
        raise ConfigError(f"CSV blocks have {sum(widths)} columns, header has {len(header)}")
    if len(set(map(len, columns))) > 1:
        raise ConfigError("CSV blocks differ in row count")
    rows = columns[0] if len(columns) == 1 else map(",".join, zip(*columns))
    return "\n".join([",".join(header), *rows]) + "\n"


def write_csv(path: str, header, blocks) -> None:
    atomic_write_text(path, csv_text(header, blocks))


def _array_json(a, nl: str) -> str:
    """An ndarray or numpy scalar as json.dumps(indent=2) lays out its
    .tolist(), with nl the line break and indent of the array's own line."""
    import numpy as np

    a = np.asarray(a)
    shape = (*a.shape, 2) if a.dtype.kind == "c" else a.shape  # complex as [re, im]
    if _is_hermitian(a):
        items = [s for row in _hermitian_rows(a) for s in row]
    elif a.dtype.kind in "fc":
        items = list(map(float.__repr__, _as_real(a).ravel().tolist()))
        if not np.isfinite(a).all():
            items = [_NONFINITE.get(s, s) for s in items]
    else:
        items = list(map(json.dumps, a.ravel().tolist()))
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


# what json.dumps writes for a numeric block until the block is rendered
_MARK = "\0cohspace-array\0"


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", with each numpy
    value (json.dumps cannot encode it) rendered by _array_json in place."""
    blocks = []

    def stash(value):
        blocks.append(value)
        return _MARK

    pieces = json.dumps(obj, indent=2, sort_keys=True, default=stash).split(json.dumps(_MARK))
    if len(pieces) != len(blocks) + 1:
        raise ConfigError(f"JSON strings may not equal {_MARK!r}")
    out = [pieces[0]]
    for block, piece in zip(blocks, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]  # the block's own line
        out += [_array_json(block, "\n" + " " * (len(line) - len(line.lstrip(" ")))), piece]
    return "".join(out) + "\n"


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_text(obj))


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
