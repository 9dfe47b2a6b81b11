"""The array writers in cohspace.io against the row-by-row oracles they replace.

The JSON oracle is ``json.dumps(tree, indent=2, sort_keys=True) + "\\n"`` of
the ``.tolist()`` tree (complex blocks as trailing [re, im] pairs); the CSV
oracle joins ``format_cell`` over rows assembled cell by cell.  Both are
written here from plain Python values, and the writers must match them
exactly: the chunks they stream, joined, string for string, and the file
they write, byte for byte.
"""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohspace.errors import ConfigError
from cohspace.io import (_is_hermitian, csv_chunks, format_cell, json_chunks, write_csv,
                         write_json)

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
           1e-300, 1.7976931348623157e308, 0.1, -1.5, 1e16, 123456789.0]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from(SPECIAL)
complexes = st.builds(complex, floats, floats)
ints = st.integers(-2**62, 2**62)
keys = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "é", " ", "a\x00b", "B", "a"])
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)

arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.complex128, shapes, elements=complexes),
    hnp.arrays(np.int64, shapes, elements=ints),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, st.text(max_size=4),
                    st.builds(np.float64, floats), st.builds(np.int64, ints))
trees = st.recursive(
    arrays | scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=8,
)


def plain(obj):
    """The .tolist() tree json.dumps understands; complex as [re, im] pairs."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        if np.iscomplexobj(obj):
            return np.stack([np.real(obj), np.imag(obj)], axis=-1).tolist()
        return obj.tolist()
    return obj


def json_oracle(tree):
    return json.dumps(plain(tree), indent=2, sort_keys=True) + "\n"


def text(chunks):
    """The text of a chunk stream, each chunk a str."""
    chunks = list(chunks)
    assert all(type(chunk) is str for chunk in chunks)
    return "".join(chunks)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("payloads")


def assert_json_routes(folder, tree, expected):
    """json_chunks joins to expected, and write_json writes it."""
    assert text(json_chunks(tree)) == expected
    write_json(str(folder / "p.json"), tree)
    assert (folder / "p.json").read_bytes() == expected.encode()


def assert_csv_routes(folder, header, blocks, expected):
    """csv_chunks joins to expected, and write_csv writes it."""
    assert text(csv_chunks(header, blocks)) == expected
    write_csv(str(folder / "p.csv"), header, blocks)
    assert (folder / "p.csv").read_bytes() == expected.encode()


@given(trees)
@example({"a": np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324])})
@example({"empty": np.zeros((0,)), "one": np.array([1.5]), "nested": np.zeros((2, 0, 3))})
@example({"z": np.array([[1 - 0.0j, complex(math.nan, -math.inf)]]), "s": np.complex128(2j)})
@example({"n": np.arange(3), "b": np.array([True, False]), "x": np.float64(-0.0)})
@example({"b": {"\"q\\": [], "B": {}, "a": [np.zeros((1, 1)), None]}, "A": ()})
def test_json_text_matches_json_dumps(folder, tree):
    assert_json_routes(folder, tree, json_oracle(tree))


@st.composite
def csv_tables(draw):
    """(header, blocks, rows): column blocks and the same table as Python rows."""
    n = draw(st.integers(0, 4))
    blocks, columns, width = [], [], 0  # columns: per block, the cells of each row
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["f1", "f2", "c1", "c2", "i1", "b1", "list"]))
        if kind == "list":
            cells = draw(st.lists(st.sampled_from(["discrete", "continuous", ""]) | floats | ints,
                                  min_size=n, max_size=n))
            blocks.append(cells)
            columns.append([[c] for c in cells])
            width += 1
            continue
        dtype, elements = {"f": (np.float64, floats), "c": (np.complex128, complexes),
                           "i": (np.int64, ints), "b": (np.bool_, st.booleans())}[kind[0]]
        shape = (n,) if kind[1] == "1" else (n, draw(st.integers(1, 3)))
        a = draw(hnp.arrays(dtype, shape, elements=elements))
        rows = [r if isinstance(r, list) else [r] for r in a.tolist()]
        if kind[0] == "c":
            rows = [[part for z in r for part in (z.real, z.imag)] for r in rows]
        blocks.append(a)
        columns.append(rows)
        width += (2 if kind[0] == "c" else 1) * (shape[1] if len(shape) == 2 else 1)
    rows = [sum((col[i] for col in columns), []) for i in range(n)]
    return [f"h{j}" for j in range(width)], blocks, rows


def csv_oracle(header, rows):
    lines = [",".join(header)]
    lines += [",".join(format_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@given(csv_tables())
def test_csv_text_matches_format_cell_rows(folder, table):
    header, blocks, rows = table
    assert_csv_routes(folder, header, blocks, csv_oracle(header, rows))


def test_csv_text_special_values_and_mixed_columns():
    g = np.array([[complex(-0.0, math.nan), complex(math.inf, 5e-324)]])
    header = ["kind", "k0_re", "k0_im", "k1_re", "k1_im", "i", "ok"]
    rendered = text(csv_chunks(header, [["x"], g, np.array([7]), np.array([True])]))
    assert rendered == ",".join(header) + "\nx,-0.0,nan,inf,5e-324,7,true\n"
    assert text(csv_chunks(["a", "b"], [np.zeros((0, 2))])) == "a,b\n"


def test_csv_text_rejects_ragged_blocks():
    with pytest.raises(ConfigError, match="header has 3"):
        csv_chunks(["a", "b", "c"], [np.zeros((2, 2))])
    with pytest.raises(ConfigError, match="row count"):
        csv_chunks(["a", "b"], [np.zeros(2), np.zeros(3)])


def test_json_text_rejects_what_it_cannot_render():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json_chunks({"a": {1, 2}})
    with pytest.raises(ConfigError, match="may not equal"):
        json_chunks({"a": np.zeros(2), "b": "\0cohspace-array\0"})


def test_writers_write_the_rendered_text(tmp_path):
    tree = {"m": np.eye(2) * (1 + 1j), "t": 0.5}
    write_json(str(tmp_path / "p.json"), tree)
    assert (tmp_path / "p.json").read_text() == json_oracle(tree)
    write_csv(str(tmp_path / "p.csv"), ["t", "x"], [np.array([0.5]), [1]])
    assert (tmp_path / "p.csv").read_text() == "t,x\n0.5,1\n"


# Hermitian blocks: each entry above the diagonal is rendered once, its
# mirror below reuses the texts; both writers must still match the oracles.
finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) \
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1e308])
square = hnp.arrays(np.complex128, st.integers(0, 5).map(lambda n: (n, n)),
                    elements=st.builds(complex, finite, finite))


def assert_renders_like_the_oracles(folder, g):
    rows = [[x for cell in row for x in (cell if isinstance(cell, list) else [cell])]
            for row in plain(g)]
    header = [f"h{j}" for j in range(len(rows[0]) if rows else 0)]
    assert_csv_routes(folder, header, [g], csv_oracle(header, rows))
    assert_json_routes(folder, {"g": g}, json_oracle({"g": g}))


def mirrored(a):
    """The upper triangle of a, its conjugate mirrored below, a real diagonal."""
    g = np.where(np.tri(len(a), k=-1, dtype=bool), a.conj().T, a)
    g[np.diag_indices(len(a))] = g.diagonal().real
    return g


@given(square, st.booleans())
def test_hermitian_blocks_render_like_the_oracles(folder, a, summed):
    if summed:  # overflow and equal imaginary parts (+0.0 both ways) fall back
        with np.errstate(over="ignore", invalid="ignore"):
            g = a + a.conj().T
        g[np.diag_indices(len(a))] = g.diagonal().real
    else:
        g = mirrored(a)
        assert _is_hermitian(g)
    assert_renders_like_the_oracles(folder, g)


def _near_misses():
    g = mirrored(np.array([[2, 1 - 1j, 0j], [0, 5e-324, complex(3e300, -0.0)], [0, 0, -0.0]]))
    ulp = g.copy()
    ulp[1, 0] = complex(np.nextafter(g[1, 0].real, 2.0), g[1, 0].imag)
    plus_zero = g.copy()
    plus_zero[2, 0] = complex(g[2, 0].real, 0.0)  # the mirror of +0.0 needs -0.0
    inf, nan = g.copy(), g.copy()
    inf[0, 2], inf[2, 0] = complex(math.inf, 1), complex(math.inf, -1)
    nan[1, 1] = math.nan
    strided = mirrored(np.arange(16.0).reshape(4, 4) * (1 + 0.5j))[::2, ::2]
    return [
        ("hermitian", g, True), ("one ulp off", ulp, False), ("+0.0 mirror", plus_zero, False),
        ("inf", inf, False), ("nan", nan, False), ("transposed", g.T, True),
        ("reversed", g[::-1, ::-1], True), ("strided", strided, True),
        ("0x0", np.zeros((0, 0), complex), True), ("1x1", np.array([[complex(1.5, -0.0)]]), True),
        ("real symmetric, complex", mirrored(np.array([[1, 2], [0, 3]], complex)), True),
        ("real symmetric, float", np.array([[1.0, 2.0], [2.0, 3.0]]), False),
        ("complex symmetric", np.array([[1, 2 + 1j], [2 + 1j, 3]]), False),
        ("not square", g[:2], False), ("complex64", strided.astype(np.complex64), False),
        ("one ulp off, transposed", ulp.T, False),
    ]


_NEAR_MISSES = _near_misses()


@pytest.mark.parametrize("name, g, hermitian", _NEAR_MISSES, ids=[c[0] for c in _NEAR_MISSES])
def test_hermitian_near_misses_render_like_the_oracles(folder, name, g, hermitian):
    assert _is_hermitian(g) is hermitian
    assert_renders_like_the_oracles(folder, g)


def test_a_failed_render_leaves_the_target_untouched(tmp_path):
    path = str(tmp_path / "p")
    write_csv(path, ["x"], [np.arange(3.0)])
    before = (tmp_path / "p").read_bytes()
    header, blocks = ["x", "kind"], [np.arange(3.0), ["a", "b", {}]]
    chunks = csv_chunks(header, blocks)  # streamed: the rows before the dict render
    assert [next(chunks), next(chunks)] == ["x,kind\n", "0.0,a\n"]
    failures = [
        (ConfigError, "cannot format a dict", lambda: write_csv(path, header, blocks)),
        (ConfigError, "may not equal",
         lambda: write_json(path, {"a": np.zeros(2), "b": "\0cohspace-array\0"})),
        (TypeError, "set is not JSON serializable",
         lambda: write_json(path, {"a": np.array([1, {2}], dtype=object)})),
    ]
    for error, message, write in failures:
        with pytest.raises(error, match=message):
            write()
        assert (tmp_path / "p").read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["p"]  # no .tmp-*~ left


_rng = np.random.default_rng(7)
_LARGE = {"hermitian 300x300": mirrored(_rng.standard_normal((300, 300))
                                        + 1j * _rng.standard_normal((300, 300))),
          "float 300x600": _rng.standard_normal((300, 600)),
          "complex 300x300": _rng.standard_normal((300, 300))
                             + 1j * _rng.standard_normal((300, 300))}


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("name", list(_LARGE))
def test_writers_hold_less_than_the_file_they_write(tmp_path, name, kind):
    """The traced allocation peak of a write stays below the file's size:
    the payload's text is never held whole.  A block that is not Hermitian
    is not copied either: the peak stays below the block's own size."""
    block = _LARGE[name]  # 600 CSV columns each
    assert _is_hermitian(block) is name.startswith("hermitian")
    path = tmp_path / f"p.{kind}"
    tracemalloc.start()
    try:
        if kind == "csv":
            write_csv(str(path), [f"h{j}" for j in range(600)], [block])
        else:
            write_json(str(path), {"g": block})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, f"peak {peak} B for a file of {path.stat().st_size} B"
    if not _is_hermitian(block):
        assert peak < block.nbytes, f"peak {peak} B for a block of {block.nbytes} B"
    if name.startswith("complex"):
        header, rows = [f"h{j}" for j in range(600)], [sum(row, []) for row in plain(block)]
        want = csv_oracle(header, rows) if kind == "csv" else json_oracle({"g": block})
        assert path.read_bytes() == want.encode()
