"""The array writers in cohspace.io against the row-by-row oracles they replace.

The JSON oracle is ``json.dumps(tree, indent=2, sort_keys=True) + "\\n"`` of
the ``.tolist()`` tree (complex blocks as trailing [re, im] pairs); the CSV
oracle joins ``format_cell`` over rows assembled cell by cell.  Both are
written here from plain Python values, and the writers must match them
exactly: the chunks they stream, joined, string for string, and the file
they write, byte for byte.
"""
import hashlib
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cohspace import io
from cohspace.errors import ConfigError
from cohspace.io import (_CHUNK, _row_texts, atomic_write_text, csv_chunks, format_cell,
                         json_chunks, write_csv, write_json)

SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
           1e-300, 1.7976931348623157e308, 0.1, -1.5, 1e16, 123456789.0]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from(SPECIAL)
complexes = st.builds(complex, floats, floats)
ints = st.integers(-2**62, 2**62)
strings = st.sampled_from(['"', "\\", "\n", "é", " ", "a\x00b", "B", "a", "\x7f", "\x1f"])
keys = st.text(max_size=6) | strings


class Count(int):
    """An int subclass: json.dumps writes int.__repr__'s text."""


# ints beyond int64, which orjson refuses, and the int64 edges
big_ints = st.sampled_from([2**63, -2**63, 2**64, -2**63 - 1, 2**63 - 1])
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)

arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.complex128, shapes, elements=complexes),
    hnp.arrays(np.int64, shapes, elements=ints),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, st.text(max_size=4), strings,
                    big_ints, st.sampled_from([math.nan, math.inf, 1e-5, 1e-7, 1e16]),
                    st.builds(Count, ints), st.builds(np.float64, floats),
                    st.builds(np.int64, ints))
# one key type per dict, as json.dumps's sort needs
key_types = [keys, ints | big_ints, floats, st.booleans(), st.none()]


def dicts(inner):
    return st.one_of([st.dictionaries(k, inner, max_size=4) for k in key_types])


trees = st.recursive(
    arrays | scalars,
    lambda inner: st.lists(inner, max_size=3) | dicts(inner),
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
@example({"a": {"b": np.zeros((0, 3))}})
@example({"a": [np.zeros((3, 0), complex)]})
@example({"\x7f": "\x1f", "é": ["é", 2**63, -2**63, 2**64, Count(7)],
          "f": [math.nan, math.inf, 1e-5, 1e-7, 1e16]})
@example([{1: np.eye(2)}, {2.5: "a", math.nan: np.zeros(1)}, {True: 1, False: 0}, {None: [{}]}])
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
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        json_chunks({(1, 2): 0})
    with pytest.raises(ConfigError, match="may not equal"):
        json_chunks({"a": np.zeros(2), "b": "\0cohspace-array\0"})


def test_writers_write_the_rendered_text(tmp_path):
    tree = {"m": np.eye(2) * (1 + 1j), "t": 0.5, "é": "\x7f"}
    digest = write_json(str(tmp_path / "p.json"), tree)
    assert (tmp_path / "p.json").read_text() == json_oracle(tree)
    assert digest == hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest()
    digest = write_csv(str(tmp_path / "p.csv"), ["t", "x"], [np.array([0.5]), ["é"]])
    assert (tmp_path / "p.csv").read_bytes() == "t,x\n0.5,é\n".encode()
    assert digest == hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest()


# what a config nest may hold in place of one plain leaf: values orjson spells
# otherwise (tiny, huge, non-finite, beyond int64, subclasses), bools and -0.0
_ODD_LEAVES = [1e-5, 1e16, math.nan, math.inf, True, 2**63, -2**63 - 1, Count(3), -0.0, 5e-324]


@st.composite
def config_trees(draw):
    """A config as cli.run echoes it: a label nest of 1-3 depths and up to 400
    entries, of plain floats and ints, at times with one odd leaf."""
    shape = (draw(st.integers(0, 400)),) + tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    plain_floats = st.floats(1e-4, 1e6) | st.floats(-1e6, -1e-4) | st.sampled_from([0.0, -0.0])
    floats_ = draw(hnp.arrays(np.float64, shape, elements=plain_floats))
    ints_ = draw(hnp.arrays(np.int64, shape, elements=st.integers(-2**40, 2**40)))
    nest = np.where(draw(hnp.arrays(np.bool_, shape)), ints_.astype(object),
                    floats_.astype(object))
    if nest.size and draw(st.booleans()):
        nest.flat[draw(st.integers(0, nest.size - 1))] = draw(st.sampled_from(_ODD_LEAVES))
    return {"command": "kernel-check", "points": nest.tolist(), "seed": draw(ints),
            "space": {"kind": "spin", "exponent": draw(floats)}, "tol": None}


def _with(nest, at, value):
    """nest with nest[at[0]][at[1]]... replaced by value."""
    nest = json.loads(json.dumps(nest))
    holder = nest
    for i in at[:-1]:
        holder = holder[i]
    holder[at[-1]] = value
    return nest


# 400 labels of two [re, im] pairs, each part 1e-3 <= |x| < 2: a plain nest
_PLAIN_NEST = (np.random.default_rng(5).uniform(1e-3, 2, (400, 2, 2))
               * np.random.default_rng(6).choice([-1.0, 1.0], (400, 2, 2))).tolist()


@given(config_trees())
@example({"points": _PLAIN_NEST})
@example({"points": []})
@example({"points": [[], []]})
def test_config_trees_render_like_json_dumps(folder, tree):
    assert_json_routes(folder, tree, json_oracle(tree))


@pytest.mark.parametrize("at, value", [
    ((3, 1, 0), 1e-5), ((3, 1, 0), 1e16), ((3, 1, 0), math.nan), ((3, 1, 0), True),
    ((3, 1, 0), 2**63), ((3, 1, 0), Count(7)), ((3, 1), (0.5, -0.25)), ((3, 1, 0), -0.0),
    ((3,), [[1.0], 2.0]), ((3, 1), []), ((3,), []), ((3,), [[], []])],
    ids=["tiny", "huge", "nan", "bool", "beyond-int64", "int-subclass", "tuple", "minus-zero",
         "mixed-depth", "empty-pair", "empty-entry", "empty-pairs"])
def test_config_nests_render_like_json_dumps(folder, at, value):
    """A 400 x 2 x 2 float nest with one odd item, inside a config."""
    tree = {"command": "qspace-build", "points": _with(_PLAIN_NEST, at, value), "tol": 1e-9}
    assert_json_routes(folder, tree, json_oracle(tree))


def test_a_plain_nest_enters_the_skeleton_whole(monkeypatch):
    """No call per inner list for a plain nest; a nest with one odd leaf is walked."""
    calls = []
    walk = io._skeleton
    monkeypatch.setattr(io, "_skeleton", lambda *args: calls.append(1) or walk(*args))
    tree = {"points": _PLAIN_NEST, "interval": [0.5, 2]}
    assert text(json_chunks(tree)) == json_oracle(tree)
    assert len(calls) == 3  # the dict and its two values
    calls.clear()
    tree["points"] = _with(_PLAIN_NEST, (0, 0, 0), 1e-5)
    assert text(json_chunks(tree)) == json_oracle(tree)
    assert len(calls) == 3 + 400 + 800 + 1  # every entry, every pair and the tiny leaf


def test_the_first_write_makes_the_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "p.json"
    write_json(str(path), {"x": 1.5})
    assert path.read_text() == '{\n  "x": 1.5\n}\n'
    assert [f.name for f in path.parent.iterdir()] == ["p.json"]


def test_a_taken_temp_name_is_skipped_and_left_alone(tmp_path):
    n = next(io._TEMP_COUNT) + 1  # the n of the next write
    taken = tmp_path / f".tmp-{os.getpid()}-{n}~"
    taken.write_text("not ours")
    digest = atomic_write_text(str(tmp_path / "p"), ["ab", "c"])
    assert (tmp_path / "p").read_text() == "abc"
    assert digest == hashlib.sha256(b"abc").hexdigest()
    assert taken.read_text() == "not ours"
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(["p", taken.name])


def test_a_render_that_fails_partway_leaves_no_temp_file(tmp_path):
    (tmp_path / "p").write_text("before")

    def chunks():
        yield "half of a payload"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        atomic_write_text(str(tmp_path / "p"), chunks())
    assert (tmp_path / "p").read_text() == "before"
    assert [f.name for f in tmp_path.iterdir()] == ["p"]


def test_a_written_file_has_mode_0600(tmp_path):
    write_csv(str(tmp_path / "p.csv"), ["x"], [np.arange(2.0)])
    assert stat.S_IMODE((tmp_path / "p.csv").stat().st_mode) == 0o600


def _nested(block, depth: int, in_dicts: bool):
    """block depth levels down, each level a dict (the block after a tiny
    float in key order) or a list (the block before a plain float)."""
    for _ in range(depth):
        block = {"b": block, "a": 1e-5} if in_dicts else [block, 0.5]
    return block


@pytest.mark.parametrize("in_dicts", [False, True], ids=["lists", "dicts"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_json_blocks_are_laid_out_at_their_depth(folder, depth, in_dicts):
    rng = np.random.default_rng(depth)
    blocks = [rng.standard_normal((3, 2)) * np.array([1e-7, 1e17]),
              (rng.standard_normal((2, 2, 2)) + 1j) * 1e-5,
              rng.standard_normal(_CHUNK + 5),  # two chunks
              np.array([5e-324, math.nan, -math.inf, -0.0]),
              np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((1, 0), complex),
              np.arange(4).reshape(2, 2), np.array([[True], [False]])]
    for block in blocks:
        tree = _nested(block, depth, in_dicts)
        assert_json_routes(folder, tree, json_oracle(tree))


# _row_texts against float.__repr__, string for string: orjson's digits
# inside 1e-4 <= |x| < 1e16, spliced in outside and on every chunk.
def assert_reprs(f, spell=float.__repr__):
    assert list(_row_texts(f, spell)) == [",".join(map(spell, row)) for row in f.tolist()]


def test_bulk_renderer_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(24).integers(0, 2**64, size=200_000, dtype=np.uint64,
                                              endpoint=False)
    assert_reprs(bits.view(np.float64).reshape(400, 500))


def test_bulk_renderer_matches_repr_at_the_layout_edges(folder):
    # and where the splice relays differently: each leading digit d * 1e-5
    edges = np.array([1e-4, 1e16, 2.0**-14, 2.0**53, 0.1, 123456789.0, 1.5, 1e-10, 1e-9]
                     + [float(f"{d}e-5") for d in range(1, 10)])
    steps = np.arange(-4, 5)
    up = np.array([[np.nextafter(x, math.inf) for x in edges]])
    down = np.array([[np.nextafter(x, 0.0) for x in edges]])
    near = edges[:, None] * (1 + steps * np.finfo(float).eps / 2)  # a few ulps either side
    for f in (near, -near, up, down, -up, -down):
        assert_reprs(f)
        assert_reprs(f, json.dumps)
    tree = {"near": [near, -near], "next": np.concatenate([up, down, -up, -down])}
    assert_json_routes(folder, tree, json_oracle(tree))
    special = np.array([[0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                         2.2250738585072014e-308, 2.225073858507201e-308, 1e-320,
                         1.7976931348623157e308, -1e300, 1e-300]])
    assert_reprs(special)
    assert_reprs(special.T)


def test_bulk_renderer_widens_narrow_and_odd_layouts(folder):
    f32 = np.array([[0.1, 1e-5, 3e38], [-2.5, 0.0, 1 / 3]], dtype=np.float32)
    assert next(_row_texts(f32)).split(",")[0] == "0.10000000149011612"
    assert_reprs(f32)
    big = np.arange(-6.0, 6.0).reshape(3, 4) / 7
    for f in (big[:, ::2], big.T, big[::-1], big.astype(">f8"), np.zeros((3, 0)),
              np.zeros((0, 4))):
        assert_reprs(f)
    assert list(_row_texts(np.zeros((3, 0)))) == ["", "", ""]
    wide = np.random.default_rng(1).standard_normal((2, 10_000)) * np.logspace(-8, 18, 10_000)
    assert_reprs(wide)  # one row wider than a chunk
    z = np.array([[0.1 + 0.2j, -1e-5 + 3e17j]], dtype=np.complex64)
    assert text(csv_chunks(["a"] * 4, [z])).startswith("a,a,a,a\n0.10000000149011612,")
    assert_renders_like_the_oracles(folder, z)
    cube = (np.random.default_rng(2).standard_normal((110, 4, 5)) + 1j) * np.logspace(-7, 17, 5)
    assert_json_routes(folder, {"c": [cube]}, json_oracle({"c": [cube]}))  # two chunks


# every entry outside 1e-4 <= |x| < 1e16 (and 0), one of each class: the
# 0.0000ddd layout below 1e-4, one-, two- and three-digit exponents,
# subnormals, |x| >= 1e16 and the non-finite spellings of both writers
SPLICED = [1e-5, -1e-5, 1.5e-5, -9.999999999999999e-05, 2.5e-6, -1e-9, 3.3e-7, 9.99e-10, -1e-10,
           1.2345e-50, -1e-99, 1e-100, -4.2e-300, 5e-324, -1e-320, 2.225073858507201e-308,
           1e16, -1.5e17, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


def test_bulk_renderer_splices_every_class():
    f = np.array([SPLICED])
    assert list(_row_texts(f)) == [
        "1e-05,-1e-05,1.5e-05,-9.999999999999999e-05,2.5e-06,-1e-09,3.3e-07,9.99e-10,-1e-10,"
        "1.2345e-50,-1e-99,1e-100,-4.2e-300,5e-324,-1e-320,2.225073858507201e-308,"
        "1e+16,-1.5e+17,1.7976931348623157e+308,nan,inf,-inf"]
    for spell in (float.__repr__, json.dumps):
        assert_reprs(f, spell)
        assert_reprs(f.T, spell)


def test_bulk_renderer_splices_across_chunk_edges(folder):
    width = 7
    step = _CHUNK // width  # rows per orjson call
    f = np.random.default_rng(5).standard_normal((2 * step + 1, width))
    f[step - 1] *= 1e-6  # the last row of the first chunk
    f[step, ::2] = [math.nan, 3e-5, -1e-300, math.inf]  # the first row of the next
    for spell in (float.__repr__, json.dumps):
        assert_reprs(f, spell)
    special = np.array(SPLICED * 2)
    wide = np.random.default_rng(6).standard_normal((3, _CHUNK + 9))  # a chunk per row
    wide.flat[np.random.default_rng(7).choice(wide.size, 3 * len(special), replace=False)] = \
        np.tile(special, 3)  # nan and inf among tiny values, in shuffled places
    for spell in (float.__repr__, json.dumps):
        assert_reprs(wide, spell)
    line = np.random.default_rng(8).standard_normal(2 * _CHUNK + 3) * 1e-5  # 1-D, three chunks
    tree = {"f": f, "wide": {"w": wide}, "line": line}
    assert_json_routes(folder, tree, json_oracle(tree))


# Hermitian blocks and their near misses (mirrors one ulp or one sign bit
# off, non-finite entries, strided views): both writers match the oracles.
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
        ("hermitian", g), ("one ulp off", ulp), ("+0.0 mirror", plus_zero), ("inf", inf),
        ("nan", nan), ("transposed", g.T), ("reversed", g[::-1, ::-1]), ("strided", strided),
        ("0x0", np.zeros((0, 0), complex)), ("1x1", np.array([[complex(1.5, -0.0)]])),
        ("real symmetric, complex", mirrored(np.array([[1, 2], [0, 3]], complex))),
        ("real symmetric, float", np.array([[1.0, 2.0], [2.0, 3.0]])),
        ("complex symmetric", np.array([[1, 2 + 1j], [2 + 1j, 3]])),
        ("not square", g[:2]), ("complex64", strided.astype(np.complex64)),
        ("one ulp off, transposed", ulp.T),
    ]


_NEAR_MISSES = _near_misses()


@pytest.mark.parametrize("name, g", _NEAR_MISSES, ids=[c[0] for c in _NEAR_MISSES])
def test_hermitian_near_misses_render_like_the_oracles(folder, name, g):
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
                             + 1j * _rng.standard_normal((300, 300)),
          # 12% of the entries below 1e-4, as in a spin-8 Gram: spliced per chunk
          "float 300x600, 12% tiny": _rng.standard_normal((300, 600))
                                     * np.where(_rng.random((300, 600)) < 0.12, 1e-6, 1.0)}


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("name", list(_LARGE))
def test_writers_hold_less_than_the_file_they_write(tmp_path, name, kind):
    """The traced allocation peak of a write stays below the file's size:
    the payload's text is never held whole.  The block is not copied
    either: the peak stays below the block's own size."""
    block = _LARGE[name]  # 600 CSV columns each
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
    assert peak < block.nbytes, f"peak {peak} B for a block of {block.nbytes} B"
    if name.startswith("complex"):
        header, rows = [f"h{j}" for j in range(600)], [sum(row, []) for row in plain(block)]
        want = csv_oracle(header, rows) if kind == "csv" else json_oracle({"g": block})
        assert path.read_bytes() == want.encode()
