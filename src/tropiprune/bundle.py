"""Self-describing JSON weight bundles with atomic writes.

A bundle carries the whole tiny model: manifest (format, version, dims,
per-layer shapes and flags) plus nested float lists for every tensor.

Byte format (version 1): exactly the text of `json.dumps(doc, indent=1,
sort_keys=True)` plus a trailing newline, where every tensor is a nested list
of float64 values written as `repr(float)`.  Finite 64-bit values therefore
survive a save/load round trip bit for bit, and the same bundle always
writes the same bytes.  The writer refuses non-finite values, which JSON
cannot hold, before it renders anything.

The writer renders the manifest with `json.dumps` and each tensor itself:
it keeps the text of every value in a table of the tensor's shape (`S24`,
the longest float64 `repr`; a 1-D tensor is one row), and joins the table
into the same `indent=1` layout one row at a time as it writes the file, so
a save never holds the whole file's text.  Given `like`, a bundle written
before, a tensor whose bits all equal `like`'s (so -0.0 and 0.0 stay apart)
is written as `like`'s whole text, joined once and kept with `like`'s
table.  For any other tensor of `like`'s shape the writer copies `like`'s
table and renders only the values whose bits differ, each distinct value
once; a tensor whose distinct changed values outnumber half its entries is
rendered afresh instead.  `like`'s tables and texts are kept on that
bundle, so `prune` renders each value of the original once, and joins each
unchanged tensor once, however many pruned bundles it writes.
`copy_atomic` writes an already written file's bytes under another name,
as `prune` does for a cell whose mask an earlier cell already applied.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .adapter import AdapterLayer
from .errors import DataError
from .harness import TinyModel

FORMAT = "tropiprune-bundle"
VERSION = 1
#: A value's text: 24 bytes hold the longest float64 `repr`, -2.2250738585072014e-308.
_TEXT = np.dtype("S24")


@dataclass(frozen=True)
class _Rendered:
    """A tensor's float64 values and the text of each, as a 2-D `_TEXT` table
    whose rows are the tensor's rows; a 1-D tensor is one row."""

    values: np.ndarray
    texts: np.ndarray

    @cached_property
    def text(self) -> bytes:
        """The tensor's whole text, joined on first use and kept, for the writes
        of tensors with these very bits."""
        return b"".join(_joined(self.texts, self.values.ndim))


@dataclass(frozen=True)
class WeightBundle:
    model: TinyModel
    optimized: bool = False
    meta: dict = field(default_factory=dict)

    def _tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by its name in the file, in sorted-name order, as contiguous float64.

        Raises:
            DataError: naming the first tensor that holds a non-finite value.
        """
        model = self.model
        adapter = model.adapter
        tensors = {
            "feature_map": model.feature_map,
            "adapter0.down": adapter.down,
            "adapter0.up": adapter.up,
            "head.w": model.head_w,
            "head.b": model.head_b,
        }
        if adapter.up_bias is not None:
            tensors["adapter0.up_bias"] = adapter.up_bias
        tensors = {name: np.ascontiguousarray(arr, dtype=np.float64)
                   for name, arr in sorted(tensors.items())}
        for name, values in tensors.items():
            if not np.all(np.isfinite(values)):
                raise DataError(f"tensor {name!r} contains non-finite values")
        return tensors

    @cached_property
    def _rendered(self) -> dict[str, _Rendered]:
        """Each tensor's text table, rendered on first use and freed with the bundle."""
        return {name: _Rendered(values, _texts(values, None))
                for name, values in self._tensors().items()}


def _write_atomic(path: str | Path, pieces: Iterable[bytes]) -> None:
    """Write each piece as it comes to a sibling temp file, then rename it over
    `path`, so readers never see halves.  The file gets the mode `open()` gives
    a new file: 0o666 less the umask."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f"{target.name}{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, *pieces: str) -> None:
    """Write the pieces' concatenation as UTF-8 via a sibling temp file and
    rename, so readers never see halves."""
    _write_atomic(path, map(str.encode, pieces))


def copy_atomic(source: str | Path, path: str | Path) -> None:
    """Write the bytes of the file at `source` to `path` the way every output
    is written: via a sibling temp file and rename."""
    _write_atomic(path, [Path(source).read_bytes()])


def read_json(path: str | Path, what: str, error: type[Exception]):
    """The JSON document in a file; a missing, unreadable or malformed file raises `error`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, not permitted
        raise error(f"cannot read {what} file {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise error(f"{what} file {path} is not JSON text: {exc}") from None


@cache
def _layout(depth: int) -> tuple[bytes, bytes, bytes]:
    """What `json.dumps(indent=1)` puts before, between and after the items of
    a non-empty list nested `depth` deep."""
    pad = b"\n" + b" " * (depth + 1)
    return b"[" + pad, b"," + pad, b"\n" + b" " * depth + b"]"


def _json_list(items: list[bytes], depth: int) -> bytes:
    """`json.dumps(indent=1)`'s layout of a list of rendered items nested `depth` deep."""
    if not items:
        return b"[]"
    first, sep, last = _layout(depth)
    return first + sep.join(items) + last


def _texts(values: np.ndarray, like: _Rendered | None) -> np.ndarray:
    """The text table of a contiguous float64 tensor of 1 or 2 dimensions.

    Given `like`, a rendering of a tensor of the same shape, the table is a
    copy of `like`'s with only the values whose bits differ rendered, each
    distinct one once, unless they outnumber half the tensor's entries: then
    every value is rendered afresh.  A `like` of another shape is ignored.
    """
    grid = np.atleast_2d(values)  # not reshape(-1, n): a (k, 0) tensor has no such shape
    if like is not None and like.values.shape == values.shape:
        bits = grid.view(np.int64)  # compared as bits, so 0.0 and -0.0 stay apart
        changed = bits != np.atleast_2d(like.values).view(np.int64)
        distinct, which = np.unique(bits[changed], return_inverse=True)
        if 2 * len(distinct) <= values.size:
            texts = like.texts.copy()
            texts[changed] = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())),
                                      dtype=_TEXT)[which]
            return texts
    # row by row: the texts of the whole tensor at once would take more than its table
    texts = np.empty(grid.shape, _TEXT)
    for i, row in enumerate(grid):
        texts[i] = list(map(float.__repr__, row.tolist()))
    return texts


def _pieces(bundle: WeightBundle, like: WeightBundle | None) -> Iterator[bytes]:
    """The bundle's file text in pieces: the manifest head, each tensor, the tail.

    Every value is checked, and `like`'s texts are rendered, when this is
    called; each tensor is rendered only as its pieces are taken.
    """
    tensors = bundle._tensors()
    kept = like._rendered if like is not None else {}
    model = bundle.model
    adapter = model.adapter
    manifest = {
        "model": {
            "in_dim": model.in_dim,
            "features": model.features,
            "bottleneck": adapter.bottleneck,
            "classes": model.classes,
        },
        "layers": [{
            "name": "adapter0",
            "bias_merged": True,
            "has_up_bias": adapter.up_bias is not None,
            "down_shape": list(adapter.down.shape),
            "up_shape": list(adapter.up.shape),
        }],
        "optimized": bundle.optimized,
        "meta": bundle.meta,
    }
    skeleton = json.dumps({"format": FORMAT, "version": VERSION, "manifest": manifest,
                           "tensors": {}}, indent=1, sort_keys=True)
    # only a top-level key sits one space in: strings hold no raw newline
    head, _, tail = skeleton.partition('\n "tensors": {}')
    return chain([(head + '\n "tensors": {').encode()], _tensor_pieces(tensors, kept),
                 [("\n }" + tail + "\n").encode()])


def _tensor_pieces(tensors: dict[str, np.ndarray],
                   kept: dict[str, _Rendered]) -> Iterator[bytes]:
    """The "tensors" object's members in pieces: a tensor with the bits of
    its `kept` rendering as that rendering's whole text, any other rendered
    as its turn comes and joined one row at a time."""
    sep = b"\n  "
    for name, values in tensors.items():
        yield sep + json.dumps(name).encode() + b": "
        sep = b",\n  "
        like = kept.get(name)
        if (like is not None and like.values.shape == values.shape
                and np.array_equal(like.values.view(np.int64), values.view(np.int64))):
            yield like.text
        else:
            yield from _joined(_texts(values, like), values.ndim)


def _joined(texts: np.ndarray, ndim: int) -> Iterator[bytes]:
    """A tensor's text table in `json.dumps(indent=1)`'s layout two deep, a row at a time."""
    if ndim == 1:
        yield _json_list(texts[0].tolist(), 2)
        return
    first, between, last = _layout(2)
    for i, row in enumerate(texts):
        yield (between if i else first) + _json_list(row.tolist(), 3)
    yield last if len(texts) else b"[]"


def bundle_to_json(bundle: WeightBundle, like: WeightBundle | None = None) -> str:
    """The bundle's file text; `like` only saves work, never changes the text."""
    return b"".join(_pieces(bundle, like)).decode()


def save_bundle(bundle: WeightBundle, path: str | Path,
                like: WeightBundle | None = None) -> None:
    """Write the bundle atomically, each tensor row by row as it is rendered;
    see `bundle_to_json` for `like`.

    Every value is checked before the file is opened, so a refused value
    raises before any file or directory is made.
    """
    _write_atomic(path, _pieces(bundle, like))


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DataError(f"bundle {what} must be a JSON object, got {value!r:.40}")
    return value


def _shape(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(n) is int for n in value):
        raise DataError(f"bundle {what} must be a list of integers, got {value!r:.40}")
    return tuple(value)


def _flag(mapping: dict, key: str) -> bool:
    """A manifest flag: absent is false, anything but a JSON boolean is refused."""
    value = mapping.get(key, False)
    if type(value) is not bool:
        raise DataError(f"bundle {key} must be true or false, got {value!r:.40}")
    return value


def _tensor(tensors: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        arr = np.array(tensors[name])
    except ValueError:  # ragged nesting
        raise DataError(f"tensor {name!r} is not a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise DataError(f"tensor {name!r} is not an array of numbers")
    arr = arr.astype(np.float64, copy=False)
    if arr.shape != shape:
        raise DataError(f"tensor {name!r} has shape {arr.shape}, manifest says {shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"tensor {name!r} contains non-finite values")
    return arr


def load_bundle(path: str | Path) -> WeightBundle:
    """Read a bundle; a missing, malformed or inconsistent file raises DataError."""
    doc = _object(read_json(path, "bundle", DataError), "file")
    if doc.get("format") != FORMAT:
        raise DataError(f"unexpected bundle format {doc.get('format')!r:.40}")
    version = doc.get("version")
    if type(version) is not int or version != VERSION:  # true and 1.0 equal 1
        raise DataError(f"unsupported bundle version {version!r:.40}")
    manifest = _object(doc.get("manifest"), "manifest")
    tensors = _object(doc.get("tensors"), "tensors")
    dims = _object(manifest.get("model"), "manifest.model")
    in_dim, features, classes = _shape([dims.get(key) for key in ("in_dim", "features", "classes")],
                                       "manifest.model in_dim, features and classes")
    layers = manifest.get("layers")
    if not isinstance(layers, list) or len(layers) != 1:
        raise DataError("bundle must describe exactly one adapter layer")
    entry = _object(layers[0], "layer")
    if entry.get("bias_merged", True) is not True:  # the only layout this reader knows
        raise DataError(f"bundle bias_merged must be true, got {entry['bias_merged']!r:.40}")
    has_up_bias = _flag(entry, "has_up_bias")
    names = {"feature_map", "adapter0.down", "adapter0.up", "head.w", "head.b"}
    if has_up_bias:
        names.add("adapter0.up_bias")
    if tensors.keys() != names:
        odd = min(names ^ tensors.keys())
        what = "is missing" if odd in names else "has unexpected"
        raise DataError(f"bundle {what} tensor {odd!r}")
    down = _tensor(tensors, "adapter0.down", _shape(entry.get("down_shape"), "down_shape"))
    up = _tensor(tensors, "adapter0.up", _shape(entry.get("up_shape"), "up_shape"))
    up_bias = _tensor(tensors, "adapter0.up_bias", (up.shape[0],)) if has_up_bias else None
    feature_map = _tensor(tensors, "feature_map", (features, in_dim))
    head_w = _tensor(tensors, "head.w", (classes, features))
    head_b = _tensor(tensors, "head.b", (classes,))
    try:
        adapter = AdapterLayer(down, up, up_bias)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    model = TinyModel(feature_map, adapter, head_w, head_b)
    return WeightBundle(model, _flag(manifest, "optimized"),
                        dict(_object(manifest.get("meta", {}), "manifest.meta")))
