import json
import math
import os
import stat
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bundle_json
from tropiprune import AdapterLayer, OptimConfig, PruneScope, apply_mask, convex_hull_2d, run
from tropiprune.bundle import (WeightBundle, bundle_to_json, load_bundle,
                               save_bundle, write_text_atomic)
from tropiprune.errors import DataError
from tropiprune.harness import TinyModel, init_model
from tropiprune.strategies import prune_grid
from tropiprune.svgplot import loss_curve_svg, zonotope_overlay_svg


def sample_model(seed=0):
    rng = np.random.default_rng(seed)
    model = init_model(in_dim=3, features=5, bottleneck=2, classes=2, seed=seed)
    # nudge in irrational-looking values so round trips are non-trivial
    return TinyModel(model.feature_map * np.pi, model.adapter,
                     rng.normal(size=model.head_w.shape), rng.normal(size=2))


def test_bundle_round_trip_is_bit_exact(tmp_path):
    bundle = WeightBundle(sample_model(), meta={"task": "blobs"})
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    for got, want in [
        (loaded.model.feature_map, bundle.model.feature_map),
        (loaded.model.adapter.down, bundle.model.adapter.down),
        (loaded.model.adapter.up, bundle.model.adapter.up),
        (loaded.model.head_w, bundle.model.head_w),
        (loaded.model.head_b, bundle.model.head_b),
    ]:
        assert got.dtype == np.float64 and np.array_equal(got, want)
    assert loaded.meta == {"task": "blobs"}
    # serialization itself is stable
    assert bundle_to_json(loaded) == path.read_text()


def test_bundle_round_trip_with_up_bias(tmp_path):
    model = sample_model()
    adapter = AdapterLayer(model.adapter.down, model.adapter.up,
                           up_bias=np.array([0.1, -0.2, 0.3, 0.0, 1e-17]))
    bundle = WeightBundle(TinyModel(model.feature_map, adapter,
                                    model.head_w, model.head_b), optimized=True)
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.optimized
    assert np.array_equal(loaded.model.adapter.up_bias, adapter.up_bias)


def test_bundle_rejects_missing_and_mismatched_tensors(tmp_path):
    bundle = WeightBundle(sample_model())
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path)

    doc = json.loads(path.read_text())
    del doc["tensors"]["head.b"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="missing tensor 'head.b'"):
        load_bundle(bad)

    doc = json.loads(path.read_text())
    doc["tensors"]["adapter0.donw"] = doc["tensors"]["head.b"]
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unexpected tensor 'adapter0.donw'"):
        load_bundle(bad)

    doc = json.loads(path.read_text())
    doc["tensors"]["adapter0.up"] = [[1.0, 2.0]]
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_bundle(bad)

    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_bundle(bad)

    with pytest.raises(DataError):
        load_bundle(tmp_path / "nope.json")


# signed zeros, subnormals, and the exponents where repr switches notation
SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, -1e16, 1e-7,
           9.999999999999999e15, 1e-05, 0.1, -1.5, 1.7976931348623157e308]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
metas = st.dictionaries(
    st.one_of(st.text(max_size=6), st.sampled_from(["tensors", '\n "tensors": {}'])),
    st.one_of(st.text(max_size=6), st.integers(), values), max_size=3)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.float64).reshape(rows, cols)


@st.composite
def bundles(draw):
    in_dim, features, bottleneck, classes = (draw(st.integers(1, 3)) for _ in range(4))
    up_bias = _matrix(draw, 1, features)[0] if draw(st.booleans()) else None
    adapter = AdapterLayer(_matrix(draw, bottleneck, features + 1),
                           _matrix(draw, features, bottleneck), up_bias)
    model = TinyModel(_matrix(draw, features, in_dim), adapter,
                      _matrix(draw, classes, features), _matrix(draw, 1, classes)[0])
    return WeightBundle(model, draw(st.booleans()), draw(metas))


def _edited(draw, arr):
    """arr with some entries redrawn or their sign flipped (0.0 <-> -0.0 among them)."""
    out = np.array(arr, dtype=np.float64)
    flat = out.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=flat.size)):
        flat[i] = draw(st.one_of(values, st.just(-flat[i])))
    return out


@st.composite
def edited_copies(draw, bundle):
    """bundle with some entries changed, and maybe an up_bias added or dropped."""
    model = bundle.model
    adapter = model.adapter
    bias = adapter.up_bias
    if draw(st.booleans()):
        bias = _matrix(draw, 1, adapter.width)[0] if bias is None else None
    edited = AdapterLayer(_edited(draw, adapter.down), _edited(draw, adapter.up),
                          None if bias is None else _edited(draw, bias))
    return WeightBundle(TinyModel(_edited(draw, model.feature_map), edited,
                                  _edited(draw, model.head_w), _edited(draw, model.head_b)),
                        draw(st.booleans()), draw(metas))


@st.composite
def writes(draw):
    """(like, bundles written against it): like is absent, or unrelated, or the
    bundles are edited copies of it, as `prune` writes them."""
    like = draw(st.one_of(st.none(), bundles()))
    if like is None or draw(st.booleans()):
        return like, [draw(bundles()), draw(bundles())]
    return like, [draw(edited_copies(like)), draw(edited_copies(like))]


@settings(max_examples=100, deadline=None)
@given(writes())
def test_writer_matches_json_dumps_byte_for_byte(run):
    like, written = run
    for bundle in written:
        assert bundle_to_json(bundle, like) == bundle_json(bundle)
    if like is not None:  # the texts kept on like still render like itself
        assert bundle_to_json(like, like) == bundle_json(like)


@pytest.mark.parametrize("in_dim, classes", [(0, 2), (3, 0), (0, 0)])
def test_writer_matches_json_dumps_on_empty_tensors(in_dim, classes):
    # a (features, 0) feature map, a (0, features) head.w and a zero-length head.b
    model = sample_model()
    rng = np.random.default_rng(5)
    features = model.features
    empty = TinyModel(rng.normal(size=(features, in_dim)), model.adapter,
                      rng.normal(size=(classes, features)), rng.normal(size=classes))
    like = WeightBundle(empty)
    up = model.adapter.up.copy()
    up[0, 0] += 1.0
    edited = WeightBundle(replace(empty, adapter=AdapterLayer(model.adapter.down, up)))
    for bundle in (like, edited):
        assert bundle_to_json(bundle) == bundle_to_json(bundle, like) == bundle_json(bundle)


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path):
    with pytest.raises(TypeError):
        write_text_atomic(tmp_path / "a.txt", "text", 5)  # the write fails
    (tmp_path / "b").mkdir()
    with pytest.raises(IsADirectoryError):
        write_text_atomic(tmp_path / "b", "text")  # the rename fails
    assert [p.name for p in tmp_path.iterdir()] == ["b"]
    assert list((tmp_path / "b").iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "a.txt", "text")
        save_bundle(WeightBundle(sample_model()), tmp_path / "b.json")
    finally:
        os.umask(old)
    assert [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("a.txt", "b.json")] \
        == [mode, mode]


def test_writer_keeps_signed_zeros_apart_from_like():
    model = sample_model()
    adapter = model.adapter
    zeros, negative = (
        WeightBundle(TinyModel(model.feature_map,
                               AdapterLayer(np.full_like(adapter.down, zero), adapter.up),
                               model.head_w, model.head_b))
        for zero in (0.0, -0.0))
    text = bundle_to_json(negative, like=zeros)
    assert text == bundle_json(negative) and "-0.0" in text
    assert bundle_to_json(zeros, like=negative) == bundle_json(zeros)
    # both zeros among one tensor's changed values are still two texts
    signs = np.where(np.arange(adapter.down.size) % 2, 0.0, -0.0).reshape(adapter.down.shape)
    mixed = WeightBundle(TinyModel(model.feature_map, AdapterLayer(signs, adapter.up),
                                   model.head_w, model.head_b))
    assert bundle_to_json(mixed, like=WeightBundle(model)) == bundle_json(mixed)
    # a tensor that equals like's but for a zero's sign is rendered, not reused whole
    head_b = np.array([0.0, 0.5])
    like = WeightBundle(replace(model, head_b=head_b))
    flipped = WeightBundle(replace(model, head_b=head_b * np.array([-1.0, 1.0])))
    text = bundle_to_json(flipped, like=like)
    assert text == bundle_json(flipped)
    assert [math.copysign(1.0, b) for b in json.loads(text)["tensors"]["head.b"]] == [-1.0, 1.0]


@pytest.mark.parametrize("text", ["-2.2250738585072014e-308", "-1.7976931348623157e+308",
                                  "-0.00012345678901234567"])
def test_writer_keeps_the_widest_texts_whole(tmp_path, text):
    # the longest float64 reprs (24 characters) and the longest positional
    # one (23): a text narrower than its value would lose its last characters
    wide = float(text)
    assert repr(wide) == text
    model = sample_model()
    adapter = AdapterLayer(model.adapter.down, model.adapter.up, up_bias=np.arange(5.0))
    like = WeightBundle(replace(model, adapter=adapter))
    tensors = [arr.copy() for arr in (model.feature_map, adapter.down, adapter.up,
                                      adapter.up_bias, model.head_w, model.head_b)]
    for arr in tensors:  # one entry of every tensor, so each is a changed value against like
        arr.flat[-1] = wide
    feature_map, down, up, up_bias, head_w, head_b = tensors
    bundle = WeightBundle(TinyModel(feature_map, AdapterLayer(down, up, up_bias), head_w, head_b))
    expected = bundle_json(bundle)
    assert expected.count(text) == len(tensors)
    assert bundle_to_json(bundle) == expected
    assert bundle_to_json(bundle, like) == expected
    assert bundle_to_json(like, bundle) == bundle_json(like)
    path = tmp_path / "bundle.json"
    save_bundle(bundle, path, like=like)
    loaded = load_bundle(path).model
    for got, want in zip([loaded.feature_map, loaded.adapter.down, loaded.adapter.up,
                          loaded.adapter.up_bias, loaded.head_w, loaded.head_b], tensors):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_writer_refuses_non_finite_values(tmp_path):
    model = sample_model()
    bad = WeightBundle(TinyModel(model.feature_map, model.adapter, model.head_w,
                                 np.array([0.0, np.nan])))
    for like in (None, WeightBundle(model)):
        with pytest.raises(DataError, match="head.b"):
            bundle_to_json(bad, like)
        # a refused save makes no target, temp file or parent directory
        with pytest.raises(DataError, match="head.b"):
            save_bundle(bad, tmp_path / "missing" / "bundle.json", like=like)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("optimized", "no"), ("optimized", 0.5), ("has_up_bias", "no"), ("has_up_bias", 1),
    ("bias_merged", False), ("bias_merged", "yes")])
def test_loader_names_a_bad_manifest_flag(tmp_path, key, value):
    path = tmp_path / "bundle.json"
    save_bundle(WeightBundle(sample_model()), path)
    doc = json.loads(path.read_text())
    manifest = doc["manifest"]
    (manifest if key == "optimized" else manifest["layers"][0])[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=key):
        load_bundle(path)


def _fit_and_masks(model, iterations, fractions, scopes):
    """The optimized model and every pruned model `prune` writes, in its order."""
    originals = [model.adapter]
    fit = run(model.adapter, OptimConfig(iterations=iterations, l1_pos=0.001, l1_neg=0.001,
                                         tol=0.0))
    optimized = replace(model, adapter=replace(model.adapter, down=fit.down, up=fit.up))
    pruned = [replace(model, adapter=apply_mask(originals, masks[method][0])[0])
              for _, _, masks in prune_grid(originals, [fit], fractions, scopes)
              for method in ("standard", "tropical")]
    return optimized, pruned


def test_writer_matches_json_dumps_on_wide_rows():
    # 257- and 16-entry rows, split and rejoined wherever a mask changed them
    model = init_model(in_dim=3, features=256, bottleneck=16, classes=2, seed=2)
    bias = np.random.default_rng(3).normal(size=256)
    model = replace(model, adapter=replace(model.adapter, up_bias=bias))
    like = WeightBundle(model, meta={"task": "blobs"})
    optimized, pruned = _fit_and_masks(model, 3, [0.1, 0.5, 0.8], list(PruneScope))
    assert len(pruned) == 18
    written = [WeightBundle(optimized, optimized=True, meta=like.meta)]
    written += [WeightBundle(m, meta=like.meta) for m in pruned]
    for bundle in written:
        assert bundle_to_json(bundle, like) == bundle_json(bundle)
    assert bundle_to_json(like, like) == bundle_json(like)


def test_prune_writes_hold_little_beyond_the_file(tmp_path):
    # prune_bert's shape: the original's kept texts and the writes of the
    # optimized and both CN p = 0.5 bundles stay within a few file sizes
    model = init_model(in_dim=32, features=768, bottleneck=64, classes=2, seed=4)
    path = tmp_path / "bundle.json"
    save_bundle(WeightBundle(model), path)
    size = path.stat().st_size
    like = load_bundle(path)
    optimized, pruned = _fit_and_masks(like.model, 2, [0.5], [PruneScope.NODE_WISE])
    written = [WeightBundle(optimized, optimized=True)] + [WeightBundle(m) for m in pruned]
    tracemalloc.start()
    try:
        for k, bundle in enumerate(written):
            save_bundle(bundle, tmp_path / f"out{k}.json", like=like)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * size
    assert kept < 1.5 * size


def test_optimized_write_holds_under_twice_the_file(tmp_path):
    # prune_bert's optimized bundle: the fit moves nearly every `down` and
    # `up` entry, and the write holds one tensor's text at a time, never the
    # whole file's
    model = init_model(in_dim=32, features=768, bottleneck=64, classes=2, seed=4)
    like = WeightBundle(model)
    fit = run(model.adapter, OptimConfig(iterations=2, l1_pos=0.001, l1_neg=0.001, tol=0.0))
    for before, after in ((model.adapter.down, fit.down), (model.adapter.up, fit.up)):
        assert np.mean(before != after) >= 0.99
    optimized = replace(model, adapter=replace(model.adapter, down=fit.down, up=fit.up))
    like._rendered  # the original's texts, kept on it as `prune`'s first write keeps them
    path = tmp_path / "optimized.json"
    tracemalloc.start()
    try:
        save_bundle(WeightBundle(optimized, optimized=True), path, like=like)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_loss_svg_two_point_trace():
    svg = loss_curve_svg([(0, 3.0), (1, 1.0)])
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    assert len(polylines) == 1
    pairs = polylines[0].attrib["points"].split()
    assert len(pairs) == 2


def test_loss_svg_preserves_monotone_trace():
    trace = [(t, 10.0 / (1.0 + t)) for t in range(40)]
    svg = loss_curve_svg(trace)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    points = root.find(f".//{ns}polyline").attrib["points"].split()
    ys = [float(p.split(",")[1]) for p in points]
    assert all(a >= b for a, b in zip(ys, ys[1:]))


def test_loss_svg_has_axis_labels():
    svg = loss_curve_svg([(0, 1.0), (5, 0.5), (10, 0.2)])
    assert "iteration" in svg and "combined loss" in svg
    ET.fromstring(svg)


def test_loss_svg_empty_raises():
    with pytest.raises(ValueError):
        loss_curve_svg([])


def test_zonotope_svg_coincident_polygons():
    square = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
    svg = zonotope_overlay_svg(square, square)
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f".//{ns}polygon")
    assert len(polygons) == 2
    assert polygons[0].attrib["points"] == polygons[1].attrib["points"]
    assert polygons[0].attrib["points"] == "0,0 1,0 1,1 0,1"


def test_zonotope_svg_legend_and_colors():
    before = convex_hull_2d([(0, 0), (2, 0), (2, 2), (0, 2)])
    after = convex_hull_2d([(0, 0), (1, 0), (1, 1), (0, 1)])
    svg = zonotope_overlay_svg(before, after)
    assert ">before</text>" in svg and ">after</text>" in svg
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    strokes = {p.attrib["stroke"] for p in root.findall(f".//{ns}polygon")}
    assert len(strokes) == 2


def test_zonotope_svg_degenerate_input():
    point = convex_hull_2d([(1, 1)])
    seg = convex_hull_2d([(0, 0), (1, 0)])
    ET.fromstring(zonotope_overlay_svg(point, seg))
