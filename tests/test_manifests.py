"""Property fuzzing of the dataset and checkpoint manifest loaders and of
the .mvt tensor file reader.

Each manifest example replaces one manifest field with a value of another
JSON type. The loader must then raise its typed error, or succeed with every
field of the type the rest of the program reads it as. Each .mvt example
rewrites some header fields and the payload length of a valid file; the
reader must raise MvtError or return what the header describes. Each
tensor-value example sets one value of images.mvt, depths.mvt or params.mvt;
the loader must refuse it exactly when no renderer or training run could
have written it.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.data import (DatasetError, load_dataset, make_scene, render_views,
                         save_dataset)
from mvring.denoiser import (CheckpointError, ModelConfig, MvDenoiser,
                             load_checkpoint, save_checkpoint)
from mvring.geometry import ViewRing
from mvring.tensor import MvtError, load_mvt, save_mvt

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))
FUZZ = settings(derandomize=True, deadline=None, max_examples=40)


def json_type(v):
    return type(v).__name__


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def replaced(data, doc, keys):
    """doc with one of `keys` (a path into doc) set to another JSON type."""
    path = data.draw(st.sampled_from(keys))
    *outer, key = path
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in outer:
        parent = parent[k]
    parent[key] = data.draw(JSON_VALUES.filter(
        lambda v: json_type(v) != json_type(parent[key])))
    return doc


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds")
    save_dataset(render_views(make_scene(0), ViewRing(f=2, W=8, H=8)), path, seed=0)
    return path


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck")
    save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4, channels=8)),
                    path, extra={"prompt": "a"})
    return path


@FUZZ
@given(st.data())
def test_dataset_manifest_field_of_another_type(dataset_dir, data):
    mpath = dataset_dir / "manifest.json"
    good = json.loads(mpath.read_text())
    try:
        mpath.write_text(json.dumps(replaced(data, good, [(k,) for k in good])))
        try:
            _, m = load_dataset(dataset_dir)
        except DatasetError:
            return
    finally:
        mpath.write_text(json.dumps(good))
    assert all(is_int(m[k]) for k in ("version", "f", "W", "H", "seed"))
    assert all(is_number(m[k]) for k in ("elevation_deg", "distance"))


@FUZZ
@given(st.data())
def test_checkpoint_manifest_field_of_another_type(checkpoint_dir, data):
    mpath = checkpoint_dir / "checkpoint.json"
    good = json.loads(mpath.read_text())
    keys = [("config",), ("param_names",)] + [("config", k) for k in good["config"]]
    try:
        mpath.write_text(json.dumps(replaced(data, good, keys)))
        try:
            model, m = load_checkpoint(checkpoint_dir)
        except CheckpointError:
            return
    finally:
        mpath.write_text(json.dumps(good))
    assert all(isinstance(n, str) for n in m["param_names"])
    for fld in dataclasses.fields(ModelConfig):
        v = getattr(model.config, fld.name)
        assert {"int": is_int, "bool": lambda x: isinstance(x, bool),
                "float": is_number, "str": lambda x: isinstance(x, str)}[fld.type](v), fld


VALUES = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 0.0, 0.5, 1.0, 7.0])
POSSIBLE = {"images.mvt": lambda v: 0.0 <= v <= 1.0,
            "depths.mvt": lambda v: v > -np.inf,          # +inf is background
            "params.mvt": np.isfinite}


@FUZZ
@given(st.data())
def test_tensor_value_is_refused_iff_impossible(dataset_dir, checkpoint_dir, data):
    name = data.draw(st.sampled_from(sorted(POSSIBLE)))
    value = data.draw(VALUES)
    ck = name == "params.mvt"
    root = checkpoint_dir if ck else dataset_dir
    good = (root / name).read_bytes()
    arr = load_mvt(root / name)
    arr.reshape(-1)[data.draw(st.integers(0, arr.size - 1))] = value
    load = load_checkpoint if ck else load_dataset
    try:
        save_mvt(root / name, arr)
        if POSSIBLE[name](value):
            load(root)
        else:
            with pytest.raises(CheckpointError if ck else DatasetError, match=name):
                load(root)
    finally:
        (root / name).write_bytes(good)


MVT_FIELDS = ("magic", "dtype", "ndim", "extents", "payload")


@pytest.fixture(scope="module")
def mvt_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mvt") / "t.mvt"
    save_mvt(path, np.random.default_rng(0).standard_normal((2, 3)))
    return path


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_mutated_mvt_is_rejected_or_read_as_its_header_says(mvt_file, data):
    good = mvt_file.read_bytes()
    magic, code, ndim = good[:4], good[4], good[5]
    extents = list(struct.unpack(f"<{ndim}I", good[6:6 + 4 * ndim]))
    payload = good[6 + 4 * ndim:]
    mutate = data.draw(st.sets(st.sampled_from(MVT_FIELDS), max_size=2))
    if "magic" in mutate:
        magic = data.draw(st.binary(max_size=5))
    if "dtype" in mutate:
        code = data.draw(st.integers(0, 255))
    if "extents" in mutate:
        # some reshapes of the payload's 6 float64 or 12 float32 values, so
        # that a mutated header can still describe the payload exactly
        extents = data.draw(st.one_of(
            st.sampled_from([[6], [3, 2], [1, 6, 1], [12], [4, 3], [0, 6], []]),
            st.lists(st.integers(0, 2 ** 32 - 1), max_size=4)))
        ndim = len(extents)
    if "ndim" in mutate:
        ndim = data.draw(st.integers(0, 255))
    if "payload" in mutate:
        cut = data.draw(st.integers(0, len(payload) + 16))
        payload = (payload + bytes(16))[:cut]
    blob = (magic + bytes([code, ndim])
            + struct.pack(f"<{len(extents)}I", *extents) + payload)
    mvt_file.write_bytes(blob)
    try:
        arr = load_mvt(mvt_file)
    except MvtError:
        return
    finally:
        mvt_file.write_bytes(good)
    assert blob[:4] == b"MVT1"
    want = struct.unpack(f"<{blob[5]}I", blob[6:6 + 4 * blob[5]])
    assert arr.shape == want
    assert arr.dtype == {0: np.float32, 1: np.float64}[blob[4]]
    assert arr.nbytes == len(blob) - 6 - 4 * blob[5]
