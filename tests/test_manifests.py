"""Property fuzzing of the dataset and checkpoint manifest loaders.

Each example replaces one manifest field with a value of another JSON type.
The loader must then raise its typed error, or succeed with every field of
the type the rest of the program reads it as.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvring.data import (DatasetError, load_dataset, make_scene, render_views,
                         save_dataset)
from mvring.denoiser import (CheckpointError, ModelConfig, MvDenoiser,
                             load_checkpoint, save_checkpoint)
from mvring.geometry import ViewRing

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
    save_checkpoint(MvDenoiser(ModelConfig(f=2, latent_h=4, latent_w=4, channels=8,
                                           text_dim=8)), path, extra={"prompt": "a"})
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
    assert all(isinstance(n, str) for k in ("image_files", "depth_files") for n in m[k])


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
