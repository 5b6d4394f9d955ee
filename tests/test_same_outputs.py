"""The tree comparison of `tools/same_outputs.py`, on small temporary trees."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def compare_trees():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_trees


@pytest.fixture
def trees(tmp_path):
    """Two equal trees, each with a file at the top and one a directory down."""
    for side in ("a", "b"):
        (tmp_path / side / "out").mkdir(parents=True)
        (tmp_path / side / "report.json").write_bytes(b'{"cells": []}\n')
        (tmp_path / side / "out" / "bundle.json").write_bytes(b"[0.5, -0.0]\n")
    return tmp_path / "a", tmp_path / "b"


def test_equal_trees_have_no_differences(compare_trees, trees):
    assert compare_trees(*trees) == ([], [])


def test_one_changed_byte_is_a_difference(compare_trees, trees):
    (trees[1] / "out" / "bundle.json").write_bytes(b"[0.5, +0.0]\n")
    assert compare_trees(*trees) == ([f"{Path('out', 'bundle.json')}: bytes differ"], [])


@pytest.mark.parametrize("side", [0, 1])
def test_a_missing_file_is_a_difference(compare_trees, trees, side):
    (trees[1 - side] / "report.json").unlink()
    assert compare_trees(*trees, names=("REV", "tree")) == \
        ([f"report.json: only in {('REV', 'tree')[side]}"], [])


def test_modes_are_reported_but_not_compared(compare_trees, trees):
    (trees[0] / "report.json").chmod(0o600)
    (trees[1] / "report.json").chmod(0o644)
    assert compare_trees(*trees) == ([], ["report.json: mode 600 against 644"])
