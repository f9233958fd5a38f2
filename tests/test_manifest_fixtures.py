"""The on-disk instance format, pinned by one checked-in instance per family.

``tools/write_manifest_fixtures.py`` wrote ``tests/data/manifests/`` with
``goldsplit generate``. A manifest written by an earlier version must load
into the problem that generating its spec gives now, and generating it
again must reproduce every byte of the manifest and its payloads.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from goldsplit.cli import main
from goldsplit.metrics import objective
from goldsplit.problems import FAMILIES, GenSpec, generate_instance, load_instance

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "tests" / "data" / "manifests"


def _fixture_flags():
    path = ROOT / "tools" / "write_manifest_fixtures.py"
    spec = importlib.util.spec_from_file_location("write_manifest_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXTURES


FIXTURES = _fixture_flags()


def test_every_family_has_a_fixture():
    on_disk = sorted(p.name for p in FIXTURE_DIR.iterdir() if p.is_dir())
    assert on_disk == sorted(FIXTURES) == sorted(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fixture_loads_as_generated(family, rng):
    path = FIXTURE_DIR / family / "manifest.json"
    manifest = json.loads(path.read_text())
    loaded = load_instance(path)
    fresh = generate_instance(GenSpec(family, manifest["params"], manifest["seed"]))
    x = rng.standard_normal(fresh.K.shape.domain_dim)
    assert loaded.K.matvec(x).tobytes() == fresh.K.matvec(x).tobytes()
    assert objective(loaded, x) == objective(fresh, x)
    if fresh.x_true is None:
        assert loaded.x_true is None
    else:
        assert loaded.x_true.tobytes() == fresh.x_true.tobytes()
    for key, val in fresh.meta.items():
        if isinstance(val, np.ndarray) and key != "x_smth":
            assert loaded.meta[key].tobytes() == val.tobytes(), key
    assert loaded.dims == fresh.dims
    assert loaded.name == fresh.name


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generate_reproduces_fixture_bytes(family, tmp_path, capsys):
    out = tmp_path / family
    assert main(["generate", *FIXTURES[family], "--out", str(out)]) == 0
    expected = FIXTURE_DIR / family
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
    for path in expected.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
