"""The package's public surface: every exported name resolves, removed names
stay removed, and the distribution version has one source."""

import importlib
from pathlib import Path

import pytest

import repro
import repro.core
import repro.engine

PACKAGES = [repro, repro.core, repro.engine]

#: Names each package no longer exports: the functional facades and the
#: batch-insert path.  Insertion, extraction and verification are
#: ``WatermarkEngine`` methods, reached directly or through ``EmMark``.
REMOVED = {
    repro: [
        "insert_watermark",
        "insert_watermark_multi",
        "extract_watermark",
        "verify_ownership",
        "verify_fleet",
        "insert_batch",
    ],
    repro.core: [
        "insert_watermark",
        "insert_watermark_multi",
        "extract_watermark",
        "verify_ownership",
        "reproduce_locations",
    ],
    repro.engine: [
        "verify_fleet",
        "insert_batch",
        "set_default_engine",
        "configure_default_engine",
        "BatchInsertionItem",
        "BatchInsertionResult",
    ],
}


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_removed_names_are_gone(package):
    present = [name for name in REMOVED[package] if hasattr(package, name)]
    assert present == []
    assert not set(REMOVED[package]) & set(package.__all__)


def test_removed_engine_and_facade_members_are_gone():
    from repro.core.interface import Watermarker

    assert not hasattr(repro.WatermarkEngine, "insert_batch")
    assert not hasattr(repro.EmMark, "verify_fleet")
    assert not hasattr(repro.EmMark, "insert_multi")
    assert not hasattr(Watermarker, "extract_many")
    assert not hasattr(Watermarker, "_engine")


@pytest.mark.parametrize("module", ["repro.core.insertion", "repro.core.extraction"])
def test_facade_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_distribution_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}
