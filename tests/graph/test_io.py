"""Partition-store error paths (huge-graph mode)."""

import pytest


def _store_copy(store, tmp_path):
    import shutil

    dst = tmp_path / "copy"
    shutil.copytree(store.path, dst)
    return dst


def test_store_open_rejects_version_mismatch(huge_store, tmp_path):
    import json as _json

    from repro.graph.io import PartitionStore

    dst = _store_copy(huge_store, tmp_path)
    header = _json.loads((dst / "header.json").read_text())
    header["version"] = 99
    (dst / "header.json").write_text(_json.dumps(header))
    with pytest.raises(ValueError, match="version 99"):
        PartitionStore.open(dst)


def test_store_open_rejects_truncated_file(huge_store, tmp_path):
    from repro.graph.io import PartitionStore

    dst = _store_copy(huge_store, tmp_path)
    part_file = dst / "part0000.bin"
    part_file.write_bytes(part_file.read_bytes()[:128])
    with pytest.raises(ValueError, match="truncated"):
        PartitionStore.open(dst)


def test_store_open_rejects_missing_and_corrupt_header(huge_store, tmp_path):
    from repro.graph.io import PartitionStore

    with pytest.raises(ValueError, match="missing"):
        PartitionStore.open(tmp_path / "nowhere")
    dst = _store_copy(huge_store, tmp_path)
    (dst / "header.json").write_text("{not json")
    with pytest.raises(ValueError, match="corrupt"):
        PartitionStore.open(dst)


def test_store_region_unknown_name_raises(huge_store):
    with pytest.raises(KeyError, match="no region"):
        huge_store.region(0, "no-such-region")
