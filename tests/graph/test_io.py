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


def test_store_writes_exactly_the_regions_it_reads(huge_store, monkeypatch):
    """Every region the builder writes is read back by ``partition()`` and
    every region read was written — so a region nothing reads (like the
    old whole-operator, adjacency and degree regions) cannot come back."""
    from repro.graph.io import PartitionStore

    read = set()
    region = PartitionStore.region

    def spy(self, part, name, **kwargs):
        read.add((part, name))
        return region(self, part, name, **kwargs)

    monkeypatch.setattr(PartitionStore, "region", spy)
    huge_store.dataset()
    huge_store.book()
    for part in range(huge_store.num_parts):
        huge_store.partition(part)
    written = {
        (part, name)
        for part, entry in enumerate(huge_store.header["partitions"])
        for name in entry["regions"]
    }
    assert read == written
