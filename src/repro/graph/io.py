"""Persistence: the out-of-core binary :class:`PartitionStore` for huge graphs.

In-RAM runs persist nothing: a dataset is regenerated from its name, scale
and seed, and partitioning is seeded too, so a run is repeatable across
processes without files.  (Training state persists through
:mod:`repro.cluster.checkpoint`.)  The :class:`PartitionStore` is the
huge-graph (1M–10M-node) path: one binary file per partition holding the
device's aggregation operator as a :class:`SplitOperators` quartet of CSR
blocks, its features, labels and split masks, its halo and peer tables and
``halo_alpha_sq`` — exactly what :meth:`PartitionStore.partition` reads —
as 64-byte-aligned regions described by a versioned JSON header, so
training opens every array as a read-only ``np.memmap`` and the OS pages
data in on demand.  The store is written once by a streaming pass (``repro
prepare``) that never holds the full graph in memory — see
:func:`build_partition_store`.
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.graph.datasets import DatasetSpec
from repro.graph.partition.book import LocalPartition, PartitionBook

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.graph.generators import HugeGraphConfig

__all__ = [
    "PartitionStore",
    "PartitionStoreWriter",
    "StorePartition",
    "StoreDataset",
    "SplitOperators",
    "build_partition_store",
    "release_memmap_pages",
]

# --------------------------------------------------------------------------
# Out-of-core partition store (huge-graph mode)
# --------------------------------------------------------------------------

_STORE_MAGIC = "repro-partition-store"
_STORE_VERSION = 1
_STORE_HEADER = "header.json"
_STORE_ALIGN = 64


def _quartet_regions(n_own: int, n_halo: int) -> tuple:
    """The store's region prefix and shape of each :class:`SplitOperators`
    matrix, in field order."""
    return (
        ("agg_own", (n_own, n_own)),
        ("agg_halo", (n_own, n_halo)),
        ("agg_own_t", (n_own, n_own)),
        ("agg_halo_t", (n_halo, n_own)),
    )


def release_memmap_pages(*arrays: np.ndarray) -> None:
    """Drop the resident pages behind memmap-backed arrays (``MADV_DONTNEED``).

    The data stays valid — the kernel just evicts it from this process's
    resident set (usually straight into the page cache, so re-faulting is a
    minor fault).  Plain in-RAM arrays are ignored, which keeps the
    streaming compute engine's release calls bitwise-neutral no-ops on the
    materialized equivalence arm.
    """
    for arr in arrays:
        mapping = getattr(arr, "_mmap", None)
        if mapping is None:
            continue
        try:
            mapping.madvise(mmap.MADV_DONTNEED)
        except (AttributeError, OSError, ValueError):  # pragma: no cover
            pass  # advisory only; never fail compute over it


@dataclass
class SplitOperators:
    """An aggregation operator held as its column halves and their transposes.

    ``own``/``halo`` column-split ``P = [P_own | P_halo]``: the engine
    applies ``own`` in the central window (it reads no halo row) and
    accumulates ``halo`` after finalize.  ``own_t``/``halo_t`` are the
    owned and halo row ranges of ``Pᵀ`` for the backward routing.  Every
    row stores its owned columns before its halo columns and the engine's
    spmv sums each output row in stored order, so own-then-halo is
    bitwise the one-pass product.  After set-up this quartet is the only
    form a device's operator takes, in RAM and in a store alike: both
    build it with :meth:`split`, and a store holds its four matrices as
    regions.

    ``pages`` holds the raw memmap objects backing a store's matrices (the
    scipy wrappers only keep views, which cannot be madvised) and
    ``feature_pages`` the device's feature map; both are empty in RAM, where
    the releases are no-ops.
    """

    own: sp.csr_matrix
    halo: sp.csr_matrix
    own_t: sp.csr_matrix
    halo_t: sp.csr_matrix
    pages: tuple[np.ndarray, ...] = ()
    feature_pages: tuple[np.ndarray, ...] = ()

    @classmethod
    def split(cls, matrix: sp.csr_matrix, n_owned: int) -> "SplitOperators":
        """Split a canonical ``(n_owned, n_owned + n_halo)`` operator at its
        owned columns, and its CSR transpose at its owned rows.

        Every matrix comes out float32 with int32 ``indptr``/``indices``
        and each row's columns ascending — the operands the compiled spmv
        takes.  Column and row slices keep every row's entries in stored
        order.
        """
        t = matrix.T.tocsr()
        t.sort_indices()
        halves = (matrix[:, :n_owned], matrix[:, n_owned:], t[:n_owned], t[n_owned:])
        return cls(*(_compact(half) for half in halves))

    @property
    def nnz(self) -> int:
        return int(self.own.indptr[-1]) + int(self.halo.indptr[-1])

    def nnz_for_rows(self, row_mask: np.ndarray) -> int:
        """Operator nonzeros attributable to the masked owned rows (FLOPs)."""
        if row_mask.shape != (self.own.shape[0],):
            raise ValueError("row_mask must cover owned rows")
        row_nnz = np.diff(self.own.indptr) + np.diff(self.halo.indptr)
        return int(row_nnz[row_mask].sum())

    def release_op_pages(self) -> None:
        release_memmap_pages(*self.pages)

    def release_feature_pages(self) -> None:
        release_memmap_pages(*self.feature_pages)


def _compact(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` as float32 CSR with int32 index arrays, order unchanged."""
    m = m.tocsr()
    return sp.csr_matrix(
        (
            m.data.astype(np.float32, copy=False),
            m.indices.astype(np.int32, copy=False),
            m.indptr.astype(np.int32, copy=False),
        ),
        shape=m.shape,
    )


@dataclass
class StorePartition:
    """One partition opened from a :class:`PartitionStore`.

    All arrays are read-only memmaps (or RAM copies when opened with
    ``materialize=True`` — the in-RAM arm of the bitwise-equivalence
    contract).
    """

    part: LocalPartition
    ops: SplitOperators
    halo_alpha_sq: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray


@dataclass
class StoreDataset:
    """Dataset facade over a :class:`PartitionStore`.

    Exposes the metadata the trainer needs (``spec``, ``multilabel``,
    counts) without a global feature/label matrix — per-partition arrays
    come from :meth:`PartitionStore.partition`.
    """

    store: "PartitionStore"
    materialize: bool = False

    @property
    def spec(self) -> DatasetSpec:
        return self.store.spec

    @property
    def num_nodes(self) -> int:
        return self.store.num_nodes

    @property
    def num_features(self) -> int:
        return self.store.spec.num_features

    @property
    def num_classes(self) -> int:
        return self.store.spec.num_classes

    @property
    def multilabel(self) -> bool:
        return self.store.spec.multilabel

    @property
    def global_train_count(self) -> int:
        return self.store.global_train_count


class PartitionStoreWriter:
    """Append-only writer for the binary partition-store layout.

    Regions are appended to one file per partition at 64-byte-aligned
    offsets; :meth:`create_region` returns a writable memmap so producers
    can fill large regions chunk-by-chunk without staging them in RAM.
    ``finalize`` writes the versioned JSON header atomically — a crashed
    build leaves no ``header.json`` and therefore no openable store.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        num_nodes: int,
        num_parts: int,
        part_bounds: np.ndarray,
        agg_kind: str,
        seed: int,
        spec: dict,
        config: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        if len(part_bounds) != num_parts + 1:
            raise ValueError("part_bounds must have num_parts + 1 entries")
        self._header = {
            "format": _STORE_MAGIC,
            "version": _STORE_VERSION,
            "num_nodes": int(num_nodes),
            "num_parts": int(num_parts),
            "part_bounds": [int(b) for b in part_bounds],
            "agg_kind": str(agg_kind),
            "seed": int(seed),
            "spec": dict(spec),
            "config": dict(config or {}),
            "partitions": [
                {"file": f"part{p:04d}.bin", "regions": {}}
                for p in range(num_parts)
            ],
        }
        self._sizes = [0] * num_parts
        self._finalized = False

    def _part_file(self, part: int) -> Path:
        return self.path / self._header["partitions"][part]["file"]

    def create_region(
        self, part: int, name: str, shape: tuple[int, ...], dtype
    ) -> np.ndarray | None:
        """Reserve ``name`` in partition ``part`` and return a writable memmap.

        Returns ``None`` for zero-sized regions (recorded in the header but
        occupying no bytes — readers get ``np.zeros`` back).
        """
        if self._finalized:
            raise ValueError("store already finalized")
        regions = self._header["partitions"][part]["regions"]
        if name in regions:
            raise ValueError(f"duplicate region {name!r} in partition {part}")
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset = -(-self._sizes[part] // _STORE_ALIGN) * _STORE_ALIGN
        regions[name] = {
            "offset": offset,
            "dtype": dtype.str,
            "shape": [int(d) for d in shape],
        }
        if nbytes == 0:
            return None
        fp = self._part_file(part)
        fp.touch(exist_ok=True)
        with open(fp, "r+b") as f:
            f.truncate(offset + nbytes)
        self._sizes[part] = offset + nbytes
        return np.memmap(fp, dtype=dtype, mode="r+", offset=offset, shape=tuple(shape))

    def write_region(self, part: int, name: str, array: np.ndarray) -> None:
        """Append ``array`` as a region (convenience over ``create_region``)."""
        array = np.ascontiguousarray(array)
        region = self.create_region(part, name, array.shape, array.dtype)
        if region is not None:
            region[...] = array
            region.flush()
            del region

    def finalize(self, **globals_: int) -> Path:
        """Write the header (with any global counters) and seal the store."""
        if self._finalized:
            raise ValueError("store already finalized")
        for key, value in globals_.items():
            self._header[key] = int(value)
        tmp = self.path / (_STORE_HEADER + ".tmp")
        tmp.write_text(
            json.dumps(self._header, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path / _STORE_HEADER)
        self._finalized = True
        return self.path


class PartitionStore:
    """Read side of the out-of-core partition store.

    ``open`` validates the header version and that every partition file is
    long enough for its region table (a truncated copy fails fast instead
    of producing garbage memmaps).  All reads are lazy: ``region`` returns a
    read-only ``np.memmap`` and :meth:`partition` assembles the runtime
    objects (:class:`LocalPartition`, the :class:`SplitOperators` quartet,
    feature/label arrays) without copying anything —
    ``materialize=True`` copies every array into RAM instead, which is the
    reference arm of the bitwise-equivalence contract.
    """

    def __init__(self, path: Path, header: dict) -> None:
        self.path = path
        self.header = header

    @classmethod
    def open(cls, path: str | Path) -> "PartitionStore":
        path = Path(path)
        header_path = path / _STORE_HEADER
        if not header_path.is_file():
            raise ValueError(f"not a partition store (missing {_STORE_HEADER}): {path}")
        try:
            header = json.loads(header_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt partition store header: {exc}") from exc
        if header.get("format") != _STORE_MAGIC:
            raise ValueError(f"not a partition store header: {header_path}")
        version = int(header.get("version", -1))
        if version != _STORE_VERSION:
            raise ValueError(
                f"unsupported partition store version {version} "
                f"(expected {_STORE_VERSION})"
            )
        store = cls(path, header)
        for p, entry in enumerate(header["partitions"]):
            fp = path / entry["file"]
            required = 0
            for region in entry["regions"].values():
                nbytes = int(
                    np.prod(region["shape"], dtype=np.int64)
                    * np.dtype(region["dtype"]).itemsize
                )
                required = max(required, region["offset"] + nbytes)
            actual = fp.stat().st_size if fp.is_file() else -1
            if actual < required:
                raise ValueError(
                    f"truncated partition store file {entry['file']} "
                    f"({actual} bytes, header requires {required})"
                )
        return store

    # -- header accessors --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.header["num_nodes"])

    @property
    def num_parts(self) -> int:
        return int(self.header["num_parts"])

    @property
    def part_bounds(self) -> np.ndarray:
        return np.asarray(self.header["part_bounds"], dtype=np.int64)

    @property
    def agg_kind(self) -> str:
        return str(self.header["agg_kind"])

    @property
    def seed(self) -> int:
        return int(self.header["seed"])

    @property
    def num_directed_edges(self) -> int:
        return int(self.header.get("num_directed_edges", 0))

    @property
    def global_train_count(self) -> int:
        return int(self.header.get("global_train_count", 0))

    @property
    def spec(self) -> DatasetSpec:
        return DatasetSpec(**self.header["spec"])

    def dataset(self, *, materialize: bool = False) -> StoreDataset:
        return StoreDataset(store=self, materialize=materialize)

    def book(self) -> PartitionBook:
        """Partition book reconstructed from the contiguous part bounds."""
        sizes = np.diff(self.part_bounds)
        part_of = np.repeat(np.arange(self.num_parts, dtype=np.int64), sizes)
        return PartitionBook(part_of=part_of, num_parts=self.num_parts)

    def materialized_bytes(self) -> int:
        """Bytes an in-RAM materialization of every region would occupy."""
        total = 0
        for entry in self.header["partitions"]:
            for region in entry["regions"].values():
                total += int(
                    np.prod(region["shape"], dtype=np.int64)
                    * np.dtype(region["dtype"]).itemsize
                )
        return total

    # -- region access -----------------------------------------------------

    def region(
        self, part: int, name: str, *, materialize: bool = False
    ) -> np.ndarray:
        entry = self.header["partitions"][part]
        try:
            region = entry["regions"][name]
        except KeyError:
            raise KeyError(f"partition {part} has no region {name!r}") from None
        dtype = np.dtype(region["dtype"])
        shape = tuple(region["shape"])
        if int(np.prod(shape, dtype=np.int64)) == 0:
            return np.zeros(shape, dtype=dtype)
        out = np.memmap(
            self.path / entry["file"],
            dtype=dtype,
            mode="r",
            offset=region["offset"],
            shape=shape,
        )
        return np.array(out) if materialize else out

    def _csr(
        self, part: int, prefix: str, shape: tuple[int, int], *, materialize: bool
    ) -> tuple[sp.csr_matrix, tuple[np.ndarray, ...]]:
        """Wrap ``<prefix>_{data,indices,indptr}`` regions as a CSR matrix.

        int32 index/indptr pairs wrap zero-copy (scipy keeps views of the
        memmaps); the raw memmap objects are returned for page release.
        """
        data = self.region(part, f"{prefix}_data", materialize=materialize)
        indices = self.region(part, f"{prefix}_indices", materialize=materialize)
        indptr = self.region(part, f"{prefix}_indptr", materialize=materialize)
        matrix = sp.csr_matrix((data, indices, indptr), shape=shape, copy=False)
        pages = () if materialize else (data, indices, indptr)
        return matrix, pages

    def partition(self, part: int, *, materialize: bool = False) -> StorePartition:
        get = lambda name: self.region(part, name, materialize=materialize)  # noqa: E731
        bounds = self.part_bounds
        start, end = int(bounds[part]), int(bounds[part + 1])
        n_own = end - start
        halo_global = np.asarray(get("halo_global"))
        n_halo = halo_global.shape[0]
        local = LocalPartition(
            part_id=part,
            num_parts=self.num_parts,
            owned_global=np.arange(start, end, dtype=np.int64),
            halo_global=halo_global,
            halo_owner=np.asarray(get("halo_owner")),
            send_map=self._unpack_map(part, "send"),
            recv_map=self._unpack_map(part, "recv"),
            marginal_mask=np.asarray(get("marginal_mask")),
        )
        matrices, pages = [], ()
        for prefix, shape in _quartet_regions(n_own, n_halo):
            matrix, held = self._csr(part, prefix, shape, materialize=materialize)
            matrices.append(matrix)
            pages += held
        features = get("features")
        ops = SplitOperators(
            *matrices,
            pages=pages,
            feature_pages=() if materialize else (features,),
        )
        return StorePartition(
            part=local,
            ops=ops,
            halo_alpha_sq=np.array(get("halo_alpha_sq")),
            features=features,
            labels=get("labels"),
            train_mask=get("train_mask"),
            val_mask=get("val_mask"),
            test_mask=get("test_mask"),
        )

    def _unpack_map(self, part: int, prefix: str) -> dict[int, np.ndarray]:
        """Decode the packed peer → index-array mapping (RAM copies: small)."""
        peers = self.region(part, f"{prefix}_peers", materialize=True)
        offsets = self.region(part, f"{prefix}_offsets", materialize=True)
        values = self.region(part, f"{prefix}_values", materialize=True)
        return {
            int(peer): values[offsets[i] : offsets[i + 1]]
            for i, peer in enumerate(peers)
        }


def build_partition_store(
    cfg: "HugeGraphConfig",
    num_parts: int,
    path: str | Path,
    *,
    seed: int = 0,
    agg_kind: str = "gcn",
    progress=None,
) -> PartitionStore:
    """Generate a huge synthetic graph straight into a partition store.

    This is the streaming partitioner pass behind ``repro prepare``.  The
    full graph is never materialized; peak memory is ``O(num_nodes)`` for
    two flat per-node arrays (degrees, partition bounds are ``O(P)``) plus
    ``O(chunk + edges/num_parts)`` transients:

    1. *Spool*: edge chunks from the chunked generator are symmetrized into
       directed arcs and appended to one on-disk spool file per source
       partition (partitions are contiguous node-id ranges, so ownership is
       a ``searchsorted``).
    2. *Dedup/CSR*: per partition, sort the spooled arcs by ``(src, dst)``
       and drop duplicates — because every copy of an arc lands in the same
       spool, this is a *global* dedup — then derive local CSR structure
       and the true (post-dedup) global degree vector.  Each partition's
       nodes are renumbered **boundary-first**: rows with at least one
       remote neighbour take the lowest local ids (relative order
       preserved within each class).  Every cross-device gather — the
       layer-0 halo exchange above all — then reads one compact prefix
       block of the feature region instead of rows scattered across it,
       which matters out of core: a scattered gather faults (with the
       kernel's fault-around, drags in pages around) most of the file.
    3. *Attributes*: features/labels/split masks stream chunk-by-chunk into
       writable region memmaps (rows landing at their boundary-first
       positions), released to disk as they complete.
    4. *Operators*: per partition, build halo tables and the weighted
       aggregation operator via the same :func:`build_aggregation` the
       in-RAM path uses (global degrees are known by now), split into its
       column halves and their transposes by the same
       :meth:`SplitOperators.split`; only the quartet is written.
    5. *Send maps*: resolved from every receiver's halo table.
    """
    import shutil

    from dataclasses import asdict

    from repro.gnn.coefficients import build_aggregation
    from repro.graph.generators import (
        huge_centroids,
        huge_edge_chunks,
        huge_feature_chunk,
    )
    from repro.utils.seed import RngPool

    n = cfg.num_nodes
    parts = int(num_parts)
    if parts < 1 or n < parts:
        raise ValueError("need at least one node per partition")
    say = progress or (lambda msg: None)
    pbounds = (np.arange(parts + 1, dtype=np.int64) * n) // parts
    spec = {
        "name": cfg.name,
        "paper_name": "synthetic huge power-law",
        "num_nodes": n,
        "avg_degree": float(cfg.avg_degree),
        "num_features": cfg.num_features,
        "num_classes": cfg.num_classes,
        "multilabel": cfg.multilabel,
        "homophily": cfg.homophily,
        "degree_exponent": cfg.degree_exponent,
        "feature_noise": cfg.feature_noise,
        "label_noise": cfg.label_noise,
        "fine_scale": cfg.fine_scale,
        "fine_group": cfg.fine_group,
        "neighbor_locality": cfg.neighbor_locality,
        "locality_width": cfg.locality_width,
    }
    writer = PartitionStoreWriter(
        path,
        num_nodes=n,
        num_parts=parts,
        part_bounds=pbounds,
        agg_kind=agg_kind,
        seed=seed,
        spec=spec,
        config=asdict(cfg),
    )
    pool = RngPool(seed).fork(f"huge/{cfg.name}")
    tmp = writer.path / "tmp-build"
    tmp.mkdir(exist_ok=True)
    try:
        # -- 1. spool arcs by source partition -----------------------------
        say("spooling edge chunks")
        spools = [open(tmp / f"arcs{p}.bin", "wb") for p in range(parts)]
        try:
            for pairs in huge_edge_chunks(cfg, pool):
                arcs = np.concatenate([pairs, pairs[:, ::-1]])
                owner = np.searchsorted(pbounds, arcs[:, 0], side="right") - 1
                order = np.argsort(owner, kind="stable")
                arcs = arcs[order]
                cuts = np.searchsorted(owner[order], np.arange(parts + 1))
                for p in range(parts):
                    seg = arcs[cuts[p] : cuts[p + 1]]
                    if seg.size:
                        spools[p].write(np.ascontiguousarray(seg).tobytes())
        finally:
            for f in spools:
                f.close()

        # -- 2. per-partition global dedup + CSR structure + degrees -------
        say("deduplicating and building CSR blocks")
        degrees = np.zeros(n, dtype=np.float64)
        # Boundary-first renumbering: relabel[old_global] = new_global,
        # permuting ids within each partition's range only.
        relabel = np.empty(n, dtype=np.int64)
        old2new_by_part: list[np.ndarray] = []
        nnz_total = 0
        for p in range(parts):
            start, end = int(pbounds[p]), int(pbounds[p + 1])
            n_own = end - start
            arc_file = tmp / f"arcs{p}.bin"
            raw = np.fromfile(arc_file, dtype=np.int64).reshape(-1, 2)
            src = raw[:, 0] - start
            dst = raw[:, 1]
            del raw
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            del order
            if src.size:
                keep = np.empty(src.size, dtype=bool)
                keep[0] = True
                keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
                src, dst = src[keep], dst[keep]
                del keep
            counts = np.bincount(src, minlength=n_own)
            # Rows with a remote neighbour get the lowest new local ids
            # (the compact block every cross-device gather reads).
            boundary = np.zeros(n_own, dtype=bool)
            boundary[src[(dst < start) | (dst >= end)]] = True
            new2old = np.concatenate(
                [np.flatnonzero(boundary), np.flatnonzero(~boundary)]
            )
            old2new = np.empty(n_own, dtype=np.int64)
            old2new[new2old] = np.arange(n_own, dtype=np.int64)
            old2new_by_part.append(old2new)
            relabel[start:end] = start + old2new
            deg_p = np.zeros(n_own, dtype=np.float64)
            deg_p[old2new] = counts
            degrees[start:end] = deg_p
            nnz_total += int(dst.size)
            np.save(tmp / f"cols{p}.npy", dst)
            np.save(
                tmp / f"indptr{p}.npy",
                np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
            )
            del src, dst, counts, boundary, new2old, deg_p
            arc_file.unlink()

        # -- 3. stream features / labels / split masks ---------------------
        say("streaming node attributes")
        centroids = huge_centroids(cfg, pool)
        train_count = 0
        chunk = cfg.chunk_nodes
        for p in range(parts):
            start, end = int(pbounds[p]), int(pbounds[p + 1])
            n_own = end - start
            feat = writer.create_region(
                p, "features", (n_own, cfg.num_features), np.float32
            )
            if cfg.multilabel:
                lab = writer.create_region(
                    p, "labels", (n_own, cfg.num_classes), np.float32
                )
            else:
                lab = writer.create_region(p, "labels", (n_own,), np.int64)
            masks = {
                name: writer.create_region(p, name, (n_own,), np.bool_)
                for name in ("train_mask", "val_mask", "test_mask")
            }
            old2new = old2new_by_part[p]
            for cs in range((start // chunk) * chunk, end, chunk):
                ce = min(cs + chunk, n)
                out = huge_feature_chunk(cfg, cs, ce, centroids, pool)
                lo, hi = max(cs, start), min(ce, end)
                take = slice(lo - cs, hi - cs)
                # Attributes are generated in original id order; rows land
                # at their boundary-first positions.
                put = old2new[lo - start : hi - start]
                feat[put] = out["features"][take]
                lab[put] = out["labels"][take]
                for name in masks:
                    masks[name][put] = out[name][take]
                train_count += int(out["train_mask"][take].sum())
            for region in (feat, lab, *masks.values()):
                region.flush()
                release_memmap_pages(region)
            del feat, lab, masks

        # -- 4. halo tables + weighted operators + splits ------------------
        say("building halo tables and aggregation operators")
        # wanted[owner][requester] = owner-local rows the requester's halo needs
        wanted: list[dict[int, np.ndarray]] = [{} for _ in range(parts)]
        for p in range(parts):
            start, end = int(pbounds[p]), int(pbounds[p + 1])
            n_own = end - start
            # Spooled CSR blocks are in original-id order; relabel the
            # columns and permute the rows into boundary-first order (the
            # per-row within-order stays unsorted here — the aggregation
            # builder canonicalizes).
            cols = relabel[np.load(tmp / f"cols{p}.npy")]
            old_indptr = np.load(tmp / f"indptr{p}.npy")
            old2new = old2new_by_part[p]
            new2old = np.empty(n_own, dtype=np.int64)
            new2old[old2new] = np.arange(n_own, dtype=np.int64)
            lengths = np.diff(old_indptr)[new2old]
            indptr64 = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
            within = np.arange(int(indptr64[-1]), dtype=np.int64) - np.repeat(
                indptr64[:-1], lengths
            )
            cols = cols[np.repeat(old_indptr[new2old], lengths) + within]
            del old_indptr, new2old, lengths, within
            remote = (cols < start) | (cols >= end)
            halo_global = np.unique(cols[remote])
            marginal = np.zeros(n_own, dtype=bool)
            marginal[
                np.searchsorted(indptr64, np.flatnonzero(remote), side="right") - 1
            ] = True
            halo_owner = (
                np.searchsorted(pbounds, halo_global, side="right") - 1
            ).astype(np.int32)
            recv_map = {
                int(q): np.flatnonzero(halo_owner == q).astype(np.int64)
                for q in np.unique(halo_owner)
            }
            for q, slots in recv_map.items():
                wanted[q][p] = halo_global[slots] - pbounds[q]
            local = LocalPartition(
                part_id=p,
                num_parts=parts,
                owned_global=np.arange(start, end, dtype=np.int64),
                halo_global=halo_global,
                halo_owner=halo_owner,
                send_map={},
                recv_map=recv_map,
                marginal_mask=marginal,
            )
            neighbors = sp.csr_matrix(
                (np.ones(cols.size, dtype=np.float32), cols, indptr64), shape=(n_own, n)
            )
            matrix, halo_alpha_sq = build_aggregation(
                local, neighbors, degrees, agg_kind
            )
            ops = SplitOperators.split(matrix, n_own)
            del cols, indptr64, remote, neighbors, matrix
            for (prefix, _), m in zip(
                _quartet_regions(n_own, local.n_halo),
                (ops.own, ops.halo, ops.own_t, ops.halo_t),
            ):
                writer.write_region(p, f"{prefix}_data", m.data)
                writer.write_region(p, f"{prefix}_indices", m.indices)
                writer.write_region(p, f"{prefix}_indptr", m.indptr)
            writer.write_region(p, "halo_alpha_sq", halo_alpha_sq)
            writer.write_region(p, "halo_global", halo_global)
            writer.write_region(p, "halo_owner", halo_owner)
            writer.write_region(p, "marginal_mask", marginal)
            _write_packed_map(writer, p, "recv", recv_map)
            del ops, local
            (tmp / f"cols{p}.npy").unlink()
            (tmp / f"indptr{p}.npy").unlink()

        # -- 5. send maps from the receivers' halo tables ------------------
        say("resolving send maps")
        for p in range(parts):
            _write_packed_map(writer, p, "send", wanted[p])

        writer.finalize(
            num_directed_edges=nnz_total, global_train_count=train_count
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return PartitionStore.open(writer.path)


def _write_packed_map(
    writer: PartitionStoreWriter, part: int, prefix: str, mapping: dict[int, np.ndarray]
) -> None:
    """Pack a peer → int64-array mapping into three flat regions."""
    peers = sorted(int(q) for q in mapping)
    lengths = [int(mapping[q].size) for q in peers]
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    values = (
        np.concatenate([np.asarray(mapping[q], dtype=np.int64) for q in peers])
        if peers
        else np.zeros(0, dtype=np.int64)
    )
    writer.write_region(part, f"{prefix}_peers", np.asarray(peers, dtype=np.int32))
    writer.write_region(part, f"{prefix}_offsets", offsets)
    writer.write_region(part, f"{prefix}_values", values)
