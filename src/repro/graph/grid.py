"""On-disk 2-D grid representation with per-vertex sub-block indexes (§3.2).

Layout
------
Edges are sorted by ``(destination interval, source interval, src, dst)``
— i.e. sub-blocks are stored *destination-major*, which makes the FCIU
model's streaming order (outer loop over destination intervals ``j``,
inner over source intervals ``i``; Algorithm 3) a single sequential scan,
and any run of blocks within a column one contiguous extent. Within each
sub-block edges are sorted by source, giving the CSR-style offset index
``index(i, j)`` that the on-demand I/O model uses to locate one vertex's
edges.

Three on-disk encodings share this layout (see ``docs/STORAGE.md``):

**raw** (format 1)
    packed global edge records in grid order: ``(src: uint32,
    dst: uint32)`` or ``(src, dst, wgt: float32)`` — ``M + W`` bytes per
    record, matching the paper's Table 2 cost-model notation.

**compact** (format 2)
    inside sub-block ``(i, j)`` both endpoints are confined to known
    intervals and sources repeat in runs, so the raw records pay for
    information the layout already implies. The compact encoding stores,
    per non-empty sub-block:

    * a CSR-style run-length header: one per-vertex in-block degree for
      every vertex of source interval ``i``, in the narrowest unsigned
      dtype that holds the block's maximum in-block degree (the same
      degrees the offset index ``index(i, j)`` encodes as deltas);
    * ``count`` packed records of ``(dst_local, [wgt])`` where
      ``dst_local = dst - lo(j)`` is stored in the narrowest unsigned
      dtype sufficient for interval ``j``'s width (uint8/16/32) and
      weights stay float32.

    Decoding is vectorized — ``np.repeat`` over the run lengths
    reconstructs the sources, a local→global add reconstructs the
    destinations — and produces :class:`EdgeBlock` objects bit-identical
    to the raw decoder's, for full streams, column scans, and selective
    index-range loads alike. Decode work is modeled as inline with the
    transfer (like checksum verification), so the byte shrink directly
    shrinks charged I/O time.

**compact3** (format 3)
    the compact layout with the *metadata* compressed too — exactly the
    bytes the on-demand (selective) path reads before it touches an edge
    record:

    * ``.idx`` offsets are stored per block in the narrowest unsigned
      dtype that holds the block's edge count (offsets are already
      block-relative deltas from the block's base, so their range is
      ``0..count``), instead of flat ``int64`` — a 2-8x shrink of every
      index scan, span and gather;
    * destination locals use a *per-block* narrowest dtype (from the
      block's actual maximum ``dst_local``) rather than format 2's
      per-column dtype, recorded in the meta as ``dst_dtype_codes``.

    Decoded offsets and edges are bit-identical ``int64`` /
    :class:`EdgeBlock` values — request counts are unchanged, only the
    byte volume shrinks.

Files (all through :class:`~repro.storage.blockfile.ArrayFile`):

``{prefix}.edges``
    the encoded sub-blocks in grid order. Raw stores open it with the
    record dtype; compact stores open it as a byte stream
    (:data:`~repro.storage.blockfile.BYTE_DTYPE`) and address blocks by
    byte ranges, so CRC sidecars and fault injection compose unchanged.
``{prefix}.idx``
    per-block CSR offsets concatenated in storage order; block
    ``(i, j)``'s slice has ``interval_size(i) + 1`` entries of
    block-relative offsets. Absent when the store is built unindexed
    (the Lumos baseline's representation). Stored as flat ``int64``
    through format 2; as per-block narrowest-uint byte columns in
    compact3 (the file is then opened as a byte stream).

Metadata (interval boundaries, per-block edge counts and file offsets,
the format version, and — for compact stores — the per-block header
dtypes) is stored as JSON next to the data files. Opening a grid whose
recorded format this build does not understand fails with a readable
error instead of a garbage decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.edgelist import EdgeList, VERTEX_DTYPE
from repro.graph.partition import VertexIntervals
from repro.storage.blockfile import BYTE_DTYPE, Device
from repro.utils.validation import require

INDEX_DTYPE = np.dtype(np.int64)
EDGE_UNWEIGHTED_DTYPE = np.dtype([("src", np.uint32), ("dst", np.uint32)])
EDGE_WEIGHTED_DTYPE = np.dtype([("src", np.uint32), ("dst", np.uint32), ("wgt", np.float32)])

#: On-disk encodings and the format versions that name them in the meta
#: file. An unknown version is a hard, readable error on open.
ENCODING_RAW = "raw"
ENCODING_COMPACT = "compact"
ENCODING_COMPACT3 = "compact3"
FORMAT_RAW = 1
FORMAT_COMPACT = 2
FORMAT_COMPACT3 = 3
SUPPORTED_FORMATS: Dict[int, str] = {
    FORMAT_RAW: ENCODING_RAW,
    FORMAT_COMPACT: ENCODING_COMPACT,
    FORMAT_COMPACT3: ENCODING_COMPACT3,
}
ENCODINGS = tuple(SUPPORTED_FORMATS.values())
_FORMAT_BY_ENCODING = {name: fmt for fmt, name in SUPPORTED_FORMATS.items()}
#: Encodings that share the compact payload layout (run-length headers +
#: packed local records); compact3 additionally compresses the metadata.
_COMPACT_ENCODINGS = (ENCODING_COMPACT, ENCODING_COMPACT3)

#: Little-endian unsigned dtypes by itemsize, the compact encoding's menu.
_UINT_BY_ITEMSIZE = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _narrowest_uint(max_value: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype holding ``max_value``."""
    if max_value < (1 << 8):
        return _UINT_BY_ITEMSIZE[1]
    if max_value < (1 << 16):
        return _UINT_BY_ITEMSIZE[2]
    require(max_value < (1 << 32), f"value {max_value} exceeds uint32")
    return _UINT_BY_ITEMSIZE[4]


def _stable_order(keys: Sequence[Tuple[np.ndarray, int]], n: int) -> np.ndarray:
    """The stable permutation sorting ``n`` items by ``keys``, most
    significant first; each key is ``(non-negative values, bit width)``.

    The keys and the item's position are packed into one int64 word and
    sorted in place. The position makes every word unique, so any sort
    order is the stable one, and the low bits of the sorted words are
    the permutation. Keys too wide to pack fall back to ``np.lexsort``,
    which gives the same order.
    """
    index_bits = max(n - 1, 0).bit_length()
    if sum(bits for _, bits in keys) + index_bits > 63:
        return np.lexsort([values for values, _ in reversed(keys)])
    packed = keys[0][0].astype(np.int64)
    for values, bits in keys[1:]:
        packed <<= bits
        packed |= values
    packed <<= index_bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << index_bits) - 1
    return packed


def _blocks_in_storage_order(block_counts: np.ndarray) -> Iterator[Tuple[int, int, slice]]:
    """``(i, j, rows)`` of every block in storage (dst-major) order, where
    ``rows`` is the block's slice of the grid-ordered edge arrays."""
    P = block_counts.shape[0]
    pos = 0
    for j in range(P):
        for i in range(P):
            cnt = int(block_counts[i, j])
            yield i, j, slice(pos, pos + cnt)
            pos += cnt


class GridFormatError(ValueError):
    """The on-disk grid was written by a format this build cannot read."""


@dataclass
class EdgeBlock:
    """An in-memory sub-block: the edges of grid cell ``(i, j)``."""

    i: int
    j: int
    src: np.ndarray
    dst: np.ndarray
    wgt: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return int(self.src.shape[0])

    @property
    def nbytes(self) -> int:
        n = self.src.nbytes + self.dst.nbytes
        if self.wgt is not None:
            n += self.wgt.nbytes
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBlock(({self.i},{self.j}), edges={self.count})"


class GridStore:
    """Reader/writer for the on-disk grid representation."""

    def __init__(
        self,
        device: Device,
        prefix: str,
        intervals: VertexIntervals,
        block_counts: np.ndarray,
        has_weights: bool,
        indexed: bool,
        encoding: str = ENCODING_RAW,
        count_codes: Optional[np.ndarray] = None,
        dst_codes: Optional[np.ndarray] = None,
    ) -> None:
        require(encoding in ENCODINGS, f"unknown grid encoding {encoding!r}")
        self.device = device
        self.prefix = prefix
        self.intervals = intervals
        self.block_counts = np.ascontiguousarray(block_counts, dtype=np.int64)
        P = intervals.P
        require(self.block_counts.shape == (P, P), "block_counts must be P x P")
        self.has_weights = has_weights
        self.indexed = indexed
        self.encoding = encoding

        sizes = intervals.sizes()
        if encoding in _COMPACT_ENCODINGS:
            require(indexed, "compact encoding requires an indexed (source-sorted) grid")
            require(count_codes is not None, "compact encoding requires count_codes")
            self._count_codes = np.ascontiguousarray(count_codes, dtype=np.int64)
            require(self._count_codes.shape == (P, P), "count_codes must be P x P")
            if encoding == ENCODING_COMPACT3:
                require(dst_codes is not None, "compact3 encoding requires dst_codes")
                self._dst_codes = np.ascontiguousarray(dst_codes, dtype=np.int64)
                require(self._dst_codes.shape == (P, P), "dst_codes must be P x P")
            else:
                self._dst_codes = None
            # Encoded bytes of block (i, j): run-length header (one entry
            # per vertex of interval i) + packed (dst_local, [wgt]) records.
            rec_sizes = np.array(
                [
                    [self._record_dtype_at(i, j).itemsize for j in range(P)]
                    for i in range(P)
                ],
                dtype=np.int64,
            )
            header = sizes[:, None] * self._count_codes
            self._block_bytes = np.where(
                self.block_counts > 0,
                header + self.block_counts * rec_sizes,
                0,
            ).astype(np.int64)
        else:
            self._count_codes = None
            self._dst_codes = None
            edge_dtype = EDGE_WEIGHTED_DTYPE if has_weights else EDGE_UNWEIGHTED_DTYPE
            self._block_bytes = self.block_counts * edge_dtype.itemsize

        # Storage-order (dst-major) offsets: block (i, j) starts at
        # _block_start[i, j] items (raw) / _block_byte_start[i, j] bytes
        # into the edges file.
        order_counts = self.block_counts.T.reshape(-1)  # (j, i) raveled
        starts = np.concatenate(([0], np.cumsum(order_counts)[:-1]))
        self._block_start = starts.reshape(P, P).T.copy()  # back to [i, j]
        order_bytes = self._block_bytes.T.reshape(-1)
        byte_starts = np.concatenate(([0], np.cumsum(order_bytes)[:-1]))
        self._block_byte_start = byte_starts.reshape(P, P).T.copy()

        if indexed:
            # compact3 stores each block's offsets in its narrowest uint
            # (offsets range 0..count); earlier formats use flat int64.
            # _index_start is in *file items*: entries for the int64
            # file, bytes for compact3's byte file.
            if encoding == ENCODING_COMPACT3:
                self._idx_codes = np.empty((P, P), dtype=np.int64)
                for i in range(P):
                    for j in range(P):
                        self._idx_codes[i, j] = _narrowest_uint(
                            int(self.block_counts[i, j])
                        ).itemsize
            else:
                self._idx_codes = None
            idx_lens = np.empty(P * P, dtype=np.int64)
            for j in range(P):
                for i in range(P):
                    entries = sizes[i] + 1
                    if self._idx_codes is not None:
                        entries *= self._idx_codes[i, j]
                    idx_lens[j * P + i] = entries
            idx_starts = np.concatenate(([0], np.cumsum(idx_lens)[:-1]))
            self._index_start = idx_starts.reshape(P, P).T.copy()  # [i, j]
            self._index_items_total = int(idx_lens.sum())
        else:
            self._idx_codes = None
            self._index_start = None
            self._index_items_total = 0

        if encoding in _COMPACT_ENCODINGS:
            self._edges_file = device.array_file(f"{prefix}.edges", BYTE_DTYPE)
        else:
            edge_dtype = EDGE_WEIGHTED_DTYPE if has_weights else EDGE_UNWEIGHTED_DTYPE
            self._edges_file = device.array_file(f"{prefix}.edges", edge_dtype)
        idx_dtype = BYTE_DTYPE if encoding == ENCODING_COMPACT3 else INDEX_DTYPE
        self._idx_file = device.array_file(f"{prefix}.idx", idx_dtype) if indexed else None

    # -- compact-encoding dtypes ------------------------------------------

    def _dst_dtype(self, j: int) -> np.dtype:
        """Local-destination dtype of column ``j`` (from interval width)."""
        width = self.intervals.size(j)
        return _narrowest_uint(max(0, width - 1))

    def _dst_dtype_at(self, i: int, j: int) -> np.dtype:
        """Local-destination dtype of block ``(i, j)``.

        Per-column (interval width) through format 2; compact3 narrows
        per block using the recorded ``dst_dtype_codes``.
        """
        if self._dst_codes is not None:
            code = int(self._dst_codes[i, j])
            require(code in _UINT_BY_ITEMSIZE, f"block ({i},{j}): bad dst dtype code {code}")
            return _UINT_BY_ITEMSIZE[code]
        return self._dst_dtype(j)

    def _record_dtype(self, j: int) -> np.dtype:
        """Packed per-edge record dtype of column ``j`` (compact encoding)."""
        fields = [("dst", self._dst_dtype(j))]
        if self.has_weights:
            fields.append(("wgt", np.dtype("<f4")))
        return np.dtype(fields)

    def _record_dtype_at(self, i: int, j: int) -> np.dtype:
        """Packed per-edge record dtype of block ``(i, j)``."""
        fields = [("dst", self._dst_dtype_at(i, j))]
        if self.has_weights:
            fields.append(("wgt", np.dtype("<f4")))
        return np.dtype(fields)

    def _count_dtype(self, i: int, j: int) -> np.dtype:
        code = int(self._count_codes[i, j])
        require(code in _UINT_BY_ITEMSIZE, f"block ({i},{j}): bad count dtype code {code}")
        return _UINT_BY_ITEMSIZE[code]

    def _idx_dtype(self, i: int, j: int) -> np.dtype:
        """On-disk offset dtype of block ``(i, j)``'s index slice."""
        if self._idx_codes is None:
            return INDEX_DTYPE
        return _UINT_BY_ITEMSIZE[int(self._idx_codes[i, j])]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        edges: EdgeList,
        intervals: VertexIntervals,
        device: Device,
        prefix: str = "graph",
        indexed: bool = True,
        sort_within_blocks: bool = True,
        encoding: str = ENCODING_RAW,
    ) -> "GridStore":
        """Partition ``edges`` into the grid and write the data files.

        ``sort_within_blocks=False`` reproduces Lumos-style preprocessing:
        edges are grouped into sub-blocks but left unsorted inside, which
        is cheaper to build but cannot support a per-vertex index
        (``indexed`` is forced off). ``encoding="compact"`` writes the
        format-2 layout (see module docstring) and ``"compact3"`` the
        format-3 layout (compact payload + narrowest-uint index and
        per-block dst widths); both require the sorted, indexed
        representation because the run-length headers are the per-vertex
        degrees the sort exposes.
        """
        require(
            intervals.num_vertices == edges.num_vertices,
            "intervals do not cover the edge list's vertex universe",
        )
        require(encoding in ENCODINGS, f"unknown grid encoding {encoding!r}")
        if not sort_within_blocks:
            indexed = False
        require(
            encoding not in _COMPACT_ENCODINGS or (indexed and sort_within_blocks),
            "compact encoding requires sort_within_blocks=True and indexed=True",
        )
        P = intervals.P
        i_of = intervals.interval_of(edges.src)
        j_of = intervals.interval_of(edges.dst)
        counts_by_key = np.bincount(j_of.astype(np.int64) * P + i_of, minlength=P * P)
        block_counts = counts_by_key.reshape(P, P).T.copy()  # [i, j]

        # Storage order is (dst interval, src interval, src, dst), ties in
        # input order. Within a column src already orders the source
        # intervals, so the sorted layout needs j, src and dst only; the
        # Lumos layout keeps input order inside each block.
        interval_bits = (P - 1).bit_length()
        if sort_within_blocks:
            vertex_bits = max(edges.num_vertices - 1, 0).bit_length()
            keys = [(j_of, interval_bits), (edges.src, vertex_bits), (edges.dst, vertex_bits)]
        else:
            keys = [(j_of, interval_bits), (i_of, interval_bits)]
        perm = _stable_order(keys, edges.num_edges)
        del keys, i_of, j_of  # freed before the gathers: set-up peak memory
        src = edges.src[perm]
        dst = edges.dst[perm]
        wgt = edges.weights[perm] if edges.has_weights else None
        del perm

        # Every block's per-vertex in-block degrees, counted once: they are
        # the compact run-length header and pick its dtype, and their
        # running sums are the index offsets.
        blocks = list(_blocks_in_storage_order(block_counts))
        vcounts: Dict[Tuple[int, int], np.ndarray] = {}
        if indexed:
            for i, j, rows in blocks:
                lo_i, hi_i = intervals.bounds(i)
                vcounts[i, j] = np.bincount(
                    src[rows].astype(np.int64) - lo_i, minlength=hi_i - lo_i
                )

        if encoding in _COMPACT_ENCODINGS:
            count_codes = np.zeros((P, P), dtype=np.int64)
            dst_codes = np.ones((P, P), dtype=np.int64)  # empty blocks: uint8
            for i, j, rows in blocks:
                if rows.start == rows.stop:
                    continue
                lo_j, _hi_j = intervals.bounds(j)
                count_codes[i, j] = _narrowest_uint(int(vcounts[i, j].max())).itemsize
                dst_codes[i, j] = _narrowest_uint(int(dst[rows].max()) - lo_j).itemsize
            store = cls(
                device,
                prefix,
                intervals,
                block_counts,
                edges.has_weights,
                indexed,
                encoding=encoding,
                count_codes=count_codes,
                dst_codes=dst_codes if encoding == ENCODING_COMPACT3 else None,
            )
            payload_parts: List[np.ndarray] = []
            for i, j, rows in blocks:
                if rows.start == rows.stop:
                    continue
                lo_j, _hi_j = intervals.bounds(j)
                rec_dtype = store._record_dtype_at(i, j)
                header = vcounts[i, j].astype(store._count_dtype(i, j))
                records = np.empty(rows.stop - rows.start, dtype=rec_dtype)
                records["dst"] = (dst[rows].astype(np.int64) - lo_j).astype(rec_dtype["dst"])
                if edges.has_weights:
                    records["wgt"] = wgt[rows]
                payload_parts.append(header.view(BYTE_DTYPE))
                payload_parts.append(records.view(BYTE_DTYPE))
            payload = (
                np.concatenate(payload_parts)
                if payload_parts
                else np.empty(0, dtype=BYTE_DTYPE)
            )
            require(
                payload.shape[0] == int(store._block_bytes.sum()),
                "compact encoder produced inconsistent byte counts",
            )
            store._edges_file.write(payload)
        else:
            store = cls(
                device, prefix, intervals, block_counts, edges.has_weights, indexed
            )
            records = np.empty(src.shape[0], dtype=store._edges_file.dtype)
            records["src"] = src
            records["dst"] = dst
            if edges.has_weights:
                records["wgt"] = wgt
            store._edges_file.write(records)

        if indexed:
            idx_parts = []
            for i, j, _rows in blocks:
                offsets = np.zeros(vcounts[i, j].shape[0] + 1, dtype=INDEX_DTYPE)
                np.cumsum(vcounts[i, j], out=offsets[1:])
                if encoding == ENCODING_COMPACT3:
                    # Narrowest-uint per block: offsets are block-
                    # relative, so the block's edge count bounds them.
                    idx_parts.append(offsets.astype(store._idx_dtype(i, j)).view(BYTE_DTYPE))
                else:
                    idx_parts.append(offsets)
            empty_dtype = BYTE_DTYPE if encoding == ENCODING_COMPACT3 else INDEX_DTYPE
            store._idx_file.write(
                np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=empty_dtype)
            )

        store._write_meta()
        return store

    def _write_meta(self) -> None:
        meta = {
            "prefix": self.prefix,
            "format": _FORMAT_BY_ENCODING[self.encoding],
            "encoding": self.encoding,
            "boundaries": self.intervals.boundaries.tolist(),
            "block_counts": self.block_counts.tolist(),
            "has_weights": self.has_weights,
            "indexed": self.indexed,
        }
        if self.encoding in _COMPACT_ENCODINGS:
            meta["count_dtype_codes"] = self._count_codes.tolist()
        if self.encoding == ENCODING_COMPACT3:
            meta["dst_dtype_codes"] = self._dst_codes.tolist()
        self.device.write_meta_text(f"{self.prefix}.meta.json", json.dumps(meta))

    @classmethod
    def open(cls, device: Device, prefix: str = "graph") -> "GridStore":
        """Open an existing grid representation on ``device``.

        Grids written before the format field existed are format 1 (the
        raw layout, unchanged). Any format this build does not know
        raises :class:`GridFormatError` with the supported versions —
        never a silent garbage decode.
        """
        meta = json.loads(device.read_meta_text(f"{prefix}.meta.json"))
        fmt = int(meta.get("format", FORMAT_RAW))
        if fmt not in SUPPORTED_FORMATS:
            supported = ", ".join(
                f"{v} ({name})" for v, name in sorted(SUPPORTED_FORMATS.items())
            )
            raise GridFormatError(
                f"grid {prefix!r} was written with on-disk format {fmt}, which "
                f"this build cannot read; supported formats: {supported}. "
                "Rebuild the representation with `graphsd preprocess`."
            )
        encoding = SUPPORTED_FORMATS[fmt]
        declared = meta.get("encoding", encoding)
        require(
            declared == encoding,
            f"grid {prefix!r}: meta declares encoding {declared!r} but format {fmt}",
        )
        count_codes = None
        dst_codes = None
        if encoding in _COMPACT_ENCODINGS:
            require(
                "count_dtype_codes" in meta,
                f"grid {prefix!r}: compact meta is missing count_dtype_codes",
            )
            count_codes = np.asarray(meta["count_dtype_codes"], dtype=np.int64)
        if encoding == ENCODING_COMPACT3:
            require(
                "dst_dtype_codes" in meta,
                f"grid {prefix!r}: compact3 meta is missing dst_dtype_codes",
            )
            dst_codes = np.asarray(meta["dst_dtype_codes"], dtype=np.int64)
        intervals = VertexIntervals(np.asarray(meta["boundaries"], dtype=np.int64))
        return cls(
            device,
            prefix,
            intervals,
            np.asarray(meta["block_counts"], dtype=np.int64),
            bool(meta["has_weights"]),
            bool(meta["indexed"]),
            encoding=encoding,
            count_codes=count_codes,
            dst_codes=dst_codes,
        )

    # -- shape/metadata accessors -------------------------------------

    @property
    def P(self) -> int:
        return self.intervals.P

    @property
    def num_vertices(self) -> int:
        return self.intervals.num_vertices

    @property
    def total_edges(self) -> int:
        return int(self.block_counts.sum())

    @property
    def edge_record_bytes(self) -> int:
        """Bytes per raw edge record — ``M + W`` in the paper's notation.

        Only meaningful for the raw encoding; the compact layout has no
        global record size (byte cost varies per block), so callers that
        need byte figures must use :meth:`block_nbytes`,
        :meth:`column_nbytes`, :attr:`total_edge_bytes`, or
        :attr:`adjacency_bytes_per_edge` instead.
        """
        if self.encoding in _COMPACT_ENCODINGS:
            raise RuntimeError(
                "compact grid stores have no global edge record size; use "
                "block_nbytes/column_nbytes/total_edge_bytes/adjacency_bytes_per_edge"
            )
        return int(self._edges_file.dtype.itemsize)

    @property
    def total_edge_bytes(self) -> int:
        """Encoded bytes of the edges file: the full I/O model's
        per-iteration edge read volume (``|E| (M + W)`` for raw)."""
        return int(self._block_bytes.sum())

    @property
    def logical_edge_bytes(self) -> int:
        """Decoded (in-memory) bytes of all edges: ``|E| (M + W)``.

        Encoding-independent — the figure to size memory budgets from
        (e.g. the §4.3 buffer's 'fraction of graph size' regime), so a
        compact store gets the same budget as its raw twin while its
        blocks are *accounted* at their smaller encoded size.
        """
        edge_dtype = EDGE_WEIGHTED_DTYPE if self.has_weights else EDGE_UNWEIGHTED_DTYPE
        return self.total_edges * edge_dtype.itemsize

    @property
    def adjacency_bytes_per_edge(self) -> float:
        """Mean per-edge adjacency bytes of a *selective* load.

        The on-demand model reads per-vertex record extents (the compact
        run-length headers are not re-read — offsets come from the
        index), so the per-edge cost is the record payload size:
        ``M + W`` for raw, the packed ``(dst_local, [wgt])`` size per
        column for compact. Averaged edge-weighted across columns for
        the scheduler's ``S_seq``/``S_ran`` estimate.
        """
        if self.encoding == ENCODING_COMPACT3:
            # Per-block record sizes: edge-weighted mean over blocks.
            rec_sizes = np.array(
                [
                    [self._record_dtype_at(i, j).itemsize for j in range(self.P)]
                    for i in range(self.P)
                ],
                dtype=np.float64,
            )
            total = self.total_edges
            if total == 0:
                return float(rec_sizes.mean()) if rec_sizes.size else 0.0
            return float((self.block_counts * rec_sizes).sum() / total)
        if self.encoding != ENCODING_COMPACT:
            return float(self._edges_file.dtype.itemsize)
        col_edges = self.block_counts.sum(axis=0)
        rec_sizes = np.array(
            [self._record_dtype(j).itemsize for j in range(self.P)], dtype=np.float64
        )
        total = int(col_edges.sum())
        if total == 0:
            return float(rec_sizes.mean()) if rec_sizes.size else 0.0
        return float((col_edges * rec_sizes).sum() / total)

    def index_entry_bytes(self, i: int) -> int:
        """Per-entry on-disk index bytes the scheduler should price for
        row ``i``: 8 (``INDEX_DTYPE``) through format 2, the row's widest
        per-block offset width in compact3 (a safe upper bound; actual
        reads use each block's own width)."""
        if self._idx_codes is None:
            return int(INDEX_DTYPE.itemsize)
        return int(self._idx_codes[i, :].max())

    @property
    def index_total_bytes(self) -> int:
        """Total on-disk bytes of the ``.idx`` file (0 when unindexed)."""
        if not self.indexed:
            return 0
        if self._idx_codes is not None:
            return self._index_items_total  # byte-addressed file
        return self._index_items_total * int(INDEX_DTYPE.itemsize)

    def block_edge_count(self, i: int, j: int) -> int:
        return int(self.block_counts[i, j])

    def block_nbytes(self, i: int, j: int) -> int:
        """Full-load (encoded, on-disk) size of sub-block ``(i, j)`` in bytes."""
        return int(self._block_bytes[i, j])

    def column_nbytes(self, j: int) -> int:
        """Encoded bytes of destination column ``j`` (one full-sweep extent)."""
        return int(self._block_bytes[:, j].sum())

    def iter_blocks_dst_major(self) -> Iterator[Tuple[int, int]]:
        """All ``(i, j)`` pairs in on-disk (destination-major) order."""
        for j in range(self.P):
            for i in range(self.P):
                yield (i, j)

    # -- full-block loads (the full I/O model) ---------------------------

    def _records_to_block(self, i: int, j: int, records: np.ndarray) -> EdgeBlock:
        wgt = records["wgt"].copy() if self.has_weights else None
        return EdgeBlock(i, j, records["src"].copy(), records["dst"].copy(), wgt)

    def _empty_block(self, i: int, j: int) -> EdgeBlock:
        wgt = np.empty(0, dtype=np.float32) if self.has_weights else None
        return EdgeBlock(
            i, j, np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE), wgt
        )

    def _decode_compact(self, i: int, j: int, payload: np.ndarray) -> EdgeBlock:
        """Decode one compact sub-block's bytes into an :class:`EdgeBlock`.

        ``np.repeat`` over the run-length header reconstructs the source
        column; the local destinations get the interval base added back.
        Output arrays match the raw decoder's dtypes exactly, so engines
        cannot distinguish the encodings.
        """
        cnt = self.block_edge_count(i, j)
        if cnt == 0:
            return self._empty_block(i, j)
        lo_i, hi_i = self.intervals.bounds(i)
        lo_j, _ = self.intervals.bounds(j)
        header_bytes = (hi_i - lo_i) * int(self._count_codes[i, j])
        require(
            payload.shape[0] == self.block_nbytes(i, j),
            f"block ({i},{j}): expected {self.block_nbytes(i, j)} encoded bytes, "
            f"got {payload.shape[0]}",
        )
        vcounts = payload[:header_bytes].view(self._count_dtype(i, j)).astype(np.int64)
        require(
            int(vcounts.sum()) == cnt,
            f"block ({i},{j}): corrupt compact header (run lengths sum to "
            f"{int(vcounts.sum())}, metadata says {cnt} edges)",
        )
        records = payload[header_bytes:].view(self._record_dtype_at(i, j))
        src = np.repeat(np.arange(lo_i, hi_i, dtype=VERTEX_DTYPE), vcounts)
        dst = records["dst"].astype(VERTEX_DTYPE) + VERTEX_DTYPE.type(lo_j)
        wgt = records["wgt"].astype(np.float32) if self.has_weights else None
        return EdgeBlock(i, j, src, dst, wgt)

    def load_block(self, i: int, j: int) -> EdgeBlock:
        """Sequentially read all edges of sub-block ``(i, j)``."""
        if self.encoding in _COMPACT_ENCODINGS:
            start = int(self._block_byte_start[i, j])
            payload = self._edges_file.read_slice(
                start, self.block_nbytes(i, j), sequential=True
            )
            return self._decode_compact(i, j, payload)
        start = int(self._block_start[i, j])
        count = self.block_edge_count(i, j)
        records = self._edges_file.read_slice(start, count, sequential=True)
        return self._records_to_block(i, j, records)

    def load_block_range(self, j: int, i_lo: int, i_hi: int) -> List[EdgeBlock]:
        """Read blocks ``(i_lo..i_hi-1, j)`` of one column as a single scan.

        Within a column the sub-blocks are stored contiguously in source-
        interval order, so a run of blocks is one sequential extent —
        this keeps full sweeps request-cheap (one read per column rather
        than per block), in either encoding.
        """
        require(0 <= i_lo <= i_hi <= self.P, "bad block range")
        if i_lo == i_hi:
            return []
        if self.encoding in _COMPACT_ENCODINGS:
            start = int(self._block_byte_start[i_lo, j])
            nbytes = [self.block_nbytes(i, j) for i in range(i_lo, i_hi)]
            payload = self._edges_file.read_slice(start, int(sum(nbytes)), sequential=True)
            blocks = []
            pos = 0
            for offset, nb in enumerate(nbytes):
                blocks.append(
                    self._decode_compact(i_lo + offset, j, payload[pos : pos + nb])
                )
                pos += nb
            return blocks
        start = int(self._block_start[i_lo, j])
        counts = [self.block_edge_count(i, j) for i in range(i_lo, i_hi)]
        records = self._edges_file.read_slice(start, int(sum(counts)), sequential=True)
        blocks = []
        pos = 0
        for offset, cnt in enumerate(counts):
            blocks.append(self._records_to_block(i_lo + offset, j, records[pos : pos + cnt]))
            pos += cnt
        return blocks

    def load_column(self, j: int) -> List[EdgeBlock]:
        """Read every sub-block of destination interval ``j`` in one scan."""
        return self.load_block_range(j, 0, self.P)

    # -- selective loads (the on-demand I/O model) ------------------------

    def read_block_index(self, i: int, j: int) -> np.ndarray:
        """Sequentially read the full offset index of sub-block ``(i, j)``.

        Always returns ``int64`` offsets: compact3's narrowest-uint
        columns are widened after the (smaller) read, so callers see
        identical values in every format.
        """
        self._require_indexed()
        start = int(self._index_start[i, j])
        entries = self.intervals.size(i) + 1
        if self._idx_codes is not None:
            code = int(self._idx_codes[i, j])
            payload = self._idx_file.read_slice(start, entries * code, sequential=True)
            return payload.view(self._idx_dtype(i, j)).astype(INDEX_DTYPE)
        return self._idx_file.read_slice(start, entries, sequential=True)

    def read_index_span(self, i: int, j: int, lo_local: int, hi_local: int) -> np.ndarray:
        """Sequentially read index entries ``[lo_local, hi_local]`` (inclusive
        of the trailing offset) of sub-block ``(i, j)``.

        The cheap middle ground between a full row scan and per-vertex
        gathers: when the active vertices of interval ``i`` cluster in a
        narrow id range (e.g. a frontier wave), one contiguous slice
        covers all their offsets.
        """
        self._require_indexed()
        size = self.intervals.size(i)
        require(0 <= lo_local <= hi_local <= size, "bad index span")
        if self._idx_codes is not None:
            code = int(self._idx_codes[i, j])
            start = int(self._index_start[i, j]) + lo_local * code
            payload = self._idx_file.read_slice(
                start, (hi_local - lo_local + 1) * code, sequential=True
            )
            return payload.view(self._idx_dtype(i, j)).astype(INDEX_DTYPE)
        start = int(self._index_start[i, j]) + lo_local
        return self._idx_file.read_slice(start, hi_local - lo_local + 1, sequential=True)

    def read_index_entries(self, i: int, j: int, local_ids: np.ndarray) -> np.ndarray:
        """Randomly gather ``(offset, next_offset)`` pairs for ``local_ids``.

        Cheaper than :meth:`read_block_index` when few vertices of
        interval ``i`` are active. Returns an ``(n, 2)`` array.
        """
        self._require_indexed()
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if local_ids.size == 0:
            return np.empty((0, 2), dtype=INDEX_DTYPE)
        start = int(self._index_start[i, j])
        if self._idx_codes is not None:
            code = int(self._idx_codes[i, j])
            payload = self._idx_file.read_gather(
                start + local_ids * code,
                np.full(local_ids.shape, 2 * code, dtype=np.int64),
            )
            pairs = payload.view(self._idx_dtype(i, j)).astype(INDEX_DTYPE)
            return pairs.reshape(-1, 2)
        pairs = self._idx_file.read_gather(
            start + local_ids, np.full(local_ids.shape, 2, dtype=np.int64)
        )
        return pairs.reshape(-1, 2)

    def load_active_edges(
        self,
        i: int,
        j: int,
        active_global_ids: np.ndarray,
        offsets_pairs: np.ndarray,
        seq_threshold_bytes: Optional[int] = None,
    ) -> EdgeBlock:
        """Gather the edges of the given active sources inside block ``(i, j)``.

        ``offsets_pairs`` is the ``(n, 2)`` block-relative offset pairs for
        the active vertices (from :meth:`read_block_index` slicing or
        :meth:`read_index_entries`), in ascending vertex-id order.
        Adjacent per-vertex extents (consecutive active ids) are merged
        into single disk runs; merged runs of at least
        ``seq_threshold_bytes`` are charged at sequential bandwidth —
        the concrete realization of the paper's ``S_seq``/``S_ran``
        split. Per-edge read volume is the encoding's per-record payload
        (``M + W`` raw, the packed local record compact), exactly the
        cost-model's on-demand term.
        """
        from repro.utils.runs import merge_runs

        active_global_ids = np.asarray(active_global_ids, dtype=np.int64)
        require(
            offsets_pairs.shape == (active_global_ids.shape[0], 2),
            "offsets_pairs shape mismatch",
        )
        per_vertex = offsets_pairs[:, 1] - offsets_pairs[:, 0]
        require(bool(np.all(per_vertex >= 0)), "corrupt index: negative edge counts")

        if self.encoding in _COMPACT_ENCODINGS:
            lo_i, hi_i = self.intervals.bounds(i)
            lo_j, _ = self.intervals.bounds(j)
            rec_dtype = self._record_dtype_at(i, j)
            rec_size = rec_dtype.itemsize
            base = int(self._block_byte_start[i, j]) + (hi_i - lo_i) * int(
                self._count_codes[i, j]
            )
            starts = base + offsets_pairs[:, 0] * rec_size
            m_starts, m_counts, _ = merge_runs(starts, per_vertex * rec_size)
            if seq_threshold_bytes is not None:
                seq_mask = m_counts >= int(seq_threshold_bytes)
            else:
                seq_mask = None
            payload = self._edges_file.read_gather(m_starts, m_counts, seq_run_mask=seq_mask)
            records = payload.view(rec_dtype)
            src = np.repeat(active_global_ids.astype(VERTEX_DTYPE), per_vertex)
            dst = records["dst"].astype(VERTEX_DTYPE) + VERTEX_DTYPE.type(lo_j)
            wgt = records["wgt"].astype(np.float32) if self.has_weights else None
            return EdgeBlock(i, j, src, dst, wgt)

        base = int(self._block_start[i, j])
        starts = base + offsets_pairs[:, 0]
        m_starts, m_counts, _ = merge_runs(starts, per_vertex)
        if seq_threshold_bytes is not None:
            seq_mask = m_counts * self.edge_record_bytes >= int(seq_threshold_bytes)
        else:
            seq_mask = None
        records = self._edges_file.read_gather(m_starts, m_counts, seq_run_mask=seq_mask)
        return self._records_to_block(i, j, records)

    def validate(self) -> None:
        """Full integrity check of the on-disk representation.

        Verifies, for every sub-block: edge endpoints fall in the
        block's (source, destination) intervals, edges are source-sorted
        (when sorted), metadata counts match the data (including the
        compact run-length headers), and — when indexed — the CSR
        offsets reproduce each vertex's edge range exactly. Raises
        :class:`ValueError` on the first inconsistency. Intended for
        post-preprocessing sanity checks and fsck-style debugging of
        copied representations.
        """
        total = 0
        for (i, j) in self.iter_blocks_dst_major():
            block = self.load_block(i, j)
            require(
                block.count == self.block_edge_count(i, j),
                f"block ({i},{j}): data has {block.count} edges, "
                f"metadata says {self.block_edge_count(i, j)}",
            )
            total += block.count
            if block.count == 0:
                continue
            lo_i, hi_i = self.intervals.bounds(i)
            lo_j, hi_j = self.intervals.bounds(j)
            require(
                int(block.src.min()) >= lo_i and int(block.src.max()) < hi_i,
                f"block ({i},{j}): source id outside interval {i}",
            )
            require(
                int(block.dst.min()) >= lo_j and int(block.dst.max()) < hi_j,
                f"block ({i},{j}): destination id outside interval {j}",
            )
            if self.indexed:
                require(
                    bool(np.all(np.diff(block.src.astype(np.int64)) >= 0)),
                    f"block ({i},{j}): edges not sorted by source",
                )
                offsets = self.read_block_index(i, j)
                require(
                    offsets[0] == 0 and offsets[-1] == block.count,
                    f"block ({i},{j}): index range does not cover the block",
                )
                require(
                    bool(np.all(np.diff(offsets) >= 0)),
                    f"block ({i},{j}): index offsets not monotone",
                )
                counts = np.bincount(
                    block.src.astype(np.int64) - lo_i, minlength=hi_i - lo_i
                )
                require(
                    bool(np.array_equal(np.diff(offsets), counts)),
                    f"block ({i},{j}): index disagrees with per-vertex edge counts",
                )
        require(
            total == self.total_edges,
            f"block counts sum to {total}, metadata says {self.total_edges}",
        )

    def read_all_sources(self) -> np.ndarray:
        """One full scan returning every edge's source id (context building)."""
        if self.encoding in _COMPACT_ENCODINGS:
            data = self._edges_file.read_all()
            parts: List[np.ndarray] = []
            for (i, j) in self.iter_blocks_dst_major():
                nb = self.block_nbytes(i, j)
                if nb == 0:
                    continue
                start = int(self._block_byte_start[i, j])
                parts.append(self._decode_compact(i, j, data[start : start + nb]).src)
            if not parts:
                return np.empty(0, dtype=VERTEX_DTYPE)
            return np.concatenate(parts)
        return self._edges_file.read_all()["src"]

    def _require_indexed(self) -> None:
        if not self.indexed:
            raise RuntimeError(
                f"grid store {self.prefix!r} was built without a per-vertex "
                "index; selective access is unavailable"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GridStore(prefix={self.prefix!r}, P={self.P}, |V|={self.num_vertices}, "
            f"|E|={self.total_edges}, weighted={self.has_weights}, "
            f"indexed={self.indexed}, encoding={self.encoding})"
        )
