"""Out-of-core epoch store: one mmap-backed segment file per sealed epoch.

The :class:`~repro.engine.Engine` persists through this store alone.  A
long-running service holding months of hourly epochs would be
memory-bound if every epoch stayed in RAM (RSS growing with *total*
epochs, not the queried window) and checkpoint-bound if every
checkpoint rewrote every epoch.  :class:`EpochStore` fixes both:

* **One segment per epoch, its counts held once.**  Each sealed epoch
  lives in its own CRC-framed file (``epoch-%08d.seg``, see
  :func:`~repro.core.serialization.pack_epoch_segment`).  A state whose
  children are all plain integer
  :class:`~repro.frequency_oracles.base.OracleAccumulator` vectors is
  stored as those raw int64 vectors, 8-byte aligned (the *pushdown*
  region); any other state (SHE's exact-summation float partials, which
  no vector sum reproduces) is stored as its packed accumulator state.
  Segments are written once (tmp + rename + fsync) and never mutated.
* **A versioned manifest.**  ``MANIFEST.json`` records the store format,
  the protocol spec and its hash, and one entry per epoch (file name,
  report count, byte size, pushdown availability, dirty bit).  The
  manifest is always rewritten *after* the segments it references and
  fsync'd, so a crash mid-checkpoint leaves the previous consistent
  manifest in place.  Format-1 manifests (repro 1.11.0) are read too:
  their segments hold both regions and are read through their vectors.
* **Crash invariant.**  A file the on-disk manifest references is never
  overwritten or unlinked before a manifest without it is durable.  A
  rewrite of such a file goes to a fresh name (``epoch-%08d.1.seg``, the
  smallest free ``.N``), and the replaced file is unlinked only after the
  next manifest save.  Readers follow each entry's ``file``, so the
  name of a segment never matters.  What a crash leaves unreferenced
  (a fresh segment whose manifest save never landed, a staging file, a
  replaced segment whose unlink never ran) is swept by
  :meth:`EpochStore.discard_orphans`, which ``Engine.checkpoint()``
  runs last -- never at open, since a reader may open the store while
  its writer sits between a segment rename and the manifest save.  The
  first sweep of a store object lists the directory; later ones visit
  only the names that object may have left unreferenced since, so a
  checkpoint stays O(dirty).
* **Query pushdown.**  A windowed query sums the mapped vectors of the
  selected segments elementwise -- exactly the accumulator merge,
  because integer addition is associative and commutative -- without
  decoding a single packed state, so ``estimator(window=last(k))`` over
  sealed epochs is bit-identical to the in-RAM merge path at a fraction
  of the work.  Segments holding a packed state are decoded and merged
  instead, which is still exact; :meth:`EpochStore.pushdown_state`
  answers every sealed window either way.
* **Aggregate segments.**  Sealed segments are immutable, so their sums
  can be materialized once and reused: level-``L`` aggregate segments
  (``agg-L%d-%08d.seg``, same REPROSEG framing, vectors only, tracked in
  the manifest) hold the elementwise int64 sum of the ``2**L``
  consecutive epochs ``[S, S + 2**L)`` for aligned starts
  (``S % 2**L == 0``).  They are built incrementally as blocks complete
  (at seal time and on ``checkpoint()``) and the window planner
  (:func:`repro.engine.windows.plan_cover`) covers a contiguous window
  with O(log k) aggregate + leaf nodes instead of k leaves.  Aggregates
  are *derived* data -- rebuildable from the leaves at any time -- so
  they are written without fsync, dropped whenever a covered epoch goes
  dirty, and a corrupt or missing aggregate quietly falls back to its
  leaves instead of failing the query.

Every structural failure -- a torn segment tail, a manifest/segment spec
mismatch, a missing segment file, a regular file where a store directory
was expected -- raises
:class:`~repro.core.serialization.SerializationError` naming the epoch
and file involved.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import mmap
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels import reference as kernels
from repro.core.serialization import (
    SerializationError,
    pack_epoch_segment,
    peek_header,
    read_epoch_segment,
    segment_pushdown_children,
    segment_state_bytes,
)
from repro.core.session import (
    AccumulatorState,
    CompositeAccumulator,
    spec_sans_postprocess,
)
from repro.engine.windows import PLAN_AGGREGATE, PLAN_EPOCH, PlanNode, plan_cover
from repro.frequency_oracles.base import OracleAccumulator

#: ``manifest_kind`` tag of an epoch-store manifest.
MANIFEST_KIND = "epoch-store"

#: Layout version of the manifest contents this build writes.  Format 2
#: stores each epoch's counts once (vectors, or a packed state for SHE);
#: format 1 (repro 1.11.0) segments hold both and are still read, so an
#: older build refuses a format-2 store at its manifest instead of
#: calling one of its segments corrupt.
MANIFEST_FORMAT = 2

#: Manifest formats this build reads.
_READABLE_MANIFEST_FORMATS = (1, MANIFEST_FORMAT)

#: File name of the store manifest inside the store directory.
MANIFEST_NAME = "MANIFEST.json"

#: Deepest aggregate level the store maintains: 2**10 = 1024 epochs per
#: top block, so a month of hourly epochs collapses into a handful of
#: nodes while the per-seal bookkeeping stays trivial.
MAX_AGGREGATE_LEVEL = 10

#: Every file name the store writes, staging files included; the orphan
#: sweep removes only these.
_STORE_FILE_PATTERNS = ("epoch-*.seg", "agg-L*-*.seg", "*.tmp.*")

#: Magic of the monolithic engine checkpoint that repro 1.10.0 and
#: earlier wrote; recognised only to refuse it with a migration path.
_ENVELOPE_MAGIC = b"REPROACC\x02"


class _AggregateUnusable(Exception):
    """Internal: one aggregate segment could not be read during a gather.

    Aggregates are derived data, so this is *not* a store corruption:
    the planner drops the aggregate and re-covers the window from its
    leaves (or smaller aggregates).  Never escapes the store.
    """

    def __init__(self, key: Tuple[int, int], cause: Exception) -> None:
        super().__init__(f"aggregate {key} unusable: {cause}")
        self.key = key

def spec_fingerprint(spec: dict) -> str:
    """A stable hash of a protocol spec, ignoring assembly-only keys.

    Post-processing runs at finalize time only, so segments written
    under ``postprocess="none"`` are valid for a query under
    ``"consistency+norm_sub"`` and vice versa -- the fingerprint treats
    those specs as identical (:func:`~repro.core.session.spec_sans_postprocess`),
    mirroring the engine's merge rules.
    """
    encoded = json.dumps(spec_sans_postprocess(dict(spec)), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _fsync_directory(path: str) -> None:
    """Force the directory entry updates (renames) themselves to disk."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def _pushdown_description(state: CompositeAccumulator) -> Optional[dict]:
    """The plain-data pushdown region for ``state``, or ``None``.

    Only states whose children are all *plain* integer oracle
    accumulators are eligible: a subclass (e.g. SHE's float-partial
    exact summation) has statistics a raw int64 vector sum cannot
    reproduce, so those segments hold the packed state instead and
    queries load and merge it.
    """
    if not isinstance(state, CompositeAccumulator):
        return None
    children = []
    for child in state.children:
        if type(child) is not OracleAccumulator:
            return None
        children.append(
            {
                "oracle_kind": child.oracle_kind,
                "config": child.config,
                "n_reports": child.n_reports,
                "vectors": child.vectors,
            }
        )
    return {
        "label": state.label,
        "config": state.config,
        "n_users": state.n_users,
        "children": children,
    }


class EpochStore:
    """Directory of per-epoch segment files plus a versioned manifest.

    Open with a ``spec`` to create the store on first use (and validate
    on every later open); open with ``spec=None`` and ``create=False``
    to attach to an existing store and take the protocol spec *from* the
    manifest.  The store caches validated memory maps per epoch, so the
    CRC of each segment is checked exactly once per attach.
    """

    def __init__(
        self,
        directory: str,
        spec: Optional[dict] = None,
        *,
        create: bool = True,
    ) -> None:
        directory = str(directory)
        if os.path.isfile(directory):
            self._reject_regular_file(directory)
        self.directory = directory
        self._entries: Dict[int, dict] = {}
        self._maps: Dict[int, Tuple[mmap.mmap, dict, int]] = {}
        self._segments_written = 0
        # Aggregate segments are keyed (level, start); their maps are
        # cached separately from the per-epoch ones.
        self._aggregates: Dict[Tuple[int, int], dict] = {}
        self._agg_maps: Dict[Tuple[int, int], Tuple[mmap.mmap, dict, int]] = {}
        self._manifest_dirty = False
        # File names MANIFEST.json on disk references: never overwritten,
        # and unlinked only once a manifest without them is durable.
        self._durable: set = set()
        # Names this object may have left on disk unreferenced: files
        # written since the last manifest save, staging files and files
        # whose unlink failed.  After the first (full) orphan sweep, the
        # only names a sweep visits.
        self._suspects: set = set()
        self._swept = False
        manifest_path = self.manifest_path
        if os.path.exists(manifest_path):
            self._load_manifest(manifest_path)
            if spec is not None and spec_fingerprint(spec) != self._spec_hash:
                raise SerializationError(
                    f"epoch store {directory} was written for a different "
                    f"protocol configuration: manifest spec hash "
                    f"{self._spec_hash} != {spec_fingerprint(spec)} for "
                    f"spec {spec}"
                )
        else:
            if not create:
                raise SerializationError(
                    f"no epoch store at {directory}: {MANIFEST_NAME} is missing"
                )
            if spec is None:
                raise SerializationError(
                    f"creating a fresh epoch store at {directory} requires a "
                    "protocol spec"
                )
            self._spec = dict(spec)
            self._spec_hash = spec_fingerprint(spec)
            os.makedirs(directory, exist_ok=True)
            self.save_manifest()

    @staticmethod
    def _reject_regular_file(path: str) -> None:
        """A store path that is a file is a usage error; name the likely fix."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            data = b""
        if data.startswith(_ENVELOPE_MAGIC):
            raise SerializationError(
                f"{path} is a monolithic engine checkpoint, which this build "
                "no longer reads; to migrate it, open it with repro 1.10.0 "
                "(Engine.restore(path)), then attach_store(dir) and "
                "checkpoint()"
            )
        try:
            is_state = "state_kind" in peek_header(data)
        except SerializationError:
            is_state = False
        if is_state:
            raise SerializationError(
                f"{path} is a server state file, not an epoch store "
                "directory; merge --states reads it"
            )
        raise SerializationError(
            f"{path} is a regular file, not an epoch store directory"
        )

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def spec(self) -> dict:
        """The protocol spec recorded in the manifest."""
        return dict(self._spec)

    @property
    def spec_hash(self) -> str:
        """The manifest's fingerprint of the protocol spec."""
        return self._spec_hash

    @property
    def segments_written(self) -> int:
        """Segments written since this store object was opened."""
        return self._segments_written

    def _load_manifest(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"corrupt epoch store manifest {path}: {exc}"
            ) from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("manifest_kind") != MANIFEST_KIND
        ):
            raise SerializationError(
                f"corrupt epoch store manifest {path}: manifest_kind "
                f"{manifest.get('manifest_kind') if isinstance(manifest, dict) else None!r} "
                f"is not {MANIFEST_KIND!r}"
            )
        if manifest.get("format") not in _READABLE_MANIFEST_FORMATS:
            raise SerializationError(
                f"epoch store manifest format {manifest.get('format')!r} is "
                f"not supported by this build (expected 1 or {MANIFEST_FORMAT})"
            )
        spec = manifest.get("protocol")
        if not isinstance(spec, dict):
            raise SerializationError(
                f"corrupt epoch store manifest {path}: no protocol spec"
            )
        self._spec = spec
        self._spec_hash = str(manifest.get("spec_hash", ""))
        if self._spec_hash != spec_fingerprint(spec):
            raise SerializationError(
                f"corrupt epoch store manifest {path}: recorded spec hash "
                f"{self._spec_hash} does not match its own protocol spec"
            )
        entries = manifest.get("epochs", {})
        if not isinstance(entries, dict):
            raise SerializationError(
                f"corrupt epoch store manifest {path}: 'epochs' must be an object"
            )
        self._entries = {}
        for key, entry in entries.items():
            try:
                epoch = int(key)
            except (TypeError, ValueError):
                raise SerializationError(
                    f"corrupt epoch store manifest {path}: epoch key {key!r} "
                    "is not an integer"
                ) from None
            if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
                raise SerializationError(
                    f"corrupt epoch store manifest {path}: entry for epoch "
                    f"{epoch} does not name its segment file"
                )
            self._entries[epoch] = dict(entry)
        aggregates = manifest.get("aggregates", {})
        if not isinstance(aggregates, dict):
            raise SerializationError(
                f"corrupt epoch store manifest {path}: 'aggregates' must be "
                "an object"
            )
        self._aggregates = {}
        for key, entry in aggregates.items():
            try:
                level_text, start_text = str(key).split(":", 1)
                level, start = int(level_text), int(start_text)
            except ValueError:
                raise SerializationError(
                    f"corrupt epoch store manifest {path}: aggregate key "
                    f"{key!r} is not 'level:start'"
                ) from None
            if not isinstance(entry, dict) or not isinstance(entry.get("file"), str):
                raise SerializationError(
                    f"corrupt epoch store manifest {path}: aggregate entry "
                    f"{key!r} does not name its segment file"
                )
            self._aggregates[(level, start)] = dict(entry)
        self._durable = self._referenced_files()

    def save_manifest(self) -> None:
        """Atomically rewrite and fsync the manifest (always written last).

        Segment writes happen first; only once every referenced segment
        is durable does the manifest rename land, so a crash at any
        point leaves a manifest whose entries all point at valid files.
        Files the previous manifest referenced and this one does not are
        unlinked only after the rename is durable.
        """
        from repro import __version__  # deferred: repro imports engine

        manifest = {
            "manifest_kind": MANIFEST_KIND,
            "format": MANIFEST_FORMAT,
            "version": __version__,
            "protocol": self._spec,
            "spec_hash": self._spec_hash,
            "epochs": {
                str(epoch): self._entries[epoch] for epoch in sorted(self._entries)
            },
        }
        if self._aggregates:
            manifest["aggregates"] = {
                f"{level}:{start}": self._aggregates[(level, start)]
                for level, start in sorted(self._aggregates)
            }
        # Compact separators keep the C encoder engaged (indent= falls back
        # to the pure-Python one), which matters at thousands of epochs.
        encoded = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        temp_path = f"{self.manifest_path}.tmp.{os.getpid()}"
        try:
            with open(temp_path, "wb") as handle:
                handle.write(encoded)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.manifest_path)
        finally:
            if os.path.exists(temp_path):  # pragma: no cover - crash cleanup
                self._suspects.add(os.path.basename(temp_path))
                os.unlink(temp_path)
        _fsync_directory(self.directory)
        self._manifest_dirty = False
        referenced = self._referenced_files()
        stale, self._durable = self._durable - referenced, referenced
        self._suspects -= referenced
        for name in sorted(stale):
            self._discard_file(name)

    def _referenced_files(self) -> set:
        """Every file name the in-memory manifest references."""
        names = {entry["file"] for entry in self._entries.values()}
        names.update(entry["file"] for entry in self._aggregates.values())
        return names

    def _fresh_name(self, stem: str) -> str:
        """``stem.seg``, else ``stem.N.seg`` with the smallest ``N`` MANIFEST.json lacks."""
        name, index = f"{stem}.seg", 0
        while name in self._durable:
            index += 1
            name = f"{stem}.{index}.seg"
        return name

    def _discard_file(self, name: str) -> None:
        """Unlink a file no entry references, unless MANIFEST.json still does.

        A file the on-disk manifest references is left in place; the next
        :meth:`save_manifest` unlinks it once a manifest without it is
        durable.
        """
        if name in self._durable:
            return
        try:
            os.unlink(os.path.join(self.directory, name))
        except FileNotFoundError:
            pass
        except OSError:
            self._suspects.add(name)  # the next sweep retries it
            return
        self._suspects.discard(name)

    def discard_orphans(self) -> None:
        """Unlink every store file that no manifest references.

        A crash between a segment rename and the manifest save leaves a
        ``stem.N.seg`` or a ``*.tmp.<pid>`` staging file, and a crash
        after the save leaves the segment it replaced; nothing else ever
        removes them.  Only the names this store writes are considered.
        Run it right after a manifest save (``Engine.checkpoint()`` does)
        and never at open: a reader may open the store while its writer
        sits between a segment rename and the manifest save.

        The first call on a store object lists the whole directory, for
        what earlier processes left; later calls visit only the names
        this object may have left unreferenced since (files written but
        not yet in a saved manifest, staging files, failed unlinks), so
        their cost follows the checkpoint's writes, not the store's size.
        """
        names = self._suspects if self._swept else os.listdir(self.directory)
        self._suspects, self._swept = set(), True
        if not names:  # the usual case once swept: nothing to look up
            return
        keep = self._durable | self._referenced_files()
        for name in sorted(names):
            if name not in keep and any(
                fnmatch.fnmatchcase(name, pattern) for pattern in _STORE_FILE_PATTERNS
            ):
                self._discard_file(name)

    @property
    def manifest_dirty(self) -> bool:
        """Whether the in-memory manifest has outrun MANIFEST.json.

        Set by segment writes, dirty marks and aggregate builds/drops;
        cleared by :meth:`save_manifest`.  A fully clean ``checkpoint()``
        consults this to skip the tmp+fsync+rename cycle entirely.
        """
        return self._manifest_dirty

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def epochs(self) -> List[int]:
        """Epoch keys with a manifest entry, in ascending order."""
        return sorted(self._entries)

    def __contains__(self, epoch: int) -> bool:
        return int(epoch) in self._entries

    def has_segment(self, epoch: int) -> bool:
        """Whether ``epoch`` has a clean (non-dirty) manifest entry."""
        entry = self._entries.get(int(epoch))
        return entry is not None and not entry.get("dirty", False)

    def n_reports(self, epoch: int) -> int:
        """The report count the manifest records for ``epoch``."""
        return int(self._entry(epoch).get("n_reports", 0))

    def on_disk_size(self, epoch: int) -> int:
        """The segment byte size the manifest records for ``epoch``."""
        return int(self._entry(epoch).get("size", 0))

    def total_bytes(self) -> int:
        """Total on-disk segment bytes across every epoch."""
        return sum(int(entry.get("size", 0)) for entry in self._entries.values())

    def supports_pushdown(self, epoch: int) -> bool:
        """Whether ``epoch``'s segment holds vectors (else a packed state)."""
        return bool(self._entry(epoch).get("pushdown", False))

    def _entry(self, epoch: int) -> dict:
        entry = self._entries.get(int(epoch))
        if entry is None:
            raise SerializationError(
                f"epoch {int(epoch)} is not in the store at {self.directory}; "
                f"known epochs: {self.epochs()}"
            )
        return entry

    def segment_path(self, epoch: int) -> str:
        return os.path.join(self.directory, self._entry(epoch)["file"])

    # ------------------------------------------------------------------ #
    # segment I/O
    # ------------------------------------------------------------------ #
    def write_segment(self, epoch: int, state: CompositeAccumulator) -> str:
        """Persist one epoch's accumulator as its own durable segment.

        The segment holds the state's pushdown vectors or, when it has
        none (SHE), its packed bytes.  It is staged in a temporary sibling, fsync'd and
        renamed to a name the on-disk manifest does not reference, so a
        crash mid-write never damages the segment that manifest reads.
        The in-memory manifest entry is updated (clean) but *not* saved
        -- callers batch segment writes and call :meth:`save_manifest`
        once, after every segment is durable.
        """
        epoch = int(epoch)
        pushdown = _pushdown_description(state)
        blob = pack_epoch_segment(
            epoch,
            self._spec_hash,
            n_reports=state.n_reports,
            state_blob=None if pushdown is not None else state.to_bytes(),
            pushdown=pushdown,
        )
        name = self._fresh_name(f"epoch-{epoch:08d}")
        path = self._write_file(name, blob, durable=True)
        self._drop_map(epoch)
        previous = self._entries.get(epoch)
        if previous is not None and previous["file"] != name:
            self._discard_file(previous["file"])
        self._entries[epoch] = {
            "file": name,
            "n_reports": int(state.n_reports),
            "size": len(blob),
            "pushdown": pushdown is not None,
            "dirty": False,
        }
        self._segments_written += 1
        self._manifest_dirty = True
        # A rewritten leaf invalidates every aggregate that folded the old
        # contents in; they are rebuilt lazily once the block is clean.
        self._invalidate_aggregates(epoch)
        return path

    def _write_file(self, name: str, blob: bytes, *, durable: bool) -> str:
        """Stage ``blob`` in a temporary sibling and rename it to ``name``.

        ``durable`` fsyncs the staged bytes before the rename.
        """
        path = os.path.join(self.directory, name)
        temp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(temp_path, "wb") as handle:
                handle.write(blob)
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(temp_path, path)
        finally:
            if os.path.exists(temp_path):  # pragma: no cover - crash cleanup
                self._suspects.add(os.path.basename(temp_path))
                os.unlink(temp_path)
        self._suspects.add(name)  # unreferenced until a manifest names it
        return path

    def mark_dirty(self, epoch: int) -> None:
        """Record that ``epoch``'s live state has outrun its segment.

        Also drops every aggregate covering the epoch: an aggregate is
        only valid while all of its leaves are clean.  Idempotent (and
        cheap) once the entry is already dirty, so per-report mutation
        hooks can call it freely.
        """
        entry = self._entries.get(int(epoch))
        if entry is not None and not entry.get("dirty", False):
            entry["dirty"] = True
            self._manifest_dirty = True
            self._invalidate_aggregates(int(epoch))

    # ------------------------------------------------------------------ #
    # aggregate segments
    # ------------------------------------------------------------------ #
    def aggregate_keys(self) -> List[Tuple[int, int]]:
        """Present aggregates as sorted ``(level, start)`` pairs."""
        return sorted(self._aggregates)

    def has_aggregate(self, level: int, start: int) -> bool:
        """Whether the aggregate block ``(level, start)`` is materialized."""
        return (int(level), int(start)) in self._aggregates

    def aggregate_bytes(self) -> int:
        """Total on-disk bytes across every aggregate segment."""
        return sum(int(entry.get("size", 0)) for entry in self._aggregates.values())

    def aggregate_stats(self) -> dict:
        """Summary of the aggregate hierarchy for observability surfaces."""
        levels: Dict[str, int] = {}
        for level, _ in self._aggregates:
            levels[str(level)] = levels.get(str(level), 0) + 1
        return {
            "segments": len(self._aggregates),
            "bytes": self.aggregate_bytes(),
            "max_level": MAX_AGGREGATE_LEVEL,
            "levels": {key: levels[key] for key in sorted(levels, key=int)},
        }

    def aggregate_entries(self) -> List[dict]:
        """One descriptive dict per aggregate, sorted by (level, start)."""
        return [
            {
                "level": level,
                "start": start,
                "count": 1 << level,
                "file": entry.get("file"),
                "n_reports": int(entry.get("n_reports", 0)),
                "size": int(entry.get("size", 0)),
            }
            for (level, start), entry in sorted(self._aggregates.items())
        ]

    def _aggregate_eligible(self, epoch: int) -> bool:
        """Whether ``epoch`` may participate in an aggregate block."""
        entry = self._entries.get(int(epoch))
        return (
            entry is not None
            and not entry.get("dirty", False)
            and bool(entry.get("pushdown", False))
        )

    def build_aggregates(self, epochs: Optional[Sequence[int]] = None) -> int:
        """Materialize every missing aggregate block that is now complete.

        With ``epochs`` (the incremental form used at seal time), only
        blocks covering those epochs are considered; without it, the
        whole store is swept (the ``checkpoint()`` form).  A block is
        built when every leaf in it has a clean, pushdown-capable
        segment; levels build bottom-up so a level-L block sums its two
        level-(L-1) halves rather than 2**L leaves.  Returns the number
        of aggregates written.
        """
        if epochs is None:
            candidates = [
                epoch for epoch in self._entries if self._aggregate_eligible(epoch)
            ]
        else:
            candidates = [int(epoch) for epoch in epochs]
        built = 0
        for level in range(1, MAX_AGGREGATE_LEVEL + 1):
            size = 1 << level
            starts = sorted({(epoch // size) * size for epoch in candidates})
            for start in starts:
                if (level, start) in self._aggregates:
                    continue
                # Both ends first: during sequential sealing the block's
                # last epoch is almost always the missing one, so this
                # constant-time probe skips the full scan.
                if not (
                    self._aggregate_eligible(start)
                    and self._aggregate_eligible(start + size - 1)
                ):
                    continue
                if not all(
                    self._aggregate_eligible(epoch)
                    for epoch in range(start, start + size)
                ):
                    continue
                self._write_aggregate(level, start)
                built += 1
        return built

    def _write_aggregate(self, level: int, start: int) -> str:
        """Materialize one aggregate block from its children.

        The merged state is gathered through :meth:`pushdown_state`, so
        a level-L build reuses the level-(L-1) aggregates the bottom-up
        sweep just wrote.  Unlike leaf segments, aggregates are staged
        and renamed but **not** fsync'd: they are derived data, cheap to
        rebuild and validated by CRC on read, and skipping the fsync
        keeps incremental checkpoints O(dirty) in *durable* writes.
        """
        size = 1 << level
        state = self.pushdown_state(range(start, start + size))
        blob = pack_epoch_segment(
            start,
            self._spec_hash,
            n_reports=state.n_reports,
            pushdown=_pushdown_description(state),
            aggregate={"level": level, "start": start, "count": size},
        )
        name = self._fresh_name(f"agg-L{level}-{start:08d}")
        path = self._write_file(name, blob, durable=False)
        key = (level, start)
        self._drop_agg_map(key)
        self._aggregates[key] = {
            "file": name,
            "level": level,
            "start": start,
            "count": size,
            "n_reports": int(state.n_reports),
            "size": len(blob),
        }
        self._manifest_dirty = True
        return path

    def _invalidate_aggregates(self, epoch: int) -> None:
        """Drop every aggregate whose block covers ``epoch``."""
        if not self._aggregates:
            return
        doomed = [
            key
            for key in self._aggregates
            if key[1] <= epoch < key[1] + (1 << key[0])
        ]
        for key in doomed:
            self._discard_aggregate(key)

    def _discard_aggregate(self, key: Tuple[int, int]) -> None:
        """Forget one aggregate and best-effort unlink its file."""
        entry = self._aggregates.pop(key, None)
        if entry is None:
            return
        self._drop_agg_map(key)
        self._manifest_dirty = True
        self._discard_file(entry["file"])

    def _drop_agg_map(self, key: Tuple[int, int]) -> None:
        cached = self._agg_maps.pop(key, None)
        if cached is not None:
            self._close_map(cached[0])

    def _map_aggregate(self, level: int, start: int) -> Tuple[mmap.mmap, dict, int]:
        """Memory-map and validate one aggregate segment (cached)."""
        key = (int(level), int(start))
        cached = self._agg_maps.get(key)
        if cached is None:
            entry = self._aggregates.get(key)
            if entry is None:
                raise SerializationError(
                    f"aggregate L{key[0]} @ {key[1]} is not in the store at "
                    f"{self.directory}"
                )
            cached = self._agg_maps[key] = self._open_segment(
                os.path.join(self.directory, str(entry["file"])),
                f"aggregate segment L{key[0]} @ {key[1]}",
                {"aggregate": {"level": key[0], "start": key[1], "count": 1 << key[0]}},
            )
        return cached

    def plan_window(
        self, epochs: Sequence[int], *, use_aggregates: bool = True
    ) -> List[PlanNode]:
        """The aggregate+leaf cover plan for a resolved sealed window."""
        keys = [int(epoch) for epoch in epochs]
        if not use_aggregates or not self._aggregates:
            return [(PLAN_EPOCH, epoch) for epoch in keys]
        return plan_cover(keys, self.has_aggregate, MAX_AGGREGATE_LEVEL)

    def _drop_map(self, epoch: int) -> None:
        cached = self._maps.pop(int(epoch), None)
        if cached is not None:
            self._close_map(cached[0])

    @staticmethod
    def _close_map(mapped: mmap.mmap) -> None:
        """Close a map, tolerating still-exported views (GC reclaims them)."""
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - depends on caller's refs
            pass

    def _open_segment(
        self, path: str, what: str, stamp: dict
    ) -> Tuple[mmap.mmap, dict, int]:
        """Memory-map one segment file and validate it, exactly once.

        Validation -- magic, CRC over the whole file, layout, the
        ``stamp`` (header fields that must hold exactly these values),
        spec hash -- happens here; every later zero-copy view rides on
        it.  Every error names ``what`` (the epoch or block) and the
        file, and the map is closed before it propagates.
        """
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise SerializationError(
                f"{what} is missing from the store at {self.directory}: {exc}"
            ) from exc
        with handle:
            try:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise SerializationError(
                    f"could not map {what} at {path}: {exc}"
                ) from exc
        try:
            header, body_offset = read_epoch_segment(mapped)
            for field, value in stamp.items():
                if header.get(field) != value:
                    raise SerializationError(
                        f"it is stamped {field} {header.get(field)!r}, not {value!r}"
                    )
            if header.get("spec_hash") != self._spec_hash:
                raise SerializationError(
                    "it was written for a different protocol configuration: "
                    f"segment spec hash {header.get('spec_hash')!r} != "
                    f"manifest spec hash {self._spec_hash!r}"
                )
        except SerializationError as exc:
            self._close_map(mapped)
            raise SerializationError(f"corrupt {what} at {path}: {exc}") from exc
        except BaseException:  # pragma: no cover - resource hygiene
            self._close_map(mapped)
            raise
        return mapped, header, body_offset

    def _map_segment(self, epoch: int) -> Tuple[mmap.mmap, dict, int]:
        """Memory-map and validate one epoch's segment (cached)."""
        epoch = int(epoch)
        cached = self._maps.get(epoch)
        if cached is None:
            cached = self._maps[epoch] = self._open_segment(
                self.segment_path(epoch), f"segment for epoch {epoch}", {"epoch": epoch}
            )
        return cached

    def load_state(self, epoch: int) -> CompositeAccumulator:
        """One sealed epoch's full accumulator state, as a fresh copy.

        A segment with vectors is gathered as a one-node plan (fresh,
        writable int64 arrays); a packed state (SHE) is decoded.  The
        state's ``meta`` carries its epoch key either way.
        """
        epoch = int(epoch)
        if self.supports_pushdown(epoch):
            state = self._gather_plan([(PLAN_EPOCH, epoch)])
        else:
            mapped, header, body_offset = self._map_segment(epoch)
            try:
                state = AccumulatorState.from_bytes(
                    segment_state_bytes(mapped, header, body_offset)
                )
            except SerializationError as exc:
                raise SerializationError(
                    f"corrupt accumulator state in segment for epoch {epoch}: {exc}"
                ) from exc
            if not isinstance(state, CompositeAccumulator):
                raise SerializationError(
                    f"segment for epoch {epoch} does not hold a composite "
                    f"accumulator (got {type(state).__name__})"
                )
        state.meta.setdefault("epoch", epoch)
        return state

    def pushdown_state(
        self, epochs: Sequence[int], *, use_aggregates: bool = True
    ) -> Optional[CompositeAccumulator]:
        """The exact merged state of ``epochs``, ``None`` for no epochs.

        Plans the window as a cover of aggregate blocks plus leaf
        segments (:meth:`plan_window`), then sums the mapped int64
        sufficient-statistic vectors of every plan node elementwise with
        the blocked ``column_sums`` kernel -- bit-identical to
        merging the full accumulators, since integer addition is
        associative and commutative -- and rebuilds one
        :class:`~repro.core.session.CompositeAccumulator` from the
        totals.  A contiguous window backed by a full hierarchy reads
        O(log k) segments instead of k.  When any selected segment holds
        a packed state instead of vectors (SHE), every selected epoch is
        loaded and merged, which is still exact.  An unreadable
        *aggregate* is dropped and the window re-planned from its leaves
        -- aggregates are derived data, so their corruption is repaired,
        not raised.
        """
        epochs = [int(epoch) for epoch in epochs]
        if not epochs:
            return None
        if not all(self.supports_pushdown(epoch) for epoch in epochs):
            merged: Optional[CompositeAccumulator] = None
            for epoch in epochs:
                state = self.load_state(epoch)
                merged = state if merged is None else merged.merge(state)
            return merged
        while True:
            plan = self.plan_window(epochs, use_aggregates=use_aggregates)
            try:
                return self._gather_plan(plan)
            except _AggregateUnusable as exc:
                self._discard_aggregate(exc.key)

    def _gather_plan(self, plan: Sequence[PlanNode]) -> CompositeAccumulator:
        """Zero-copy gather and sum over one cover plan's segments."""
        base: Optional[dict] = None
        names: List[List[str]] = []
        shapes: List[List[tuple]] = []
        views: List[List[List[np.ndarray]]] = []
        child_reports: List[int] = []
        n_users = 0
        for node in plan:
            if node[0] == PLAN_AGGREGATE:
                key = (node[1], node[2])
                label = f"aggregate L{key[0]} @ {key[1]}"
                try:
                    mapped, header, body_offset = self._map_aggregate(*key)
                    children = segment_pushdown_children(mapped, header, body_offset)
                except SerializationError as exc:
                    raise _AggregateUnusable(key, exc) from exc
            else:
                label = f"segment for epoch {node[1]}"
                mapped, header, body_offset = self._map_segment(node[1])
                children = segment_pushdown_children(mapped, header, body_offset)
            pushdown = header["pushdown"]
            if base is None:
                base = pushdown
                for child in children:
                    child_names = list(child["vectors"])
                    names.append(child_names)
                    shapes.append(
                        [child["vectors"][name].shape for name in child_names]
                    )
                    views.append(
                        [
                            [child["vectors"][name].reshape(-1)]
                            for name in child_names
                        ]
                    )
                    child_reports.append(child["n_reports"])
            else:
                if len(children) != len(views):
                    raise SerializationError(
                        f"{label} has {len(children)} pushdown children; the "
                        f"window's first segment has {len(views)}"
                    )
                for index, child in enumerate(children):
                    for position, name in enumerate(names[index]):
                        views[index][position].append(
                            child["vectors"][name].reshape(-1)
                        )
                    child_reports[index] += child["n_reports"]
            n_users += int(pushdown["n_users"])
        column_sums = kernels.column_sums
        children_states: List[AccumulatorState] = []
        for index in range(len(views)):
            vectors = {
                name: column_sums(views[index][position]).reshape(
                    shapes[index][position]
                )
                for position, name in enumerate(names[index])
            }
            children_states.append(
                OracleAccumulator(
                    oracle_kind=base["children"][index]["oracle_kind"],
                    config=base["children"][index]["config"],
                    vectors=vectors,
                    n_reports=child_reports[index],
                )
            )
        return CompositeAccumulator(
            label=base["label"],
            config=base["config"],
            children=children_states,
            n_users=n_users,
        )

    def close(self) -> None:
        """Release every cached memory map (leaf and aggregate)."""
        for epoch in list(self._maps):
            self._drop_map(epoch)
        for key in list(self._agg_maps):
            self._drop_agg_map(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochStore({self.directory!r}, epochs={self.epochs()}, "
            f"bytes={self.total_bytes()})"
        )
