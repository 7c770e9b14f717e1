"""Tests for the durable ingest WAL (:mod:`repro.service.wal`).

The WAL's contract is the spine of the service's exactly-once story:
every record appended before an acknowledgement must survive any
process death (flush-to-OS durability), a torn tail must be dropped
silently (a torn record was never acknowledged), and the segment
lifecycle -- open while the epoch is in flight, discarded once the epoch
store holds the sealed epoch -- must hold exactly the batches whose
reports are not yet durable elsewhere.
"""

import os

import pytest

from repro.core.serialization import (
    MAGIC_WAL,
    SerializationError,
    pack_wal_record,
    pack_wal_segment_header,
    read_wal_segment_header,
    scan_wal_segment,
)
from repro.service.faults import truncate_wal_tail
from repro.service.wal import IngestWAL


class TestWalFraming:
    def test_record_round_trip(self):
        header = pack_wal_segment_header(epoch=3)
        records = [
            pack_wal_record({"key": "a", "worker": 0, "n_users": 10}, b"blob-a"),
            pack_wal_record({"key": "b", "worker": 1, "n_users": 20}, b""),
        ]
        head, parsed, torn = scan_wal_segment(header + b"".join(records))
        assert head["epoch"] == 3
        assert torn is None
        assert [meta["key"] for meta, _ in parsed] == ["a", "b"]
        assert [blob for _, blob in parsed] == [b"blob-a", b""]

    def test_header_peek(self):
        data = pack_wal_segment_header(epoch=7)
        header, offset = read_wal_segment_header(data)
        assert header["epoch"] == 7
        assert offset == len(data)
        assert data.startswith(MAGIC_WAL)

    def test_wrong_magic_is_refused(self):
        with pytest.raises(SerializationError, match="magic"):
            read_wal_segment_header(b"REPROACC\x01" + b"\x00" * 32)
        with pytest.raises(SerializationError):
            scan_wal_segment(b"junk")

    def test_torn_tail_is_dropped_not_fatal(self):
        header = pack_wal_segment_header(epoch=0)
        good = pack_wal_record({"key": "k0", "worker": 0}, b"payload")
        torn = pack_wal_record({"key": "k1", "worker": 1}, b"lost")[:-3]
        _, records, torn_offset = scan_wal_segment(header + good + torn)
        assert [meta["key"] for meta, _ in records] == ["k0"]
        assert torn_offset == len(header) + len(good)

    def test_corrupt_crc_is_dropped(self):
        header = pack_wal_segment_header(epoch=0)
        record = bytearray(pack_wal_record({"key": "k", "worker": 0}, b"data"))
        record[-1] ^= 0xFF  # flip a payload bit: CRC no longer matches
        _, records, torn_offset = scan_wal_segment(header + bytes(record))
        assert records == []
        assert torn_offset == len(header)


class TestIngestWalLifecycle:
    def test_append_flush_scan_round_trip(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"batch-0", key="k0", worker=0, n_users=50)
        wal.append(0, b"batch-1", key="k1", worker=1, n_users=25)
        # a fresh scanner (a "restarted gateway") sees every append even
        # though the writing handle is still open
        scan = IngestWAL(str(tmp_path)).scan()
        assert len(scan) == 1
        segment = scan[0]
        assert segment.epoch == 0
        assert segment.n_reports == 75
        assert [meta["worker"] for meta, _ in segment.records] == [0, 1]
        wal.close()

    def test_discard_keeps_the_other_segments(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(2, b"b2", key="k2", worker=1)
        wal.append(0, b"b0", key="k0", worker=0)
        wal.append(1, b"b1", key="k1", worker=0)
        assert [s.epoch for s in wal.scan()] == [0, 1, 2]

        # an epoch store taking epoch 1 drops only that segment
        wal.discard(1)
        assert [s.epoch for s in wal.scan()] == [0, 2]
        assert [meta["key"] for meta, _ in wal.scan()[1].records] == ["k2"]
        wal.discard(7)  # an epoch that never logged a record: a no-op
        assert [s.epoch for s in wal.scan()] == [0, 2]
        wal.close()

    def test_read_epoch_sees_unflushed_appends(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(4, b"live", key="k", worker=2, n_users=9)
        records = wal.read_epoch(4)
        assert len(records) == 1
        assert records[0][0] == {"key": "k", "worker": 2, "n_users": 9}
        assert records[0][1] == b"live"
        assert wal.read_epoch(99) == []
        wal.close()

    def test_truncated_tail_recovers_acked_prefix(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"acked-one", key="k0", worker=0, n_users=5)
        wal.append(0, b"acked-two", key="k1", worker=1, n_users=5)
        wal.close()
        path = wal.segment_path(0)
        truncate_wal_tail(path, 4)  # tear the last record mid-write
        segment = IngestWAL(str(tmp_path)).scan()[0]
        assert [meta["key"] for meta, _ in segment.records] == ["k0"]
        assert segment.torn_offset is not None

    def test_discard_removes_the_segment_file(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"x", key="k", worker=0)
        wal.discard(0)
        assert wal.scan() == []
        assert not os.listdir(str(tmp_path))
        wal.close()

    def test_stats_counts_segments_and_bytes(self, tmp_path):
        wal = IngestWAL(str(tmp_path), sync=False)
        wal.append(0, b"abc", key="k0", worker=0)
        wal.append(1, b"defg", key="k1", worker=0)
        stats = wal.stats()
        assert stats["records_appended"] == 2
        assert stats["bytes_appended"] > 7
        assert stats["open_segments"] == 2
        assert stats["sync"] is False
        wal.close()
