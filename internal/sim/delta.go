package sim

// Delta-encoded snapshots: between two captures of a run, the only job
// records that change are those of jobs that transitioned (every change
// to a job goes through job.transition, which stamps StateSince) and
// those of jobs submitted in between. So a delta carries the new
// snapshot's bytes before its job records verbatim — header and
// non-job sections, which are small — and then only the changed
// records, as (index, record) patches over the base's jobs section.
//
// The checkpointer patches every record at or past the base's
// submitted prefix and every record whose StateSince is at or after
// the base's capture time; the codec itself takes any ascending index
// list that covers the records that differ.
//
// A delta is framed independently of the full-snapshot format (NBSD
// v2): its own magic, version, the patches, and three integrity
// anchors — the body CRC of the base it chains from (so applying
// against the wrong base fails before any bytes are produced), the body
// CRC of the reconstruction (so a corrupt delta cannot yield a
// plausible-but-wrong snapshot), and a trailer CRC of the delta bytes
// themselves. The anchors are body CRCs, the words a snapshot's trailer
// holds: a CRC-32C over a whole snapshot, trailer included, is the same
// constant for every well-formed snapshot (the CRC residue), so it
// would bind a delta to no particular base. Every failure is
// ErrSnapshotMismatch, the same contract as full-snapshot corruption.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"netbatch/internal/snap"
)

const (
	deltaMagic   = uint32(0x4e425344) // "NBSD"
	deltaVersion = uint32(2)
	// deltaPatchLen is one patch: the record's index and its bytes.
	deltaPatchLen = 8 + jobRecLen
)

// IsDeltaSnapshot reports whether data is a delta-encoded snapshot
// (Checkpoint.Delta set) rather than a full one. It inspects only the
// magic; validation happens in ApplySnapshotDelta.
func IsDeltaSnapshot(data []byte) bool {
	return len(data) >= 8 && uint32(binary.LittleEndian.Uint64(data)) == deltaMagic
}

// deltaMeta is the header of a delta snapshot.
type deltaMeta struct {
	// BaseTime/BaseEvents locate the snapshot this delta chains from;
	// Time/Events locate the snapshot it reconstructs.
	BaseTime   float64
	BaseEvents int64
	Time       float64
	Events     int64
}

// openDelta verifies the trailer CRC, magic and version, returning a
// decoder positioned after the version word.
func openDelta(data []byte) (*snap.Decoder, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("%w: truncated delta snapshot", ErrSnapshotMismatch)
	}
	body, sum := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if uint64(crc32.Checksum(body, castagnoli)) != sum {
		return nil, fmt.Errorf("%w: delta checksum mismatch (snapshot corrupted)", ErrSnapshotMismatch)
	}
	d := snap.NewDecoder(body)
	if magic := d.U64(); d.Err() == nil && uint32(magic) != deltaMagic {
		return nil, fmt.Errorf("%w: bad delta magic %#x", ErrSnapshotMismatch, magic)
	}
	if version := d.U64(); d.Err() == nil && uint32(version) != deltaVersion {
		return nil, fmt.Errorf("%w: delta format version %d, this build reads %d",
			ErrSnapshotMismatch, version, deltaVersion)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return d, nil
}

// deltaLen is the size of the delta encodeSnapshotDelta writes for a
// head of the given length and n patches, so the checkpointer can
// compare it with the full snapshot's size before encoding either.
func deltaLen(head, n int) int {
	// Magic, version, base CRC and the two boundaries; the head and the
	// patches, each behind a length word, with the record count between
	// them; the reconstruction CRC and the trailer.
	return 7*8 + 8 + head + 8 + 8 + n*deltaPatchLen + 2*8
}

// encodeSnapshotDelta frames the delta that turns the base (whose body
// CRC-32C is baseCRC) into the snapshot made of head, the bytes before
// its job records, and recs, its records (body CRC-32C fullCRC). patch
// lists, in ascending order, the indices of the records to carry: at
// least every record past the base's prefix and every record that
// differs from the base's. The output is allocated at its exact size.
func encodeSnapshotDelta(m deltaMeta, baseCRC, fullCRC uint32, head, recs []byte, patch []int) []byte {
	e := snap.Encoder{Buf: make([]byte, 0, deltaLen(len(head), len(patch)))}
	e.U64(uint64(deltaMagic))
	e.U64(uint64(deltaVersion))
	e.U64(uint64(baseCRC))
	e.F64(m.BaseTime)
	e.I64(m.BaseEvents)
	e.F64(m.Time)
	e.I64(m.Events)
	e.Bytes(head)
	e.Int(len(recs) / jobRecLen)
	e.Int(len(patch) * deltaPatchLen)
	for _, i := range patch {
		e.Int(i)
		e.Buf = append(e.Buf, recs[i*jobRecLen:(i+1)*jobRecLen]...)
	}
	e.U64(uint64(fullCRC))
	e.U64(uint64(crc32.Checksum(e.Buf, castagnoli)))
	return e.Buf
}

// ApplySnapshotDelta reconstructs the full snapshot a delta encodes,
// given the exact snapshot bytes it was encoded against (the previous
// snapshot in the emission order — itself possibly reconstructed from
// an earlier delta). Any mismatch — corrupted delta, wrong base,
// out-of-range patch — fails with ErrSnapshotMismatch and produces
// nothing. The output is the new snapshot's head, the base's job
// records up to the new record count with the patches applied, and the
// trailer: the bytes the capture would have written in full.
func ApplySnapshotDelta(base, delta []byte) ([]byte, error) {
	d, err := openDelta(delta)
	if err != nil {
		return nil, err
	}
	baseCRC := d.U64()
	_ = d.F64() // baseTime
	_ = d.I64() // baseEvents
	_ = d.F64() // newTime
	_ = d.I64() // newEvents
	head := d.Bytes()
	nRec := d.U64()
	patches := d.Bytes()
	wantCRC := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in delta", ErrSnapshotMismatch, d.Len())
	}
	if len(base) < 8 || binary.LittleEndian.Uint64(base[len(base)-8:]) != baseCRC ||
		uint64(crc32.Checksum(base[:len(base)-8], castagnoli)) != baseCRC {
		return nil, fmt.Errorf("%w: delta does not chain from this base snapshot", ErrSnapshotMismatch)
	}
	bsn, err := parseSnapshot(base[:len(base)-8])
	if err != nil {
		return nil, err
	}
	nBase := len(bsn.jobs) / jobRecLen
	if len(patches)%deltaPatchLen != 0 {
		return nil, fmt.Errorf("%w: delta patch area of %d bytes", ErrSnapshotMismatch, len(patches))
	}
	nPatch := len(patches) / deltaPatchLen
	// Every record past the base's prefix is patched, so the record
	// count is bounded by the bytes at hand.
	if nRec > uint64(nBase+nPatch) {
		return nil, fmt.Errorf("%w: delta declares %d records over a base of %d and %d patches",
			ErrSnapshotMismatch, nRec, nBase, nPatch)
	}
	n := int(nRec)
	if len(head) < 8 || binary.LittleEndian.Uint64(head[len(head)-8:]) != uint64(n*jobRecLen) {
		return nil, fmt.Errorf("%w: delta head does not end in the jobs section of its %d records", ErrSnapshotMismatch, n)
	}
	out := make([]byte, len(head)+n*jobRecLen+8)
	copy(out, head)
	recs := out[len(head) : len(out)-8]
	copy(recs, bsn.jobs)
	// Patches name records in ascending order, and cover every record
	// past the base's prefix.
	next, fresh := 0, 0
	for p := range nPatch {
		pa := patches[p*deltaPatchLen : (p+1)*deltaPatchLen]
		i := binary.LittleEndian.Uint64(pa)
		if i >= nRec || i < uint64(next) {
			return nil, fmt.Errorf("%w: delta patch %d names record %d", ErrSnapshotMismatch, p, i)
		}
		next = int(i) + 1
		if next > nBase {
			fresh++
		}
		copy(recs[int(i)*jobRecLen:], pa[8:])
	}
	if fresh != max(n-nBase, 0) {
		return nil, fmt.Errorf("%w: delta patches %d of the %d records past its base", ErrSnapshotMismatch, fresh, n-nBase)
	}
	body := uint64(crc32.Checksum(out[:len(out)-8], castagnoli))
	if body != wantCRC {
		return nil, fmt.Errorf("%w: delta reconstruction checksum mismatch", ErrSnapshotMismatch)
	}
	binary.LittleEndian.PutUint64(out[len(out)-8:], body)
	return out, nil
}
