package sim

// Delta-encoded snapshots: a periodic checkpoint stream mostly re-states
// the previous snapshot — the platform rarely changes shape between
// marks and most job records are stable — so the checkpointer can emit
// the difference instead of the whole state. The encoding is a binary
// diff: a stream of COPY ops (a range of the base) and LITERAL ops
// (bytes carried inline) that rebuilds the new snapshot.
//
// The match finder is diagonal-first. A match lies on a diagonal, the
// shift d = baseOff − fullOff between the two snapshots, and almost
// every change between neighbors is an in-place edit of a fixed-size
// job record at the shift of the previous match. So a COPY is extended
// 8 bytes at a time, and after a mismatch the encoder scans ahead on
// the same diagonal, a few hundred bytes at most, for a run of
// deltaRun agreeing bytes to resync on — no index probe at all.
//
// The trust guard: the diagonal may resync only if the copy that last
// ran on it was at least deltaTrust bytes long. Job records that are
// identical except for one unique 8-byte field agree on long zero runs
// one record apart, so a diagonal that is one record off would keep
// "resyncing" there forever, emitting every record's unique field as a
// literal. A wrong diagonal never yields a copy longer than one record,
// so it never earns trust, and the encoder goes back to the index.
//
// The index finds a new diagonal after an insertion or deletion (a
// grown wait queue or fault log shifts everything after it), or when
// the current one has not earned trust. It is sparse and flat: every
// deltaStride-th base block of deltaBlock bytes is keyed by a rolling
// checksum into an open-addressed []uint64 table behind a small filter
// (see deltaIndex), built only when the diagonal first fails. The new
// snapshot is scanned with the same rolling window; a verified hit
// extends forward and then backward over the pending literal, so sparse
// sampling loses no bytes of a match. The first block indexed under a
// key wins, so the op stream depends only on (base, full), never on
// reused scratch.
//
// A delta is framed independently of the full-snapshot format (NBSD
// v1): its own magic, version, op stream, and three integrity anchors —
// a CRC of the base it chains from (so applying against the wrong base
// fails before any bytes are produced), a CRC of the reconstruction (so
// a corrupt op stream cannot yield a plausible-but-wrong snapshot; the
// full format's own trailer CRC is checked again on resume), and a
// trailer CRC of the delta bytes themselves. Every failure is
// ErrSnapshotMismatch, the same contract as full-snapshot corruption.
//
// Cost, measured on a 2-vCPU x86-64 box over the 12 consecutive
// snapshot pairs of a checkpointed year6 cell (33–35 MB full
// snapshots, 2.5–3.2 MB deltas): 63–74 ms per delta as the
// checkpointer calls it, with the block index reused and both checksums
// known. BenchmarkSnapshotDelta times the encoder alone on a generated
// pair of that shape.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"netbatch/internal/snap"
)

const (
	deltaMagic   = uint32(0x4e425344) // "NBSD"
	deltaVersion = uint32(1)
	// deltaBlock is the rolling-hash window and the shortest match the
	// index finds: a COPY op costs 17 bytes plus 9 to restart a literal.
	deltaBlock = 64
	// deltaStride samples the base for the index: one block every
	// deltaStride bytes. Backward extension recovers the bytes a hit
	// skipped, so a match of deltaStride+deltaBlock bytes is always found.
	deltaStride = 256
	// deltaRun agreeing bytes resync the current diagonal after a
	// mismatch; deltaScan bounds how far past the mismatch the run may
	// start.
	deltaRun  = 32
	deltaScan = 384
	// deltaTrust is the copy length that lets a diagonal resync (see
	// the trust guard above).
	deltaTrust = 256
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

// rollHash is a byte-sum pair checksum (Adler-style) over a deltaBlock
// window, rollable in O(1): a is the byte sum, b the position-weighted
// sum.
type rollHash struct{ a, b uint32 }

func rollInit(p []byte) rollHash {
	// b weighs byte i by len(p)−i, which is the sum of the running byte
	// sums: each byte is counted once for every prefix that holds it.
	var h rollHash
	for _, c := range p {
		h.a += uint32(c)
		h.b += h.a
	}
	return h
}

// roll slides the window one byte: out leaves, in enters.
func (h *rollHash) roll(out, in byte) {
	h.a += uint32(in) - uint32(out)
	h.b += h.a - deltaBlock*uint32(out)
}

// sum combines the pair into one index key, Fletcher-style: a in the
// low half, b in the high. a is at most deltaBlock*255 so it fits the
// low 16 bits; b only enters once, so two windows collide on the key
// only when both components collide.
func (h rollHash) sum() uint32 { return h.a&0xffff | h.b<<16 }

// deltaIndex is the sparse block index over a delta's base: an
// open-addressed, linearly probed table of key<<32 | off+1 words, 0
// marking an empty slot, behind a two-bit-per-key filter word. The
// scan probes the index at every byte of a changed region and nearly
// every probe misses; the filter, an eighth the table's size, answers
// all but about one in a hundred of those from cache. Callers that
// diff repeatedly keep one index and pass it back in; build clears and
// reuses its tables.
type deltaIndex struct {
	tab    []uint64
	filter []uint64
	// shift keeps the hash's high log2(len(tab)) bits for the slot,
	// and three fewer for the filter word.
	shift uint
}

// deltaHash spreads an index key over 64 bits: slot and filter word
// take the high bits of one multiplicative hash (the key's low half is
// a byte sum, so its low bits cluster), and the filter word's two bits
// the high bits of another.
func deltaHash(key uint32) (h, fb uint64) {
	g := uint64(key) * 0xc2b2ae3d27d4eb4f
	return uint64(key) * 0x9e3779b97f4a7c15, 1<<(g>>58) | 1<<(g>>52&63)
}

// build indexes every deltaStride-th block of base. The table is at
// most two-thirds full, so probes stay short and always reach an empty
// slot.
func (x *deltaIndex) build(base []byte) {
	n := len(base)/deltaStride + 1
	size := 8
	for size < n+n/2 {
		size <<= 1
	}
	x.tab = reuseWords(x.tab, size)
	x.filter = reuseWords(x.filter, size/8)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	// Offsets are stored in 32 bits; a base past 4 GiB is indexed only
	// up to there (the diagonal still matches beyond).
	for off := 0; off+deltaBlock <= len(base) && uint64(off) < math.MaxUint32; off += deltaStride {
		x.insert(rollInit(base[off:off+deltaBlock]).sum(), off)
	}
}

// reuseWords returns a zeroed slice of n words, reusing b's array when
// it is large enough.
func reuseWords(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// insert records off under key unless the key is already present:
// first writer wins, keeping the lowest offset.
func (x *deltaIndex) insert(key uint32, off int) {
	h, fb := deltaHash(key)
	x.filter[h>>(x.shift+3)] |= fb
	mask := len(x.tab) - 1
	for s := int(h >> x.shift); ; s = (s + 1) & mask {
		switch e := x.tab[s]; {
		case e == 0:
			x.tab[s] = uint64(key)<<32 | uint64(off+1)
			return
		case uint32(e>>32) == key:
			return
		}
	}
}

// lookup returns the base offset indexed under key.
func (x *deltaIndex) lookup(key uint32) (int, bool) {
	h, fb := deltaHash(key)
	if x.filter[h>>(x.shift+3)]&fb != fb {
		return 0, false
	}
	mask := len(x.tab) - 1
	for s := int(h >> x.shift); ; s = (s + 1) & mask {
		switch e := x.tab[s]; {
		case e == 0:
			return 0, false
		case uint32(e>>32) == key:
			return int(uint32(e)) - 1, true
		}
	}
}

// find rolls a deltaBlock window over full from i and returns the first
// position whose window equals an indexed base block, and that block's
// offset.
func (x *deltaIndex) find(base, full []byte, i int) (at, off int, ok bool) {
	h := rollInit(full[i : i+deltaBlock])
	for {
		if off, ok := x.lookup(h.sum()); ok && bytes.Equal(base[off:off+deltaBlock], full[i:i+deltaBlock]) {
			return i, off, true
		}
		if i+deltaBlock >= len(full) {
			return 0, 0, false
		}
		h.roll(full[i], full[i+deltaBlock])
		i++
	}
}

// matchLen returns the length of the common prefix of a and b,
// comparing 8 bytes at a time.
func matchLen(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// resync scans diagonal d from full offset i for a run of deltaRun
// agreeing bytes starting within deltaScan bytes, and returns its start.
func resync(base, full []byte, i, d int) (int, bool) {
	p := max(i, -d)
	end := min(i+deltaScan+deltaRun, len(full), len(base)-d)
	run := 0
	for ; p < end; p++ {
		if full[p] != base[p+d] {
			run = 0
			continue
		}
		if run++; run == deltaRun {
			return p + 1 - deltaRun, true
		}
	}
	return 0, false
}

// encodeSnapshotDeltaInto diffs full against base and frames the
// result, with caller-owned scratch and checksums: the op stream is
// appended to out (which may be nil, or a recycled buffer with its
// capacity intact), idx is a block index reused across calls, and
// baseCRC/fullCRC are the CRC-32C (castagnoli) checksums of base and
// full, which a caller that diffs a chain of snapshots computes once
// per snapshot. The output is the same bytes whatever scratch is passed
// in. It never fails: in the worst case (nothing matches) the op
// stream is one literal the size of full, and the checkpointer falls
// back to the full encoding by size comparison.
func encodeSnapshotDeltaInto(out []byte, idx *deltaIndex, base, full []byte, baseCRC, fullCRC uint32, m deltaMeta) []byte {
	if cap(out) == 0 {
		out = make([]byte, 0, len(full)/8+256)
	}
	e := snap.Encoder{Buf: out[:0]}
	e.U64(uint64(deltaMagic))
	e.U64(uint64(deltaVersion))
	e.U64(uint64(baseCRC))
	e.F64(m.BaseTime)
	e.I64(m.BaseEvents)
	e.F64(m.Time)
	e.I64(m.Events)
	e.U64(uint64(len(full)))
	// Op count is backpatched once the scan knows it.
	e.U64(0)
	opsAt := len(e.Buf) - 8

	ops := uint64(0)
	lit := 0 // start of the pending literal run
	// copyFrom emits the pending literal up to at, then a COPY of n base
	// bytes from off.
	copyFrom := func(at, off, n int) {
		if at > lit {
			e.Bool(false)
			e.Bytes(full[lit:at])
			ops++
		}
		e.Bool(true)
		e.U64(uint64(off))
		e.U64(uint64(n))
		ops++
		lit = at + n
	}
	// Snapshots of one run share their header, so the scan starts on
	// diagonal 0 as if a long copy had just run there.
	d, trusted, indexed := 0, true, false
	for lit < len(full) {
		if trusted {
			if at, ok := resync(base, full, lit, d); ok {
				n := matchLen(base[at+d:], full[at:])
				copyFrom(at, at+d, n)
				trusted = n >= deltaTrust
				continue
			}
		}
		if len(full)-lit < deltaBlock {
			break
		}
		if !indexed {
			idx.build(base)
			indexed = true
		}
		at, off, ok := idx.find(base, full, lit)
		if !ok {
			break
		}
		// Extend backward over the pending literal: the hit is only the
		// first sampled block of the match.
		back := 0
		for at-back > lit && off-back > 0 && full[at-back-1] == base[off-back-1] {
			back++
		}
		at, off = at-back, off-back
		n := matchLen(base[off:], full[at:])
		copyFrom(at, off, n)
		d, trusted = off-at, n >= deltaTrust
	}
	if len(full) > lit {
		e.Bool(false)
		e.Bytes(full[lit:])
		ops++
	}
	binary.LittleEndian.PutUint64(e.Buf[opsAt:], ops)
	e.U64(uint64(fullCRC))
	e.U64(uint64(crc32.Checksum(e.Buf, castagnoli)))
	return e.Buf
}

// ApplySnapshotDelta reconstructs the full snapshot a delta encodes,
// given the exact snapshot bytes it was diffed against (the previous
// snapshot in the emission order — itself possibly reconstructed from
// an earlier delta). Any mismatch — corrupted delta, wrong base,
// out-of-range op — fails with ErrSnapshotMismatch and produces
// nothing.
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
	outLen := d.U64()
	ops := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if uint64(crc32.Checksum(base, castagnoli)) != baseCRC {
		return nil, fmt.Errorf("%w: delta does not chain from this base snapshot", ErrSnapshotMismatch)
	}
	if outLen > uint64(len(base))+uint64(len(delta))*8+(1<<20) {
		return nil, fmt.Errorf("%w: implausible delta output length %d", ErrSnapshotMismatch, outLen)
	}
	out := make([]byte, 0, outLen)
	for op := uint64(0); op < ops; op++ {
		if d.Bool() {
			off, n := d.U64(), d.U64()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if off > uint64(len(base)) || n > uint64(len(base))-off {
				return nil, fmt.Errorf("%w: delta copy op outside base bounds", ErrSnapshotMismatch)
			}
			out = append(out, base[off:off+n]...)
		} else {
			out = append(out, d.Bytes()...)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		if uint64(len(out)) > outLen {
			return nil, fmt.Errorf("%w: delta reconstruction overruns declared length", ErrSnapshotMismatch)
		}
	}
	wantCRC := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in delta", ErrSnapshotMismatch, d.Len())
	}
	if uint64(len(out)) != outLen {
		return nil, fmt.Errorf("%w: delta reconstructed %d bytes, declared %d",
			ErrSnapshotMismatch, len(out), outLen)
	}
	if uint64(crc32.Checksum(out, castagnoli)) != wantCRC {
		return nil, fmt.Errorf("%w: delta reconstruction checksum mismatch", ErrSnapshotMismatch)
	}
	return out, nil
}
