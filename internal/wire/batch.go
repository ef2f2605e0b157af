package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Batch codec: the body of every cluster delivery. A batch carries
// N ≥ 1 already-encoded sub-frames, each with its own (seq, epoch) pair,
// so the receiver's duplicate filter and in-flight accounting work per
// sub-frame — a redelivered batch is N individually-suppressed
// duplicates, never a double apply.
//
// Layout after the delivery header (kind, version, from, incarnation),
// every integer a canonical uvarint:
//
//	count
//	count × { seq − previous seq, zigzag(epoch − previous epoch), section }
//
// with both "previous" values 0 for the first entry and the differences
// taken modulo 2^64. A section is either raw
//
//	0, len, len bytes
//
// or delta-encoded against the payload of an earlier entry of this batch
//
//	back (≥ 1), prefixLen, suffixLen, midLen, midLen bytes
//
// meaning: the first prefixLen and last suffixLen bytes equal those of
// entry i−back's payload, with midLen fresh bytes between. References
// never leave the batch, so a dropped, retried or redelivered batch
// decodes on its own.
//
// Which entry to reference is the encoder's choice and invisible to the
// decoder: an entry with a non-zero Group references the latest earlier
// entry of the same group, any other entry the one just before it. The
// cluster sets Group to the equivalence class of a shipped tuple (§5.2):
// two events of one class differ only in payload and evid, so with the
// class-invariant bytes laid out as the frame's suffix a same-class
// reference leaves little more than those to send, however many other
// classes interleave on the link.

// MaxBatchEntries bounds the sub-frame count one batch may carry; larger
// counts indicate corruption.
const MaxBatchEntries = 1 << 12

// minEntryBytes is the smallest encoded entry: one-byte seq and epoch
// deltas and a raw section with an empty payload.
const minEntryBytes = 4

// BatchEntry is one sub-frame of a batch.
type BatchEntry struct {
	Seq     uint64
	Epoch   uint64
	Payload []byte
	// Group, when non-zero, names the entries worth delta-coding against
	// each other. It steers the encoder only and is not transmitted;
	// decoded entries carry zero.
	Group uint64
	// Tail asks AppendBatch how much of the payload's last Tail bytes the
	// encoded section still carries: on return it holds that count (all of
	// them in a raw section, those outside the shared prefix and suffix in
	// a delta). The sender uses it to attribute section bytes to the part
	// of the frame they came from.
	Tail int
}

// groupSlots sizes the encoder's direct-mapped group table. A link
// carries the classes of the flows routed over it — tens, not
// thousands — and a collision only costs the colliding entries their
// same-group reference.
const groupSlots = 64

// deltaSplit returns the length of the longest common prefix and suffix
// between prev and cur, with prefix+suffix never exceeding either length
// (the regions must not overlap on the shorter side).
func deltaSplit(prev, cur []byte) (prefix, suffix int) {
	n := len(prev)
	if len(cur) < n {
		n = len(cur)
	}
	for prefix < n && prev[prefix] == cur[prefix] {
		prefix++
	}
	for suffix < n-prefix && prev[len(prev)-1-suffix] == cur[len(cur)-1-suffix] {
		suffix++
	}
	return prefix, suffix
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag folds a two's-complement difference so small negative values
// stay short; unzigzag undoes it.
func zigzag(v uint64) uint64   { return v<<1 ^ uint64(int64(v)>>63) }
func unzigzag(v uint64) uint64 { return v>>1 ^ -(v & 1) }

// AppendBatch appends the batch body for entries to dst and returns the
// grown buffer plus the encoded section size of each entry (appended to
// sizes), which is what the sender attributes to the entry's byte class
// — everything else in the delivery is batch framing overhead. With
// compress set, each payload is delta encoded against its reference
// entry when that is smaller than raw. Each entry's Tail is rewritten as
// documented on the field.
func AppendBatch(dst []byte, entries []BatchEntry, compress bool, sizes []int) ([]byte, []int) {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	// latest[slot] is 1 + the index of the newest entry whose group maps
	// to slot; the stored entry's own Group tells a hit from a collision.
	var latest [groupSlots]int32
	var prevSeq, prevEpoch uint64
	for i := range entries {
		ent := &entries[i]
		dst = binary.AppendUvarint(dst, ent.Seq-prevSeq)
		dst = binary.AppendUvarint(dst, zigzag(ent.Epoch-prevEpoch))
		prevSeq, prevEpoch = ent.Seq, ent.Epoch
		start := len(dst)

		ref := i - 1
		if ent.Group != 0 {
			slot := &latest[ent.Group%groupSlots]
			if j := int(*slot) - 1; j >= 0 && entries[j].Group == ent.Group {
				ref = j
			}
			*slot = int32(i + 1)
		}
		size := len(ent.Payload)
		tail := min(ent.Tail, size)
		if compress && ref >= 0 {
			prefix, suffix := deltaSplit(entries[ref].Payload, ent.Payload)
			mid := ent.Payload[prefix : size-suffix]
			back := uint64(i - ref)
			deltaHdr := uvarintLen(back) + uvarintLen(uint64(prefix)) + uvarintLen(uint64(suffix)) + uvarintLen(uint64(len(mid)))
			if deltaHdr+len(mid) < 1+uvarintLen(uint64(size))+size {
				dst = binary.AppendUvarint(dst, back)
				dst = binary.AppendUvarint(dst, uint64(prefix))
				dst = binary.AppendUvarint(dst, uint64(suffix))
				dst = binary.AppendUvarint(dst, uint64(len(mid)))
				dst = append(dst, mid...)
				sizes = append(sizes, len(dst)-start)
				// The part of mid that lies in the payload's last tail bytes.
				ent.Tail = max(0, size-suffix-max(prefix, size-tail))
				continue
			}
		}
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(size))
		dst = append(dst, ent.Payload...)
		sizes = append(sizes, len(dst)-start)
		ent.Tail = tail
	}
	return dst, sizes
}

// scanStackEntries is how many entry lengths AppendDecodeBatch keeps on its
// stack; the transport never batches more, so only a foreign or corrupt
// batch pays for a heap slice.
const scanStackEntries = 512

// DecodeBatch decodes a batch body into entries of their own: it is
// AppendDecodeBatch into empty buffers.
func DecodeBatch(d *Decoder) ([]BatchEntry, error) {
	entries, _, err := AppendDecodeBatch(nil, nil, d)
	return entries, err
}

// AppendDecodeBatch decodes a batch body in two passes — a validating scan
// that sizes the delta arena, then materialization — appending the entries
// to entries and the payloads of delta entries to arena, and returns both
// grown. Warm buffers make a decode allocate nothing; a batch into empty
// ones costs two allocations (the entries slice and the arena), not one
// per entry. Raw payloads alias the decoder's buffer and delta payloads
// the arena, so the entries are only valid until the caller reuses either.
// On error both buffers come back as they were passed.
func AppendDecodeBatch(entries []BatchEntry, arena []byte, d *Decoder) ([]BatchEntry, []byte, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return entries, arena, d.Err()
	}
	if n > MaxBatchEntries || n > uint64(d.Remaining()/minEntryBytes) {
		return entries, arena, fmt.Errorf("wire: batch of %d entries in %d bytes", n, d.Remaining())
	}
	count := int(n)
	var stack [scanStackEntries]int32
	lens := stack[:0]
	if count > len(stack) {
		lens = make([]int32, 0, count)
	}
	scan := *d
	arenaSize, err := scanBatch(&scan, lens[:count])
	if err != nil {
		return entries, arena, err
	}
	// The arena is grown once, up front: a delta payload refers to an
	// earlier one of the same batch, which must not move.
	arena = slices.Grow(arena, arenaSize)
	base := len(entries)
	entries = slices.Grow(entries, count)
	var seq, epoch uint64
	for i := 0; i < count; i++ {
		seq += d.Uvarint()
		epoch += unzigzag(d.Uvarint())
		var payload []byte
		if back := d.Uvarint(); back == 0 {
			payload = d.Take(d.Uvarint())
		} else {
			ref := entries[base+i-int(back)].Payload
			prefix := d.Uvarint()
			suffix := d.Uvarint()
			mid := d.Take(d.Uvarint())
			start := len(arena)
			arena = append(arena, ref[:prefix]...)
			arena = append(arena, mid...)
			arena = append(arena, ref[uint64(len(ref))-suffix:]...)
			payload = arena[start:len(arena):len(arena)]
		}
		entries = append(entries, BatchEntry{Seq: seq, Epoch: epoch, Payload: payload})
	}
	return entries, arena, nil
}

// scanBatch validates every entry of a batch body, records the decoded
// payload length of each in lens, and returns how many bytes the delta
// payloads will materialize to. Only lengths need tracking: a delta's
// (prefix, suffix) are valid against its reference's length regardless
// of the contents.
func scanBatch(d *Decoder, lens []int32) (int, error) {
	arenaSize, decoded := 0, 0
	for i := range lens {
		d.Uvarint() // seq delta
		d.Uvarint() // epoch delta
		back := d.Uvarint()
		var size uint64
		if back == 0 {
			size = uint64(len(d.Take(d.Uvarint())))
		} else {
			prefix := d.Uvarint()
			suffix := d.Uvarint()
			mid := d.Take(d.Uvarint())
			if d.Err() != nil {
				return 0, d.Err()
			}
			if back > uint64(i) {
				return 0, fmt.Errorf("wire: batch entry %d refers %d entries back", i, back)
			}
			refLen := uint64(lens[i-int(back)])
			// Compared one at a time: the sum of two hostile lengths can wrap.
			if prefix > refLen || suffix > refLen-prefix {
				return 0, fmt.Errorf("wire: batch delta (%d,%d) against %d-byte base", prefix, suffix, refLen)
			}
			size = prefix + uint64(len(mid)) + suffix
			arenaSize += int(size)
		}
		if d.Err() != nil {
			return 0, d.Err()
		}
		decoded += int(size)
		if decoded > MaxFrameSize {
			return 0, fmt.Errorf("wire: batch decodes past the frame limit")
		}
		lens[i] = int32(size)
	}
	return arenaSize, nil
}
