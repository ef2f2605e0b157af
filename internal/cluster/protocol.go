package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"provcompress/internal/core"
	"provcompress/internal/membership"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// Trace header helpers: every tuple and walk frame carries a (trace ID,
// span ID) pair right after its kind byte. Zero means "untraced"; a
// receiver parents its own spans under the carried context, which is
// how one injection or one distributed query becomes a single
// parent-linked span tree across nodes.
func encodeTraceCtx(e *wire.Encoder, sc trace.SpanContext) {
	e.U64(uint64(sc.Trace))
	e.U64(uint64(sc.Span))
}

func decodeTraceCtx(d *wire.Decoder) trace.SpanContext {
	t := d.U64()
	s := d.U64()
	return trace.SpanContext{Trace: trace.TraceID(t), Span: trace.SpanID(s)}
}

// Frame kinds of the cluster protocol.
const (
	frameTuple  = 1 // tuple shipment (fresh input event or derived head)
	frameSig    = 2 // Section 5.5 equivalence-table reset broadcast
	frameWalk   = 3 // traveling provenance query (Section 5.6)
	frameResult = 4 // completed walk returning to the querier
	// 5 was the single-frame delivery envelope of wire format version 2;
	// a lone frame now travels as a batch of one. Do not reuse it.

	// Membership subsystem frames (membership.go). All of them are cluster
	// upkeep rather than base-tuple traffic or query traffic, so the
	// transport attributes every byte to the provenance class.
	frameView       = 6  // gossiped membership view delta (full CRDT view)
	frameRepl       = 7  // one replicated durable-format record for a partition
	frameHandoff    = 8  // partition snapshot stream: bootstrap, handoff, repair
	frameHandoffAck = 9  // receiver acknowledges a handoff installed
	frameRepairReq  = 10 // returning owner asks a replica for its shadow copy

	// frameBatch is the one delivery kind: one write carrying N ≥ 1
	// sub-frames, each with its own (seq, epoch) so dedup and in-flight
	// accounting stay per-frame (wire.AppendBatch / wire.DecodeBatch). A
	// frame that travels alone is a batch of one.
	frameBatch = 11
)

// Every delivery opens with
//
//	u8 frameBatch, u8 wire.FormatVersion, str sender, u64 incarnation
//
// followed by the wire.AppendBatch body. The (sender, incarnation, seq)
// triple lets the receiver drop redelivered duplicates — a retried send
// whose first write actually reached the peer — and an entry's epoch is
// the in-flight accounting epoch of the destination, so crashed-and-
// drained frames are not double-settled.
func appendDeliveryHeader(dst []byte, from types.NodeAddr, incarnation uint64) []byte {
	var e wire.Encoder
	e.SetBuf(dst)
	e.U8(frameBatch)
	e.U8(wire.FormatVersion)
	e.Str(string(from))
	e.U64(incarnation)
	return e.Bytes()
}

// deliveryHeader is the decoded head of a delivery.
type deliveryHeader struct {
	from types.NodeAddr
	inc  uint64
}

// errFormatVersion reports a delivery written in another wire format.
// Nothing past the version byte of such a delivery may be interpreted.
var errFormatVersion = errors.New("cluster: delivery of another wire format version")

func decodeDeliveryHeader(d *wire.Decoder) (deliveryHeader, error) {
	var h deliveryHeader
	if kind := d.U8(); d.Err() == nil && kind != frameBatch {
		return h, fmt.Errorf("cluster: delivery of kind %d", kind)
	}
	if v := d.U8(); d.Err() == nil && v != wire.FormatVersion {
		return h, fmt.Errorf("%w: got %d, speak %d", errFormatVersion, v, wire.FormatVersion)
	}
	h.from = types.NodeAddr(d.Str())
	h.inc = d.U64()
	return h, d.Err()
}

// tupleFrame ships a tuple plus the Advanced metadata. Fresh marks an
// injected input event whose Stage 1 runs at the receiver. Trace is the
// span context the shipment is causally under (zero when untraced).
//
// Layout: u8 frameTuple, the trace context, then the body the WAL's
// event record shares — the tuple, u8 fresh (0 or 1) and, unless fresh,
// the metadata (encodeMeta).
type tupleFrame struct {
	Tuple types.Tuple
	Fresh bool
	Meta  core.AdvMeta
	Trace trace.SpanContext
}

// encodeSized encodes the frame and reports how many trailing bytes of it
// carry the piggybacked provenance metadata, which the transport
// attributes to the provenance byte class (the rest of a tuple frame is
// base-tuple shipping). The buffer is pooled: the link the frame travels
// on (outFrame) recycles it on settle, or the caller releases it.
func (f *tupleFrame) encodeSized() ([]byte, int) {
	e := new(wire.Encoder)
	e.SetBuf(wire.GetFrameBuf())
	e.U8(frameTuple)
	encodeTraceCtx(e, f.Trace)
	metaBytes := f.encodeBody(e)
	return e.Bytes(), metaBytes
}

// outFrame is the frame ready for a link: pooled, its metadata tail
// attributed to the provenance byte class, its equivalence class the batch
// delta group.
func (f *tupleFrame) outFrame() outFrame {
	frame, metaBytes := f.encodeSized()
	return outFrame{payload: frame, class: classBase, provBytes: metaBytes, group: classGroup(f.Meta), pooled: true}
}

func decodeTupleFrame(d *wire.Decoder) (*tupleFrame, error) {
	f := &tupleFrame{}
	f.Trace = decodeTraceCtx(d)
	return f, f.decodeBody(d)
}

// encodeBody appends what a tuple frame and a WAL event record have in
// common and returns the size of the metadata at its end.
func (f *tupleFrame) encodeBody(e *wire.Encoder) int {
	e.Tuple(f.Tuple)
	e.Bool(f.Fresh)
	metaStart := e.Len()
	if !f.Fresh {
		encodeMeta(e, f.Meta)
	}
	return e.Len() - metaStart
}

func (f *tupleFrame) decodeBody(d *wire.Decoder) error {
	f.Tuple = d.Tuple()
	fresh := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	// The pipeline step routes and stores a tuple by its location
	// specifier, which must be there and be a node address.
	if f.Tuple.Arity() == 0 || f.Tuple.Args[0].Kind() != types.KindString {
		return fmt.Errorf("cluster: tuple frame for %s without a location", f.Tuple.Rel)
	}
	switch fresh {
	case 0:
		var err error
		f.Meta, err = decodeMeta(d)
		return err
	case 1:
		f.Fresh = true
		return nil
	}
	return fmt.Errorf("cluster: tuple frame with fresh byte %d", fresh)
}

// Metadata flag bits. Any other bit set marks a frame this code does not
// understand, and is refused.
const (
	metaExist = 1 << 0 // AdvMeta.Exist (the paper's existFlag)
	metaPrev  = 1 << 1 // a non-nil Prev follows
)

// encodeMeta writes EvID, Eq, flags and — only when it is not nil — Prev.
// The order puts what every event of a class changes (the tuple's payload
// before it, then EvID) ahead of what the class fixes (Eq, flags, Prev),
// so a batch entry delta-coded against an earlier event of its class
// (wire.BatchEntry.Group) shares that whole suffix.
func encodeMeta(e *wire.Encoder, m core.AdvMeta) {
	e.ID(m.EvID)
	e.ID(m.Eq)
	var flags uint8
	if m.Exist {
		flags |= metaExist
	}
	if !m.Prev.IsNil() {
		flags |= metaPrev
	}
	e.U8(flags)
	if flags&metaPrev != 0 {
		encodeRef(e, m.Prev)
	}
}

func decodeMeta(d *wire.Decoder) (core.AdvMeta, error) {
	var m core.AdvMeta
	m.EvID = d.ID()
	m.Eq = d.ID()
	flags := d.U8()
	if flags&^(metaExist|metaPrev) != 0 {
		return m, fmt.Errorf("cluster: tuple metadata with unknown flags %#x", flags)
	}
	m.Exist = flags&metaExist != 0
	if flags&metaPrev != 0 {
		m.Prev = decodeRef(d)
		if d.Err() == nil && m.Prev.IsNil() {
			return m, fmt.Errorf("cluster: tuple metadata flags a nil Prev as present")
		}
	}
	return m, d.Err()
}

// classGroup is the batch delta group of a shipped tuple: its equivalence
// class, when the scheme ships one (zero — no group — otherwise).
func classGroup(m core.AdvMeta) uint64 {
	return binary.BigEndian.Uint64(m.Eq[:8])
}

func encodeRef(e *wire.Encoder, r core.Ref) {
	e.Str(string(r.Loc))
	e.ID(r.RID)
}

func decodeRef(d *wire.Decoder) core.Ref {
	loc := d.Str()
	rid := d.ID()
	return core.Ref{Loc: types.NodeAddr(loc), RID: rid}
}

func encodeSig() []byte {
	e := wire.NewEncoder(1)
	e.U8(frameSig)
	return e.Bytes()
}

// walkFrame is the traveling provenance query: the transport-free walk
// (core.Walk — anchor rows, DFS worklist, everything collected so far) next
// to what the TCP transport adds around it. The same layout returns to the
// querier as a result frame.
type walkFrame struct {
	QID     uint64
	Querier types.NodeAddr
	// Trace is the span context of the previous hop (or the query root);
	// each node re-parents it to its own walk span before forwarding, so
	// the walk's spans chain hop to hop.
	Trace trace.SpanContext

	core.Walk

	Hops uint32
	// Partial marks a walk that could not finish because a node it needed
	// was unreachable. The querier fails the query immediately instead of
	// burning its retry budget re-walking into the same outage — with
	// replication on it re-plans against a replica instead.
	Partial bool
}

// encode serializes the walk as kind frameWalk or frameResult. The
// buffer is pooled (each walk frame travels exactly one link before
// being re-encoded); send it with sendOwned.
func (f *walkFrame) encode(kind uint8) []byte {
	e := new(wire.Encoder)
	e.SetBuf(wire.GetBuf())
	e.U8(kind)
	encodeTraceCtx(e, f.Trace)
	e.U64(f.QID)
	e.Str(string(f.Querier))
	e.Tuple(f.Root)
	e.ID(f.EvID)
	encodeProvs(e, f.RootProvs)
	encodeRefs(e, f.Work)
	e.U32(uint32(len(f.Entries)))
	for _, ce := range f.Entries {
		e.Str(string(ce.Entry.Loc))
		e.ID(ce.Entry.RID)
		e.Str(ce.Entry.Rule)
		e.U32(uint32(len(ce.Entry.VIDs)))
		for _, v := range ce.Entry.VIDs {
			e.ID(v)
		}
		encodeRef(e, ce.Entry.Next)
		encodeRefs(e, ce.Nexts)
	}
	encodeProvs(e, f.Provs)
	e.U32(uint32(len(f.Tuples)))
	for _, t := range f.Tuples {
		e.Tuple(t)
	}
	e.U32(f.Hops)
	e.Bool(f.Partial)
	return e.Bytes()
}

func encodeProvs(e *wire.Encoder, ps []core.Prov) {
	e.U32(uint32(len(ps)))
	for _, p := range ps {
		e.Str(string(p.Loc))
		e.ID(p.VID)
		encodeRef(e, p.Ref)
		e.ID(p.EvID)
	}
}

func encodeRefs(e *wire.Encoder, refs []core.Ref) {
	e.U32(uint32(len(refs)))
	for _, r := range refs {
		encodeRef(e, r)
	}
}

const maxWalkItems = 1 << 20

// walkCount reads one of a walk frame's item counts, refusing a count no
// walk can legitimately reach before anything is sized by it.
func walkCount(d *wire.Decoder, what string) (uint32, error) {
	n := d.U32()
	if n > maxWalkItems {
		return 0, fmt.Errorf("cluster: walk frame with %d %s", n, what)
	}
	return n, nil
}

func decodeProvs(d *wire.Decoder, what string) ([]core.Prov, error) {
	n, err := walkCount(d, what)
	if err != nil {
		return nil, err
	}
	var ps []core.Prov
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var p core.Prov
		p.Loc = types.NodeAddr(d.Str())
		p.VID = d.ID()
		p.Ref = decodeRef(d)
		p.EvID = d.ID()
		ps = append(ps, p)
	}
	return ps, nil
}

func decodeRefs(d *wire.Decoder, what string) ([]core.Ref, error) {
	n, err := walkCount(d, what)
	if err != nil {
		return nil, err
	}
	var refs []core.Ref
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		refs = append(refs, decodeRef(d))
	}
	return refs, nil
}

func decodeWalkFrame(d *wire.Decoder) (*walkFrame, error) {
	f := &walkFrame{}
	f.Trace = decodeTraceCtx(d)
	f.QID = d.U64()
	f.Querier = types.NodeAddr(d.Str())
	f.Root = d.Tuple()
	f.EvID = d.ID()
	var err error
	if f.RootProvs, err = decodeProvs(d, "prov rows"); err != nil {
		return nil, err
	}
	if f.Work, err = decodeRefs(d, "work refs"); err != nil {
		return nil, err
	}
	n, err := walkCount(d, "entries")
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var ce core.CollectedEntry
		ce.Entry.Loc = types.NodeAddr(d.Str())
		ce.Entry.RID = d.ID()
		ce.Entry.Rule = d.Str()
		vn, err := walkCount(d, "entry vids")
		if err != nil {
			return nil, err
		}
		for j := uint32(0); j < vn && d.Err() == nil; j++ {
			ce.Entry.VIDs = append(ce.Entry.VIDs, d.ID())
		}
		ce.Entry.Next = decodeRef(d)
		if ce.Nexts, err = decodeRefs(d, "entry links"); err != nil {
			return nil, err
		}
		f.Entries = append(f.Entries, ce)
	}
	if f.Provs, err = decodeProvs(d, "collected prov rows"); err != nil {
		return nil, err
	}
	if n, err = walkCount(d, "tuples"); err != nil {
		return nil, err
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		f.Tuples = append(f.Tuples, d.Tuple())
	}
	f.Hops = d.U32()
	f.Partial = d.Bool()
	return f, d.Err()
}

// encodeView wraps the CRDT membership view for gossip.
func encodeView(v *membership.View) []byte {
	e := wire.NewEncoder(64)
	e.U8(frameView)
	v.Encode(e)
	return e.Bytes()
}

func decodeViewFrame(d *wire.Decoder) (*membership.View, error) {
	return membership.DecodeView(d)
}

// encodeRepl ships one WAL-format record (walBatch, durability.go) for the
// partition owned by `owner`, so a replica can maintain its shadow copy by
// replaying the exact byte stream the owner logged (or would have logged).
func encodeRepl(owner types.NodeAddr, rec []byte) []byte {
	e := wire.NewEncoder(len(rec) + 16)
	e.U8(frameRepl)
	e.Str(string(owner))
	e.Blob(rec)
	return e.Bytes()
}

func decodeReplFrame(d *wire.Decoder) (types.NodeAddr, []byte, error) {
	owner := types.NodeAddr(d.Str())
	rec := d.Blob()
	return owner, rec, d.Err()
}

// encodeHandoff streams a whole partition — partition.snapshot of
// `owner`'s state — to a peer. HID correlates the final frame's ack;
// final=false frames (replica bootstrap, read-repair replies) are not
// acked. The same frame serves three flows: bootstrapping a new replica,
// handing a partition to its next owner on leave, and answering a
// repair request from a returning owner.
func encodeHandoff(owner types.NodeAddr, hid uint64, final bool, snap []byte) []byte {
	e := wire.NewEncoder(len(snap) + 24)
	e.U8(frameHandoff)
	e.Str(string(owner))
	e.U64(hid)
	e.Bool(final)
	e.Blob(snap)
	return e.Bytes()
}

func decodeHandoffFrame(d *wire.Decoder) (owner types.NodeAddr, hid uint64, final bool, snap []byte, err error) {
	owner = types.NodeAddr(d.Str())
	hid = d.U64()
	final = d.Bool()
	snap = d.Blob()
	return owner, hid, final, snap, d.Err()
}

// encodeHandoffAck confirms a final handoff installed at the receiver;
// the sender's routing flip (and Ready gauge) waits on it.
func encodeHandoffAck(hid uint64, owner types.NodeAddr) []byte {
	e := wire.NewEncoder(24)
	e.U8(frameHandoffAck)
	e.U64(hid)
	e.Str(string(owner))
	return e.Bytes()
}

func decodeHandoffAckFrame(d *wire.Decoder) (hid uint64, owner types.NodeAddr, err error) {
	hid = d.U64()
	owner = types.NodeAddr(d.Str())
	return hid, owner, d.Err()
}

// encodeRepairReq asks a replica to send back its shadow of the
// requester's own partition (read-repair after a crash window).
func encodeRepairReq(owner types.NodeAddr) []byte {
	e := wire.NewEncoder(16)
	e.U8(frameRepairReq)
	e.Str(string(owner))
	return e.Bytes()
}

func decodeRepairReqFrame(d *wire.Decoder) (types.NodeAddr, error) {
	owner := types.NodeAddr(d.Str())
	return owner, d.Err()
}
