package cluster

import (
	"bytes"
	"testing"

	"provcompress/internal/membership"
	"provcompress/internal/wire"
)

// controlCodecs pairs each membership-subsystem frame kind with its decoder
// and encoder: decode a frame body (the kind byte already consumed, as
// dispatch does) and return what was accepted, re-encoded.
var controlCodecs = map[uint8]func(d *wire.Decoder) ([]byte, error){
	frameView: func(d *wire.Decoder) ([]byte, error) {
		v, err := decodeViewFrame(d)
		if err != nil {
			return nil, err
		}
		return encodeView(v), nil
	},
	frameRepl: func(d *wire.Decoder) ([]byte, error) {
		owner, rec, err := decodeReplFrame(d)
		return encodeRepl(owner, rec), err
	},
	frameHandoff: func(d *wire.Decoder) ([]byte, error) {
		owner, hid, final, snap, err := decodeHandoffFrame(d)
		return encodeHandoff(owner, hid, final, snap), err
	},
	frameHandoffAck: func(d *wire.Decoder) ([]byte, error) {
		hid, owner, err := decodeHandoffAckFrame(d)
		return encodeHandoffAck(hid, owner), err
	},
	frameRepairReq: func(d *wire.Decoder) ([]byte, error) {
		owner, err := decodeRepairReqFrame(d)
		return encodeRepairReq(owner), err
	},
}

// FuzzDecodeControlFrame covers the membership, replication, handoff and
// repair decoders a peer's socket feeds: arbitrary bytes must never panic,
// and the codec round-trips what it accepted (encode∘decode is a fixed
// point after one generation — the first decode may normalize a
// non-canonical bool or a view listing a member twice).
func FuzzDecodeControlFrame(f *testing.F) {
	view := membership.NewView()
	view.Set(membership.Member{Addr: "n0", Epoch: 3, State: membership.Up})
	view.Set(membership.Member{Addr: "n1", Epoch: 1, State: membership.Left})
	handoff := encodeHandoff("n2", 7, true, []byte("snapshot bytes"))
	for _, seed := range [][]byte{
		encodeView(view),
		encodeView(membership.NewView()),
		encodeRepl("n1", recSigRecord),
		handoff,
		handoff[:len(handoff)/2],
		encodeHandoffAck(7, "n2"),
		encodeRepairReq("n3"),
		{frameView, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		{frameRepl},
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		codec, ok := controlCodecs[data[0]]
		if !ok {
			return
		}
		enc, err := codec(wire.NewDecoder(data[1:]))
		if err != nil {
			return
		}
		again, err := codec(wire.NewDecoder(enc[1:]))
		if err != nil {
			t.Fatalf("decode of encoder output: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatal("control frame did not round trip")
		}
	})
}
