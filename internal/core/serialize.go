package core

import (
	"sort"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// SerializeNode encodes one node's provenance tables into the binary form
// the storage measurement assumes (the counterpart of the paper's
// boost-serialization step): every ruleExec row, link row, prov row, and —
// under Advanced — the htequi and hmap entries. The length of the returned
// buffer equals StorageBytes for the node, which
// TestSerializedSizeMatchesAccounting pins.
func (s *SimMaintainer) SerializeNode(addr types.NodeAddr) []byte {
	st, ok := s.states[addr]
	if !ok {
		return nil
	}
	return st.tables().serialize()
}

// serialize writes the store's rows deterministically.
func (s *store) serialize() []byte {
	e := wire.NewEncoder(int(s.bytes()))

	// ruleExec rows, ordered by RID.
	rids := make([]string, 0, len(s.ruleExec))
	byHex := make(map[string]uint32, len(s.ruleExec))
	for rid, i := range s.ruleExec {
		h := rid.Hex()
		rids = append(rids, h)
		byHex[h] = i
	}
	sort.Strings(rids)
	for _, h := range rids {
		row := s.execAt(byHex[h])
		encodeAddr(e, string(row.Loc))
		e.ID(row.RID)
		encodeName(e, row.Rule)
		e.U8(uint8(len(row.VIDs)))
		for _, v := range row.VIDs {
			e.ID(v)
		}
		if s.withNext {
			encodeAddr(e, string(row.Next.Loc))
			e.ID(row.Next.RID)
		}
	}
	// Link rows (inter-class split, or converging Basic chains).
	linkRids := make([]string, 0, len(s.links))
	linkByHex := make(map[string][]Ref, len(s.links))
	for rid, refs := range s.links {
		h := rid.Hex()
		linkRids = append(linkRids, h)
		linkByHex[h] = refs
	}
	sort.Strings(linkRids)
	for _, h := range linkRids {
		for _, r := range linkByHex[h] {
			// A link row carries (RID, NLoc, NRID): accounted as
			// 2 + len(rid) + next.WireSize().
			e.U8(0)
			e.U8(0)
			var rid types.ID
			copy(rid[:], hexToID(h))
			e.ID(rid)
			encodeAddr(e, string(r.Loc))
			e.ID(r.RID)
		}
	}

	// prov rows, ordered by VID then EvID.
	var provRows []Prov
	for _, rows := range s.prov {
		provRows = append(provRows, rows...)
	}
	sort.Slice(provRows, func(i, j int) bool {
		if provRows[i].VID != provRows[j].VID {
			return provRows[i].VID.Hex() < provRows[j].VID.Hex()
		}
		return provRows[i].EvID.Hex() < provRows[j].EvID.Hex()
	})
	for _, p := range provRows {
		encodeAddr(e, string(p.Loc))
		e.ID(p.VID)
		encodeAddr(e, string(p.Ref.Loc))
		e.ID(p.Ref.RID)
		if s.withEvID {
			e.ID(p.EvID)
		}
	}

	// htequi entries.
	eqs := make([]string, 0, len(s.htequi))
	for k := range s.htequi {
		eqs = append(eqs, k.Hex())
	}
	sort.Strings(eqs)
	for _, h := range eqs {
		var id types.ID
		copy(id[:], hexToID(h))
		e.ID(id)
	}

	// hmap entries.
	keys := make([]hmapKey, 0, len(s.hmap))
	for k := range s.hmap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].eq != keys[j].eq {
			return keys[i].eq.Hex() < keys[j].eq.Hex()
		}
		return keys[i].rel < keys[j].rel
	})
	for _, k := range keys {
		entry := s.hmap[k]
		e.ID(k.eq)
		for i := 0; i < len(k.rel); i++ {
			e.U8(k.rel[i])
		}
		e.ID(entry.evid)
		for _, r := range entry.refs {
			encodeAddr(e, string(r.Loc))
			e.ID(r.RID)
		}
	}
	return e.Bytes()
}

// encodeAddr writes a node address with the 2-byte length prefix the
// WireSize formulas assume.
func encodeAddr(e *wire.Encoder, s string) {
	e.U8(uint8(len(s) >> 8))
	e.U8(uint8(len(s)))
	for i := 0; i < len(s); i++ {
		e.U8(s[i])
	}
}

// encodeName writes a rule name with a 1-byte length prefix.
func encodeName(e *wire.Encoder, s string) {
	e.U8(uint8(len(s)))
	for i := 0; i < len(s); i++ {
		e.U8(s[i])
	}
}

// hexToID converts the hex form back to raw bytes (sorting keys by hex
// keeps the output deterministic).
func hexToID(h string) []byte {
	out := make([]byte, len(h)/2)
	for i := 0; i < len(out); i++ {
		out[i] = unhexByte(h[2*i])<<4 | unhexByte(h[2*i+1])
	}
	return out
}

func unhexByte(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}
