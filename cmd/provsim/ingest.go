// Sustained-ingest throughput: provsim [-bench-smoke] ingest measures the
// event fast path at two tiers and gates the invariants the batching
// layer must keep. The wire tier pumps frames over a real loopback TCP
// connection — per-tuple framing against coalesced frameBatch deliveries
// with pooled buffers and delta compression — and the cluster tier runs
// the full inject/derive/ship/settle pipeline per provenance scheme with
// batching on and off, reading the byte attribution back from the
// transport counters. `make ingest-smoke` runs this target and fails the
// build on a slow fast path or any accounting drift.
package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/core"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// ingestBenchRecord is one measured ingest run.
type ingestBenchRecord struct {
	Tier           string // "wire" or "cluster"
	Scheme         string // cluster tier only
	Mode           string // per-tuple | batched | batched-nocompress
	Events         int
	EventsPerSec   float64
	BytesPerEvent  float64
	AllocsPerEvent float64
	Batches        int64
	BatchFrames    int64
	// AccountingDrift is the absolute difference between the per-class
	// byte sums and the wire byte totals, aggregate plus per-link. The
	// exactly-once attribution invariant demands zero.
	AccountingDrift int64
}

// mallocs reads the cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ingestWirePayloads is the workload shape the fast path targets: event
// frames of ~230 bytes where consecutive frames share relation names and
// most metadata bytes (the AdvMeta piggyback pattern).
func ingestWirePayloads() [][]byte {
	base := []byte("tuple:packet:n0:n3:advmeta:")
	for len(base) < 224 {
		base = append(base, "eqkey-0123456789abcdef:"...)
	}
	out := make([][]byte, 64)
	for i := range out {
		p := append([]byte(nil), base...)
		p[40] = byte(i)
		p[len(p)-1] = byte(i * 7)
		out[i] = p
	}
	return out
}

// ingestWireRun pumps events through one loopback TCP connection and
// back out of the frame decoder. mode "per-tuple" frames every event
// individually with a fresh envelope buffer; "batched" coalesces 256
// events per frameBatch with pooled staging buffers, with or without
// delta compression.
func ingestWireRun(mode string, events int) (ingestBenchRecord, error) {
	rec := ingestBenchRecord{Tier: "wire", Mode: mode, Events: events}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rec, err
	}
	defer ln.Close()
	done := make(chan int, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- 0
			return
		}
		defer conn.Close()
		got := 0
		var buf []byte
		for {
			payload, err := wire.ReadFrameBuf(conn, buf)
			if err != nil {
				break
			}
			buf = payload[:cap(payload)]
			d := wire.NewDecoder(payload)
			if d.U8() == 1 { // batch marker, mirrors the cluster's frameBatch
				entries, err := wire.DecodeBatch(d)
				if err != nil {
					break
				}
				got += len(entries)
			} else {
				got++
			}
		}
		done <- got
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return rec, err
	}

	payloads := ingestWirePayloads()
	const perBatch = 256
	wireBytes := 0
	allocs0 := mallocs()
	start := time.Now()
	switch mode {
	case "per-tuple":
		for i := 0; i < events; i++ {
			e := wire.NewEncoder(0)
			e.U8(0)
			e.Str("n0")
			e.U64(uint64(i))
			e.Raw(payloads[i%len(payloads)])
			if err := wire.WriteFrame(conn, e.Bytes()); err != nil {
				return rec, err
			}
			wireBytes += e.Len() + 4
		}
	case "batched", "batched-nocompress":
		compress := mode == "batched"
		entries := make([]wire.BatchEntry, 0, perBatch)
		var sizes []int
		for sent := 0; sent < events; {
			entries = entries[:0]
			for len(entries) < perBatch && sent+len(entries) < events {
				i := sent + len(entries)
				entries = append(entries, wire.BatchEntry{Seq: uint64(i), Epoch: 1, Payload: payloads[i%len(payloads)]})
			}
			buf := wire.GetBuf()
			buf = append(buf, 1) // batch marker
			env, s := wire.AppendBatch(buf, entries, compress, sizes[:0])
			sizes = s
			if err := wire.WriteFrame(conn, env); err != nil {
				return rec, err
			}
			wireBytes += len(env) + 4
			wire.PutBuf(env)
			sent += len(entries)
		}
	default:
		return rec, fmt.Errorf("unknown wire ingest mode %q", mode)
	}
	conn.Close()
	got := <-done
	wall := time.Since(start)
	if got != events {
		return rec, fmt.Errorf("wire ingest %s: receiver decoded %d of %d events", mode, got, events)
	}
	rec.EventsPerSec = float64(events) / wall.Seconds()
	rec.BytesPerEvent = float64(wireBytes) / float64(events)
	rec.AllocsPerEvent = float64(mallocs()-allocs0) / float64(events)
	return rec, nil
}

// ingestClusterRun drives the full pipeline: events injected from a few
// concurrent feeders (so the writers actually see coalescable bursts)
// across a 4-node chain, then quiesced — every derivation shipped,
// every frame settled. The byte attribution is read back and checked
// for drift right here, per link and in aggregate.
func ingestClusterRun(scheme string, events int) (ingestBenchRecord, error) {
	rec := ingestBenchRecord{Tier: "cluster", Scheme: scheme, Mode: "batched", Events: events}
	g := topo.Line(4, "n")
	c, err := cluster.New(cluster.Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  g.Nodes(),
		Scheme: scheme,
	})
	if err != nil {
		return rec, err
	}
	defer c.Close()
	if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
		return rec, err
	}
	base := c.TransportStats()
	allocs0 := mallocs()
	start := time.Now()
	const feeders = 4
	errs := make(chan error, feeders)
	for f := 0; f < feeders; f++ {
		go func(f int) {
			for i := f; i < events; i += feeders {
				ev := types.NewTuple("packet",
					types.String("n0"), types.String("n0"), types.String("n3"),
					types.String(fmt.Sprintf("i%d", i)))
				if err := c.Inject(ev); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(f)
	}
	for f := 0; f < feeders; f++ {
		if err := <-errs; err != nil {
			return rec, err
		}
	}
	if err := c.Quiesce(2 * time.Minute); err != nil {
		return rec, err
	}
	wall := time.Since(start)
	s := c.TransportStats()
	rec.EventsPerSec = float64(events) / wall.Seconds()
	rec.BytesPerEvent = float64(s.BytesTotal-base.BytesTotal) / float64(events)
	rec.AllocsPerEvent = float64(mallocs()-allocs0) / float64(events)
	rec.Batches = s.Batches - base.Batches
	rec.BatchFrames = s.BatchFrames - base.BatchFrames

	drift := (s.BytesBase + s.BytesProv + s.BytesQuery + s.BytesBatch) - s.BytesTotal
	if drift < 0 {
		drift = -drift
	}
	var linkTotal int64
	for _, l := range c.LinkByteStats() {
		d := (l.Base + l.Prov + l.Query + l.Batch) - l.Total
		if d < 0 {
			d = -d
		}
		drift += d
		linkTotal += l.Total
	}
	if d := linkTotal - s.BytesTotal; d > 0 {
		drift += d
	} else {
		drift -= d
	}
	rec.AccountingDrift = drift
	return rec, nil
}

// benchIngest runs the full ingest matrix: the wire-tier A/B (per-tuple
// framing against the batched path, with and without delta compression)
// plus one cluster run per scheme on the production transport.
func benchIngest(smoke bool) ([]ingestBenchRecord, error) {
	wireEvents, clusterEvents := 2_000_000, 5_000
	if smoke {
		wireEvents, clusterEvents = 100_000, 400
	}
	var out []ingestBenchRecord
	for _, mode := range []string{"per-tuple", "batched", "batched-nocompress"} {
		rec, err := ingestWireRun(mode, wireEvents)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	for _, scheme := range []string{core.SchemeExSPAN, core.SchemeBasic, core.SchemeAdvanced} {
		rec, err := ingestClusterRun(scheme, clusterEvents)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// runIngest executes the matrix, prints it, and enforces the smoke
// gates: the wire fast path must actually be fast (a conservative floor
// far under the measured ~7x so the gate never flakes), pooled encoding
// must have collapsed the allocation rate, batching must have engaged,
// and the byte accounting must show zero drift everywhere.
func runIngest(w io.Writer, smoke bool) error {
	recs, err := benchIngest(smoke)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-9s %-19s %10s %12s %11s %14s %8s\n",
		"tier", "scheme", "mode", "events", "events/s", "bytes/ev", "allocs/ev", "drift")
	byKey := make(map[string]ingestBenchRecord, len(recs))
	for _, r := range recs {
		byKey[r.Tier+"/"+r.Scheme+"/"+r.Mode] = r
		fmt.Fprintf(w, "%-8s %-9s %-19s %10d %12.0f %11.1f %14.3f %8d\n",
			r.Tier, r.Scheme, r.Mode, r.Events, r.EventsPerSec, r.BytesPerEvent, r.AllocsPerEvent, r.AccountingDrift)
	}

	perTuple, batched := byKey["wire//per-tuple"], byKey["wire//batched"]
	if ratio := batched.EventsPerSec / perTuple.EventsPerSec; ratio < 2 {
		return fmt.Errorf("ingest: batched wire throughput only %.2fx per-tuple, want >= 2x", ratio)
	}
	if perTuple.AllocsPerEvent < 4*batched.AllocsPerEvent {
		return fmt.Errorf("ingest: pooled batched path allocates %.3f/event vs %.3f per-tuple, want >= 4x fewer",
			batched.AllocsPerEvent, perTuple.AllocsPerEvent)
	}
	for _, r := range recs {
		if r.AccountingDrift != 0 {
			return fmt.Errorf("ingest: %s/%s/%s has %d bytes of accounting drift, want 0",
				r.Tier, r.Scheme, r.Mode, r.AccountingDrift)
		}
		if r.Tier == "cluster" && r.Batches == 0 {
			return fmt.Errorf("ingest: %s formed no batches; coalescing never engaged", r.Scheme)
		}
	}
	fmt.Fprintf(w, "ingest: batched wire path %.1fx per-tuple throughput, zero accounting drift\n",
		batched.EventsPerSec/perTuple.EventsPerSec)
	return nil
}
