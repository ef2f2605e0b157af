package cluster

import (
	"fmt"
	"net"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/topo"
	"provcompress/internal/wire"
)

// ingestPayloads builds the workload shape the fast path is tuned for:
// event frames of a couple hundred bytes where consecutive frames share
// relation names, trace headers, and most of their metadata — only a few
// bytes differ frame to frame, which is what the batch delta encoder
// exploits.
func ingestPayloads() [][]byte {
	base := []byte("tuple:packet:n0:n3:advmeta:")
	for len(base) < 224 {
		base = append(base, "eqkey-0123456789abcdef:"...)
	}
	payloads := make([][]byte, 64)
	for i := range payloads {
		p := append([]byte(nil), base...)
		p[40] = byte(i)
		p[len(p)-1] = byte(i * 7)
		payloads[i] = p
	}
	return payloads
}

// benchIngestWire measures the wire tier of the ingest path over a real
// loopback TCP connection: frames produced, framed, written, read back,
// and decoded — pooled staging buffers, 256 events per frameBatch, a
// reused read buffer and arena decode, with or without delta compression.
func benchIngestWire(b *testing.B, compress bool) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
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
		events := 0
		var buf []byte
		for {
			payload, err := wire.ReadFrameBuf(conn, buf)
			if err != nil {
				break
			}
			buf = payload[:cap(payload)]
			d := wire.NewDecoder(payload)
			if _, err := decodeDeliveryHeader(d); err != nil {
				break
			}
			entries, err := wire.DecodeBatch(d)
			if err != nil {
				break
			}
			events += len(entries)
		}
		done <- events
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}

	payloads := ingestPayloads()
	const perBatch = 256
	entries := make([]wire.BatchEntry, 0, perBatch)
	var sizes []int
	bytesPerEvent := 0

	b.ReportAllocs()
	b.ResetTimer()
	seq := uint64(0)
	for sent := 0; sent < b.N; {
		entries = entries[:0]
		for len(entries) < perBatch && sent+len(entries) < b.N {
			seq++
			entries = append(entries, wire.BatchEntry{Seq: seq, Epoch: 1, Payload: payloads[int(seq)%len(payloads)]})
		}
		hdr := appendDeliveryHeader(wire.GetBuf(), "n0", 1)
		env, s := wire.AppendBatch(hdr, entries, compress, sizes[:0])
		sizes = s
		if err := wire.WriteFrame(conn, env); err != nil {
			b.Fatal(err)
		}
		bytesPerEvent += len(env) + 4
		wire.PutBuf(env)
		sent += len(entries)
	}
	conn.Close()
	got := <-done
	b.StopTimer()
	if got != b.N {
		b.Fatalf("receiver decoded %d events, sender wrote %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(bytesPerEvent)/float64(b.N), "bytes/event")
}

// BenchmarkIngest is the wire tier of the ingest fast path, with and
// without the batch delta coding.
func BenchmarkIngest(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchIngestWire(b, true) })
	b.Run("batched-nocompress", func(b *testing.B) { benchIngestWire(b, false) })
}

// BenchmarkIngestCluster measures the full pipeline — inject, route,
// derive, ship, settle — across a 4-node chain, one row per scheme.
func BenchmarkIngestCluster(b *testing.B) {
	for _, scheme := range []string{core.SchemeExSPAN, core.SchemeBasic, core.SchemeAdvanced} {
		b.Run(scheme, func(b *testing.B) {
			g := topo.Line(4, "n")
			c, err := New(Config{
				Prog:   apps.Forwarding(),
				Funcs:  apps.Funcs(),
				Nodes:  g.Nodes(),
				Scheme: scheme,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Inject(pkt("n0", "n0", "n3", fmt.Sprintf("bench-%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Quiesce(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
