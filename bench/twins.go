package main

import (
	"os"
	"runtime"
	"time"

	"provcompress/internal/analysis"
	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/store"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// A twin replays the workload's own tuples through one layer's exported
// functions in isolation, outside any cluster, so the layer's cost per
// call is known apart from the coordination around it.

// twinReps is how often each timed twin loop repeats; the median is kept.
const twinReps = 5

// twinBatch is how many frames one batch of the wire twin coalesces.
const twinBatch = 64

// measure times fn and counts its allocations, under one of the
// benchmark's own spans.
func (e *env) measure(name string, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := e.span("bench.twin", name)
	start := time.Now()
	fn()
	took := time.Since(start)
	sp.End()
	runtime.ReadMemStats(&m1)
	return float64(took.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
}

// repeat runs measure twinReps times and returns the medians per item.
func (e *env) repeat(name string, items int, fn func()) (nsPerItem, allocsPerItem float64) {
	var ns, allocs []float64
	for i := 0; i < twinReps; i++ {
		n, a := e.measure(name, fn)
		ns = append(ns, n/float64(items))
		allocs = append(allocs, a/float64(items))
	}
	return median(ns), median(allocs)
}

// step is one rule firing of an event's derivation and the node it
// happened at.
type step struct {
	at     types.NodeAddr
	firing engine.Firing
}

// pipeline is the workload's events pushed through the DELP hop by hop
// with no cluster around them: which tuples arrive where, which rules
// fire, and what comes out.
type pipeline struct {
	arrivals []types.Tuple // every tuple that arrives at a node with rules to run
	chains   [][]step      // per event, its rule firings in order
	outputs  []types.Tuple // per event, the output tuple
	firings  int
}

// loadedDatabases returns one database per node holding its base tuples.
func loadedDatabases(base []types.Tuple) map[types.NodeAddr]*engine.Database {
	dbs := map[types.NodeAddr]*engine.Database{}
	for _, n := range line.Nodes() {
		dbs[n] = engine.NewDatabase()
	}
	for _, t := range base {
		dbs[t.Loc()].Insert(t)
	}
	return dbs
}

func (e *env) buildPipeline(evs []types.Tuple, dbs map[types.NodeAddr]*engine.Database, plans *engine.Plans) *pipeline {
	prog, funcs := e.wl.prog(), apps.Funcs()
	p := &pipeline{chains: make([][]step, len(evs)), outputs: make([]types.Tuple, len(evs))}
	for i, ev := range evs {
		// The bundled DELPs derive one head per arrival, so the event's
		// derivation is a chain; cur follows it to the output relation.
		for cur := ev; ; {
			rules := prog.RulesForEvent(cur.Rel)
			if len(rules) == 0 {
				p.outputs[i] = cur
				break
			}
			p.arrivals = append(p.arrivals, cur)
			var next types.Tuple
			for _, r := range rules {
				fs, err := plans.Eval(r, dbs[cur.Loc()], cur, funcs)
				e.ops.attempt(err)
				for _, f := range fs {
					p.chains[i] = append(p.chains[i], step{at: cur.Loc(), firing: f})
					next = f.Head
					p.firings++
				}
			}
			if next.Rel == "" {
				e.ops.fail("twin: no rule fired for " + cur.String())
				break
			}
			cur = next
		}
	}
	return p
}

// runTwins measures every leaf layer on evs and returns the types.*,
// engine.*, core.*, wire.* and store.* metrics, plus the twin time per
// injected event the cluster residual is taken against.
func (e *env) runTwins(evs []types.Tuple) (metrics, float64) {
	m := metrics{}
	prog, funcs := e.wl.prog(), apps.Funcs()
	base := e.wl.base(evs)
	plans := engine.CompileProgram(prog)
	dbs := loadedDatabases(base)
	p := e.buildPipeline(evs, dbs, plans)
	events := float64(len(evs))
	arrivals := float64(len(p.arrivals))

	// types: the hashing and encoding every hop performs on its tuple.
	hashNS, hashAllocs := e.repeat("types.HashTuple", len(p.arrivals), func() {
		for _, t := range p.arrivals {
			e.sink = types.HashTuple(t)
		}
	})
	var buf []byte
	encodeNS, _ := e.repeat("types.AppendEncode", len(p.arrivals), func() {
		for _, t := range p.arrivals {
			buf = t.AppendEncode(buf[:0])
		}
	})
	m["types.hash_ns_per_tuple"] = single(hashNS)
	m["types.hash_allocs_per_tuple"] = single(hashAllocs)
	m["types.encode_ns_per_tuple"] = single(encodeNS)

	// engine: the join of one arriving tuple against its node's tables,
	// inserts into a fresh database, and VID lookups.
	evalNS, evalAllocs := e.repeat("engine.Plans.Eval", len(p.arrivals), func() {
		for _, t := range p.arrivals {
			for _, r := range prog.RulesForEvent(t.Rel) {
				fs, _ := plans.Eval(r, dbs[t.Loc()], t, funcs) //nolint:errcheck // checked in buildPipeline
				e.sink = fs
			}
		}
	})
	rows := append(append([]types.Tuple(nil), base...), p.arrivals...)
	var filled *engine.Database
	insertNS, _ := e.repeat("engine.Database.Insert", len(rows), func() {
		filled = engine.NewDatabase()
		for _, t := range rows {
			filled.Insert(t)
		}
	})
	vids := make([]types.ID, len(rows))
	for i, t := range rows {
		vids[i] = types.HashTuple(t)
	}
	lookupNS, _ := e.repeat("engine.Database.LookupVID", len(vids), func() {
		for _, v := range vids {
			t, _ := filled.LookupVID(v)
			e.sink = t
		}
	})
	m["engine.eval_ns_per_event"] = single(evalNS)
	m["engine.eval_allocs_per_event"] = single(evalAllocs)
	m["engine.firings_per_event"] = single(float64(p.firings) / arrivals)
	m["engine.insert_ns_per_tuple"] = single(insertNS)
	m["engine.lookup_vid_ns"] = single(lookupNS)

	// core: the Advanced scheme's three maintenance steps, on fresh
	// per-node states each repetition.
	keys := analysis.BuildGraph(prog).EquivalenceKeys()
	var (
		states   map[types.NodeAddr]*core.AdvancedState
		metas    = make([]core.AdvMeta, len(evs))
		shipped  []shippedFrame
		injectNS []float64
		fireNS   []float64
		outNS    []float64
		allocs   []float64
		exist    int
	)
	for rep := 0; rep < twinReps; rep++ {
		states = map[types.NodeAddr]*core.AdvancedState{}
		for _, n := range line.Nodes() {
			states[n] = core.NewAdvancedState(keys)
		}
		shipped, exist = shipped[:0], 0
		n1, a1 := e.measure("core.Inject", func() {
			for i, ev := range evs {
				metas[i] = states[ev.Loc()].Inject(ev)
			}
		})
		for _, meta := range metas {
			if meta.Exist {
				exist++
			}
		}
		n2, a2 := e.measure("core.FireAt", func() {
			for i, chain := range p.chains {
				for _, s := range chain {
					metas[i] = states[s.at].FireAt(s.at, s.firing, metas[i])
					shipped = append(shipped, shippedFrame{from: s.at, head: s.firing.Head, meta: metas[i]})
				}
			}
		})
		n3, a3 := e.measure("core.Output", func() {
			for i, out := range p.outputs {
				e.sink = states[out.Loc()].Output(out, metas[i])
			}
		})
		injectNS = append(injectNS, n1/events)
		fireNS = append(fireNS, n2/float64(p.firings))
		outNS = append(outNS, n3/events)
		allocs = append(allocs, (a1+a2+a3)/events)
	}
	var stored int64
	var persisted []byte
	persistNS, _ := e.repeat("core.Persist", 1, func() {
		enc := wire.NewEncoder(1 << 16)
		for _, n := range line.Nodes() {
			states[n].Persist(enc)
		}
		persisted = enc.Bytes()
	})
	for _, st := range states {
		stored += st.StorageBytes()
	}
	m["core.inject_ns_per_event"] = single(median(injectNS))
	m["core.fire_ns_per_firing"] = single(median(fireNS))
	m["core.output_ns_per_event"] = single(median(outNS))
	m["core.maintain_allocs_per_event"] = single(median(allocs))
	m["core.exist_true_ratio"] = single(float64(exist) / events)
	m["core.storage_bytes_per_event"] = single(float64(stored) / events)
	m["core.persist_ns_per_kib"] = single(persistNS / (float64(len(persisted)) / 1024))

	frames := e.wireTwin(m, p.arrivals, shipped)
	e.storeTwin(m, frames, persisted)

	// Twin time per injected event, weighted by how often the cluster
	// makes each call for one event: every arrival (the output's too) is
	// decoded, inserted and joined; every firing is maintained, encoded
	// and travels in a batch; injection and output happen once.
	perArrival := m["engine.eval_ns_per_event"].Value + m["engine.insert_ns_per_tuple"].Value + m["wire.tuple_decode_ns"].Value
	perFiring := m["core.fire_ns_per_firing"].Value + m["wire.tuple_encode_ns"].Value +
		m["wire.batch_append_ns_per_frame"].Value + m["wire.batch_decode_ns_per_frame"].Value
	twinNS := (arrivals+events)/events*perArrival + float64(p.firings)/events*perFiring +
		m["core.inject_ns_per_event"].Value + m["core.output_ns_per_event"].Value
	return m, twinNS / 1e3
}

// shippedFrame is one derived head on its way to the next node.
type shippedFrame struct {
	from types.NodeAddr
	head types.Tuple
	meta core.AdvMeta
}

// wireTwin measures tuple and batch coding. The frames have the layout
// of the cluster's tuple frames (kind, trace context, tuple, fresh flag,
// provenance metadata) and are batched per link, 64 to a batch, the way
// the transport coalesces them. It returns the frame payloads.
func (e *env) wireTwin(m metrics, tuples []types.Tuple, shipped []shippedFrame) [][]byte {
	enc := wire.NewEncoder(256)
	var buf []byte
	encNS, _ := e.repeat("wire.Encoder.Tuple", len(tuples), func() {
		for _, t := range tuples {
			enc.SetBuf(buf[:0])
			enc.Tuple(t)
			buf = enc.Bytes()
		}
	})
	encoded := make([][]byte, len(tuples))
	for i, t := range tuples {
		te := wire.NewEncoder(t.EncodedSize() + 8)
		te.Tuple(t)
		encoded[i] = te.Bytes()
	}
	decNS, _ := e.repeat("wire.Decoder.Tuple", len(encoded), func() {
		for _, b := range encoded {
			e.sink = wire.NewDecoder(b).Tuple()
		}
	})
	m["wire.tuple_encode_ns"] = single(encNS)
	m["wire.tuple_decode_ns"] = single(decNS)

	type link struct{ from, to types.NodeAddr }
	perLink := map[link][]wire.BatchEntry{}
	var order []link
	frames := make([][]byte, 0, len(shipped))
	raw := 0
	for i, s := range shipped {
		fe := wire.NewEncoder(128)
		fe.U8(1)  // frame kind
		fe.U64(0) // trace context of an untraced run: two zero words
		fe.U64(0)
		fe.Tuple(s.head)
		fe.Bool(false) // not a fresh injection: metadata follows
		fe.ID(s.meta.Eq)
		fe.Bool(s.meta.Exist)
		fe.ID(s.meta.EvID)
		fe.Str(string(s.meta.Prev.Loc))
		fe.ID(s.meta.Prev.RID)
		frames = append(frames, fe.Bytes())
		raw += fe.Len()
		l := link{s.from, s.head.Loc()}
		if _, ok := perLink[l]; !ok {
			order = append(order, l)
		}
		perLink[l] = append(perLink[l], wire.BatchEntry{Seq: uint64(i), Epoch: 1, Payload: fe.Bytes()})
	}
	var batches [][]wire.BatchEntry
	for _, l := range order {
		for ents := perLink[l]; len(ents) > 0; ents = ents[min(twinBatch, len(ents)):] {
			batches = append(batches, ents[:min(twinBatch, len(ents))])
		}
	}
	var dst []byte
	var sizes []int
	appendNS, appendAllocs := e.repeat("wire.AppendBatch", len(frames), func() {
		for _, b := range batches {
			dst, sizes = wire.AppendBatch(dst[:0], b, true, sizes[:0])
		}
	})
	// The ratio compares each frame with the payload section it became:
	// what delta-encoding against the previous frame of the link saved.
	bodies := make([][]byte, len(batches))
	packed := 0
	for i, b := range batches {
		var sections []int
		bodies[i], sections = wire.AppendBatch(nil, b, true, nil)
		for _, n := range sections {
			packed += n
		}
	}
	decodeNS, decodeAllocs := e.repeat("wire.DecodeBatch", len(frames), func() {
		for _, body := range bodies {
			ents, err := wire.DecodeBatch(wire.NewDecoder(body))
			if err != nil {
				e.ops.fail("twin: " + err.Error())
			}
			e.sink = ents
		}
	})
	m["wire.batch_append_ns_per_frame"] = single(appendNS)
	m["wire.batch_decode_ns_per_frame"] = single(decodeNS)
	m["wire.batch_compress_ratio"] = single(float64(raw) / float64(packed))
	m["wire.allocs_per_frame"] = single(appendAllocs + decodeAllocs)
	return frames
}

// storeTwinRecords caps the store twin's log: enough appends for a steady
// per-record cost without spending the sandbox's disk budget on it.
const storeTwinRecords = 20_000

// storeTwin measures the WAL on records the size of the workload's
// frames, under the benchmark's flush policy (interval fsync, 50 ms):
// append, explicit sync, replay on open, and a checkpoint of the core
// twin's persisted state.
func (e *env) storeTwin(m metrics, records [][]byte, snapshot []byte) {
	records = records[:min(len(records), storeTwinRecords)]
	dir, err := e.tempDir()
	if !e.ops.attempt(err) {
		return
	}
	defer os.RemoveAll(dir)
	opts := store.Options{Fsync: store.SyncInterval}
	ns, err := store.Open(dir, opts, nil, nil)
	if !e.ops.attempt(err) {
		return
	}
	// Appends go in five chunks with a Sync after each, so sync_ms is a
	// median over flushes of equal size.
	var appendNS, syncMS []float64
	chunk := (len(records) + 4) / 5
	for start := 0; start < len(records); start += chunk {
		part := records[start:min(start+chunk, len(records))]
		took, _ := e.measure("store.Append", func() {
			for _, rec := range part {
				if _, err := ns.Append(rec); err != nil {
					e.ops.fail("twin: " + err.Error())
				}
			}
		})
		appendNS = append(appendNS, took/float64(len(part)))
		took, _ = e.measure("store.Sync", func() { e.ops.attempt(ns.Sync()) })
		syncMS = append(syncMS, took/1e6)
	}
	st := ns.Stats()
	e.ops.attempt(ns.Close())

	replayed := 0
	var reopened *store.NodeStore
	replayNS, _ := e.measure("store.Open", func() {
		reopened, err = store.Open(dir, opts, nil, func([]byte) error { replayed++; return nil })
	})
	if !e.ops.attempt(err) {
		return
	}
	e.ops.check(replayed == len(records), "twin: replayed %d of %d records", replayed, len(records))
	checkpointNS, _ := e.measure("store.Checkpoint", func() { e.ops.attempt(reopened.Checkpoint(snapshot)) })
	e.ops.attempt(reopened.Close())

	m["store.append_ns_per_record"] = single(median(appendNS))
	m["store.append_bytes_per_record"] = single(float64(st.WALBytes) / float64(st.WALRecords))
	m["store.sync_ms"] = summarize(syncMS)
	m["store.checkpoint_ms"] = single(checkpointNS / 1e6)
	m["store.replay_ns_per_record"] = single(replayNS / float64(len(records)))
}
