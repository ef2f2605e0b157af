package experiments

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/metrics"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// Ablation experiments probe the design choices DESIGN.md calls out: the
// value of the Section 5.4 inter-class table split, the cost of the
// compression metadata as payloads shrink, and how query latency scales
// with path length.

// AblationICResult compares the default (chained) Advanced scheme against
// the Section 5.4 inter-class split on a convergent workload where many
// equivalence classes share path suffixes.
type AblationICResult struct {
	Nodes           int
	PacketsPerClass int
	Chained         int64
	InterClass      int64
	ChainedNodes    int
	ICNodes         int
}

// AblationInterClass sends packets from every node of a chain towards the
// last node: class i's provenance chain is a suffix of class i+1's, the
// sharing opportunity the split exploits.
func AblationInterClass(nodes, packetsPerClass int) (*AblationICResult, error) {
	res := &AblationICResult{Nodes: nodes, PacketsPerClass: packetsPerClass}
	run := func(scheme string) (int64, int, error) {
		maint, err := core.NewScheme(scheme)
		if err != nil {
			return 0, 0, err
		}
		var sched sim.Scheduler
		g := topo.Line(nodes, "n")
		net := netsim.New(&sched, g)
		rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
		rt.KeepOutputs = false
		if err := rt.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
			return 0, 0, err
		}
		dst := types.NodeAddr(fmt.Sprintf("n%d", nodes-1))
		seq := 0
		for i := 0; i < nodes-1; i++ {
			src := types.NodeAddr(fmt.Sprintf("n%d", i))
			for k := 0; k < packetsPerClass; k++ {
				rt.InjectAt(time.Duration(seq)*time.Millisecond,
					workload.PacketEvent(workload.Pair{Src: src, Dst: dst}, int64(seq), 64))
				seq++
			}
		}
		rt.Run()
		execRows := 0
		for _, addr := range g.Nodes() {
			execRows += len(maint.RuleExecRows(addr))
		}
		return maint.TotalStorageBytes(), execRows, nil
	}
	var err error
	if res.Chained, res.ChainedNodes, err = run(core.SchemeAdvanced); err != nil {
		return nil, err
	}
	if res.InterClass, res.ICNodes, err = run(core.SchemeAdvancedInterClass); err != nil {
		return nil, err
	}
	return res, nil
}

// Title describes the ablation.
func (r *AblationICResult) Title() string {
	return fmt.Sprintf("Ablation: Section 5.4 inter-class sharing (%d convergent classes, %d packets each)",
		r.Nodes-1, r.PacketsPerClass)
}

// Headers returns the table header.
func (r *AblationICResult) Headers() []string {
	return []string{"variant", "ruleExec rows", "prov storage", "saving"}
}

// Rows returns the comparison.
func (r *AblationICResult) Rows() [][]string {
	saving := float64(r.Chained-r.InterClass) / float64(r.Chained) * 100
	return [][]string{
		{"Advanced (chained)", fmt.Sprint(r.ChainedNodes), metrics.HumanBytes(r.Chained), ""},
		{"Advanced+IC (5.4)", fmt.Sprint(r.ICNodes), metrics.HumanBytes(r.InterClass),
			fmt.Sprintf("%.1f%%", saving)},
	}
}

// AblationMetaResult measures the bandwidth overhead of the compression
// metadata as the application payload shrinks — the mechanism behind the
// Figure 11 vs Figure 15 contrast.
type AblationMetaResult struct {
	PayloadSizes []int
	// OverheadPct[i] is Advanced's wire-byte overhead over ExSPAN at
	// PayloadSizes[i].
	OverheadPct []float64
}

// AblationMetaOverhead runs a fixed forwarding workload at several payload
// sizes and reports Advanced's relative bandwidth overhead.
func AblationMetaOverhead(payloadSizes []int) (*AblationMetaResult, error) {
	res := &AblationMetaResult{PayloadSizes: payloadSizes}
	for _, size := range payloadSizes {
		bytes := make(map[string]int64)
		for _, scheme := range []string{core.SchemeExSPAN, core.SchemeAdvanced} {
			maint, err := core.NewScheme(scheme)
			if err != nil {
				return nil, err
			}
			var sched sim.Scheduler
			g := topo.Line(6, "n")
			net := netsim.New(&sched, g)
			rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
			rt.KeepOutputs = false
			if err := rt.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
				return nil, err
			}
			w := workload.PairTraffic{
				Pairs:        []workload.Pair{{Src: "n0", Dst: "n5"}, {Src: "n5", Dst: "n0"}},
				Rate:         100,
				PayloadBytes: size,
				PerPairCount: 100,
			}
			w.Schedule(rt, 0)
			rt.Run()
			bytes[scheme] = net.TotalBytes()
		}
		res.OverheadPct = append(res.OverheadPct,
			float64(bytes[core.SchemeAdvanced]-bytes[core.SchemeExSPAN])/float64(bytes[core.SchemeExSPAN])*100)
	}
	return res, nil
}

// Title describes the ablation.
func (r *AblationMetaResult) Title() string {
	return "Ablation: compression metadata overhead vs. payload size (Advanced over ExSPAN)"
}

// Headers returns the table header.
func (r *AblationMetaResult) Headers() []string {
	return []string{"payload (bytes)", "bandwidth overhead"}
}

// Rows returns the overhead per payload size.
func (r *AblationMetaResult) Rows() [][]string {
	var rows [][]string
	for i, size := range r.PayloadSizes {
		rows = append(rows, []string{fmt.Sprint(size), fmt.Sprintf("%+.1f%%", r.OverheadPct[i])})
	}
	return rows
}

// AblationGzipResult compares the equivalence-based structural compression
// against content-level compression of the uncompressed tables — the
// alternative Section 2.3 argues against (gzip would save space but make
// the provenance unqueryable without decompressing and would not reduce
// maintenance-time state).
type AblationGzipResult struct {
	Packets      int
	ExSPANRaw    int64 // serialized ExSPAN tables
	ExSPANGzip   int64 // the same tables gzip-compressed
	AdvancedRaw  int64 // serialized Advanced tables (queryable as-is)
	AdvancedGzip int64
}

// AblationGzip runs a shared-class forwarding workload and measures each
// representation.
func AblationGzip(packets int) (*AblationGzipResult, error) {
	res := &AblationGzipResult{Packets: packets}
	serialized := func(scheme string) ([]byte, error) {
		maint, err := core.NewScheme(scheme)
		if err != nil {
			return nil, err
		}
		var sched sim.Scheduler
		g := topo.Line(6, "n")
		net := netsim.New(&sched, g)
		rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
		rt.KeepOutputs = false
		if err := rt.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
			return nil, err
		}
		for i := 0; i < packets; i++ {
			rt.InjectAt(time.Duration(i)*time.Millisecond,
				workload.PacketEvent(workload.Pair{Src: "n0", Dst: "n5"}, int64(i), 64))
		}
		rt.Run()
		var all []byte
		for _, addr := range g.Nodes() {
			all = append(all, maint.SerializeNode(addr)...)
		}
		return all, nil
	}
	gz := func(b []byte) (int64, error) {
		var buf bytes.Buffer
		w, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		if err != nil {
			return 0, err
		}
		if _, err := w.Write(b); err != nil {
			return 0, err
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
		return int64(buf.Len()), nil
	}

	ex, err := serialized(core.SchemeExSPAN)
	if err != nil {
		return nil, err
	}
	ad, err := serialized(core.SchemeAdvanced)
	if err != nil {
		return nil, err
	}
	res.ExSPANRaw = int64(len(ex))
	res.AdvancedRaw = int64(len(ad))
	if res.ExSPANGzip, err = gz(ex); err != nil {
		return nil, err
	}
	if res.AdvancedGzip, err = gz(ad); err != nil {
		return nil, err
	}
	return res, nil
}

// Title describes the ablation.
func (r *AblationGzipResult) Title() string {
	return fmt.Sprintf("Ablation: structural compression vs. gzip of uncompressed tables (%d shared-class packets)", r.Packets)
}

// Headers returns the table header.
func (r *AblationGzipResult) Headers() []string {
	return []string{"representation", "bytes", "queryable in place"}
}

// Rows returns the comparison.
func (r *AblationGzipResult) Rows() [][]string {
	return [][]string{
		{"ExSPAN tables", metrics.HumanBytes(r.ExSPANRaw), "yes"},
		{"ExSPAN tables, gzipped", metrics.HumanBytes(r.ExSPANGzip), "no (decompress first)"},
		{"Advanced tables", metrics.HumanBytes(r.AdvancedRaw), "yes"},
		{"Advanced tables, gzipped", metrics.HumanBytes(r.AdvancedGzip), "no (decompress first)"},
	}
}

// AblationQueryResult measures query latency against path length per
// scheme.
type AblationQueryResult struct {
	PathLengths []int
	// LatencyMS[scheme][i] is the query latency in milliseconds over a
	// path of PathLengths[i] hops.
	LatencyMS map[string][]float64
	order     []string
}

// AblationQueryScaling runs one query per chain length per scheme.
func AblationQueryScaling(pathLengths []int) (*AblationQueryResult, error) {
	res := &AblationQueryResult{
		PathLengths: pathLengths,
		LatencyMS:   make(map[string][]float64),
		order:       core.SchemeNames(),
	}
	for _, scheme := range res.order {
		for _, hops := range pathLengths {
			maint, err := core.NewScheme(scheme)
			if err != nil {
				return nil, err
			}
			var sched sim.Scheduler
			g := topo.Line(hops+1, "n").WithUniformLinks(200*time.Microsecond, 1_000_000_000)
			net := netsim.New(&sched, g)
			rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
			if err := rt.LoadBase(g.ShortestPaths().RouteTuples()); err != nil {
				return nil, err
			}
			dst := types.NodeAddr(fmt.Sprintf("n%d", hops))
			ev := workload.PacketEvent(workload.Pair{Src: "n0", Dst: dst}, 1, 500)
			rt.InjectAt(0, ev)
			rt.Run()
			if rt.NumOutputs() != 1 {
				return nil, fmt.Errorf("experiments: ablation query: no output at %d hops", hops)
			}
			out := rt.Outputs()[0].Tuple
			var lat time.Duration
			maint.QueryProvenance(out, types.HashTuple(ev), func(qr core.QueryResult) {
				lat = qr.Latency
			})
			rt.Run()
			res.LatencyMS[scheme] = append(res.LatencyMS[scheme],
				float64(lat)/float64(time.Millisecond))
		}
	}
	return res, nil
}

// Title describes the ablation.
func (r *AblationQueryResult) Title() string {
	return "Ablation: query latency vs. path length (LAN emulation)"
}

// Headers returns the table header.
func (r *AblationQueryResult) Headers() []string {
	return []string{"hops", "ExSPAN", "Basic", "Advanced"}
}

// Rows returns one row per path length.
func (r *AblationQueryResult) Rows() [][]string {
	var rows [][]string
	for i, hops := range r.PathLengths {
		row := []string{fmt.Sprint(hops)}
		for _, s := range r.order {
			row = append(row, fmt.Sprintf("%.1f ms", r.LatencyMS[s][i]))
		}
		rows = append(rows, row)
	}
	return rows
}
