// Command provsim regenerates the figures of the paper's evaluation
// section (Section 6) on the simulated network and prints the series each
// figure plots.
//
// Usage:
//
//	provsim [flags] fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|all
//	provsim tables
//
// By default the experiments run at a reduced scale that finishes in
// seconds; -paper selects the paper's full parameters (100 pairs at 100
// packets/second for 100 seconds, 1000 DNS requests/second, 100,000 DNS
// requests for fig15 — expect long runs and large memory).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/experiments"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

func main() {
	paper := flag.Bool("paper", false, "run at the paper's full scale")
	pairs := flag.Int("pairs", 0, "override the number of communicating pairs")
	rate := flag.Float64("rate", 0, "override the per-pair packet rate / aggregate DNS rate")
	duration := flag.Duration("duration", 0, "override the experiment duration")
	queries := flag.Int("queries", 100, "number of provenance queries (fig12)")
	seed := flag.Int64("seed", 1, "workload seed")
	csvOut := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	ic := flag.Bool("ic", false, "add the Section 5.4 inter-class variant as a fourth series")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: provsim [flags] fig8..fig16 | all | tables")
		flag.PrintDefaults()
		os.Exit(2)
	}

	fcfg := experiments.DefaultForwardingConfig()
	dcfg := experiments.DefaultDNSConfig()
	if *paper {
		fcfg = experiments.PaperForwardingConfig()
		dcfg = experiments.PaperDNSConfig()
	}
	if *pairs > 0 {
		fcfg.Pairs = *pairs
	}
	if *rate > 0 {
		fcfg.Rate = *rate
		dcfg.Rate = *rate
	}
	if *duration > 0 {
		fcfg.Duration = *duration
		dcfg.Duration = *duration
	}
	fcfg.Seed = *seed
	dcfg.Seed = *seed
	if *ic {
		fcfg.Schemes = core.AllSchemeNames()
		dcfg.Schemes = core.AllSchemeNames()
	}

	fig10Packets, fig10Pairs := 2000, []int{10, 20, 40, 60, 80, 100}
	fig14Requests, fig14URLs := 200, []int{2, 6, 10, 14, 18, 22, 26, 30, 34, 38}
	fig15Requests := 2000
	updateEvery := 2 * fcfg.Duration / 10
	if *paper {
		fig15Requests = 100_000
		updateEvery = 10 * time.Second
	}

	run := func(name string) {
		var (
			res experiments.Result
			err error
		)
		start := time.Now()
		switch name {
		case "fig8":
			res, err = experiments.Fig8(fcfg)
		case "fig9":
			res, err = experiments.Fig9(fcfg)
		case "fig10":
			res, err = experiments.Fig10(fcfg, fig10Packets, fig10Pairs)
		case "fig11":
			res, err = experiments.Fig11(fcfg, updateEvery)
		case "fig12":
			c := fcfg
			if !*paper && c.Rate > 10 {
				c.Rate = 10 // queries need materialization; keep memory sane
			}
			res, err = experiments.Fig12(c, *queries)
		case "fig13":
			res, err = experiments.Fig13(dcfg)
		case "fig14":
			res, err = experiments.Fig14(dcfg, fig14Requests, fig14URLs)
		case "fig15":
			c := dcfg
			c.Duration = 0
			res, err = experiments.Fig15(c, fig15Requests)
		case "fig16":
			res, err = experiments.Fig16(dcfg)
		case "ablation-ic":
			res, err = experiments.AblationInterClass(12, 10)
		case "ablation-meta":
			res, err = experiments.AblationMetaOverhead([]int{0, 16, 64, 128, 500, 1500})
		case "ablation-query":
			res, err = experiments.AblationQueryScaling([]int{2, 4, 6, 8, 12, 16})
		case "ablation-gzip":
			res, err = experiments.AblationGzip(200)
		default:
			fmt.Fprintf(os.Stderr, "provsim: unknown experiment %q\n", name)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "provsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csvOut {
			if err := experiments.WriteCSV(os.Stdout, res); err != nil {
				fmt.Fprintf(os.Stderr, "provsim: %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(experiments.Format(res))
		fmt.Printf("(%s completed in %v wall clock)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	target := flag.Arg(0)
	if target == "tables" {
		printWorkedExampleTables()
		return
	}
	if target == "all" {
		for _, name := range []string{
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
			"ablation-ic", "ablation-meta", "ablation-query", "ablation-gzip",
		} {
			run(name)
		}
		return
	}
	run(target)
}

// printWorkedExampleTables reproduces the paper's Tables 1-4: the
// provenance tables each scheme maintains for the Figure 2 / Figure 6
// walkthrough.
func printWorkedExampleTables() {
	scenarios := []struct {
		title  string
		scheme string
		events []types.Tuple
	}{
		{"Table 1 (ExSPAN): packet(@n1,n1,n3,\"data\")", core.SchemeExSPAN,
			[]types.Tuple{pktT("n1", "n1", "n3", "data")}},
		{"Table 2 (Basic): same execution, optimized tables", core.SchemeBasic,
			[]types.Tuple{pktT("n1", "n1", "n3", "data")}},
		{"Table 3 (Advanced): \"data\" then \"url\" share one chain", core.SchemeAdvanced,
			[]types.Tuple{pktT("n1", "n1", "n3", "data"), pktT("n1", "n1", "n3", "url")}},
		{"Table 4 (Advanced+IC): \"ack\" from n2 shares nodes across classes", core.SchemeAdvancedInterClass,
			[]types.Tuple{pktT("n1", "n1", "n3", "data"), pktT("n2", "n2", "n3", "ack")}},
	}
	for _, sc := range scenarios {
		maint, err := core.NewScheme(sc.scheme)
		if err != nil {
			fmt.Fprintln(os.Stderr, "provsim:", err)
			os.Exit(1)
		}
		var sched sim.Scheduler
		net := netsim.New(&sched, topo.Fig2())
		rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
		if err := rt.LoadBase(topo.Fig2Routes()); err != nil {
			fmt.Fprintln(os.Stderr, "provsim:", err)
			os.Exit(1)
		}
		for i, ev := range sc.events {
			rt.InjectAt(time.Duration(i)*time.Millisecond, ev)
		}
		rt.Run()
		fmt.Println(sc.title)
		fmt.Println(core.DumpTables(maint, net.Graph().Nodes()))
		fmt.Println()
	}
}

func pktT(loc, src, dst, dt string) types.Tuple {
	return types.NewTuple("packet",
		types.String(loc), types.String(src), types.String(dst), types.String(dt))
}
