// Command provload is the load generator for provd: it samples the
// daemon's output tuples with a Zipf distribution (hot queries recur, so
// the result cache does real work) and hammers /v1/query from concurrent
// clients, reporting achieved QPS and p50/p95/p99 latency.
//
// Usage (against a running provd):
//
//	provload -addr http://127.0.0.1:8463 -n 5000 -c 16 -alpha 0.9
//
// With -inject, provload first pushes a packet workload through
// POST /v1/events so a freshly started daemon has outputs to query:
//
//	provload -inject -nodes 8 -packets 40
//
// With -mixed, a background writer keeps injecting fresh events into one
// equivalence class (-write-src/-write-dst, default n0->n1) while the
// readers run, and the report adds the write count and cache hit rate:
//
//	provload -inject -mixed -write-interval 1ms
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"provcompress/internal/provserve"
	"provcompress/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8463", "provd base URL")
	scheme := flag.String("scheme", "", "provenance scheme to query (empty = daemon default)")
	n := flag.Int("n", 2000, "total queries to issue")
	c := flag.Int("c", 8, "concurrent client workers")
	alpha := flag.Float64("alpha", 0.9, "Zipf exponent for query popularity")
	seed := flag.Int64("seed", 1, "Zipf sampler seed")
	inject := flag.Bool("inject", false, "inject a packet workload before querying")
	nodes := flag.Int("nodes", 8, "with -inject: daemon chain length (packets run n0 -> n<last>)")
	packets := flag.Int("packets", 40, "with -inject: packets to inject")
	mixed := flag.Bool("mixed", false, "run a writer alongside the readers and report the cache hit rate")
	writeInterval := flag.Duration("write-interval", time.Millisecond, "with -mixed: gap between injected writer events")
	writeSrc := flag.String("write-src", "n0", "with -mixed: writer packet source node")
	writeDst := flag.String("write-dst", "n1", "with -mixed: writer packet destination node")
	tenant := flag.String("tenant", "", "tenant label to bill the run against (empty = default tenant)")
	flag.Parse()

	if *inject {
		if err := injectWorkload(*addr, *nodes, *packets); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("injected %d packets\n", *packets)
	}

	lcfg := provserve.LoadConfig{
		BaseURL:     *addr,
		Scheme:      *scheme,
		Requests:    *n,
		Concurrency: *c,
		Alpha:       *alpha,
		Seed:        *seed,
		Tenant:      *tenant,
	}
	if *mixed {
		report, err := provserve.RunMixedLoad(provserve.MixedLoadConfig{
			LoadConfig:    lcfg,
			WriteInterval: *writeInterval,
			WriteSrc:      *writeSrc,
			WriteDst:      *writeDst,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report)
		return
	}
	report, err := provserve.RunLoad(lcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
}

// injectWorkload pushes packets end to end across the daemon's chain and
// waits for quiescence.
func injectWorkload(addr string, nodes, packets int) error {
	type tupleSpec struct {
		Rel  string `json:"rel"`
		Args []any  `json:"args"`
	}
	last := fmt.Sprintf("n%d", nodes-1)
	var events []tupleSpec
	for i := 0; i < packets; i++ {
		dst := last
		if i%3 == 1 && nodes > 2 {
			dst = fmt.Sprintf("n%d", nodes/2)
		}
		events = append(events, tupleSpec{
			Rel:  "packet",
			Args: []any{"n0", "n0", dst, workload.Payload(int64(i), 48)},
		})
	}
	body, err := json.Marshal(map[string]any{"events": events, "wait_ms": 30000})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(addr+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("provload: inject status %s", resp.Status)
	}
	return nil
}
