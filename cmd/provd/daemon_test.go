package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"provcompress/internal/provserve"
	"provcompress/internal/trace"
	"provcompress/internal/workload"
)

// runMainEnv, set in a child's environment, makes the test binary run
// provd's main instead of its tests, so a test can boot the real daemon as
// a process and signal it.
const runMainEnv = "PROVD_TEST_RUN_MAIN"

// recoveryBudget bounds one boot of a child daemon, WAL replay included,
// and one clean shutdown.
const recoveryBudget = 30 * time.Second

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a provd child process serving HTTP at base.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startProvd boots provd with args on a random port and returns once its
// /readyz answers 200. The daemon listens before WAL replay finishes and
// answers 503 until it can serve, which is the window a load balancer must
// wait out too. The child is killed at cleanup unless the test stopped it.
func startProvd(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(d.kill)

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "provd listening on http://"); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	deadline := time.After(recoveryBudget)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-deadline:
		t.Fatalf("provd did not report listening within %s", recoveryBudget)
	}
	for {
		resp, err := client.Get(d.base + "/readyz")
		last := fmt.Sprint(err)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
			last = resp.Status
		}
		select {
		case <-deadline:
			t.Fatalf("provd not ready within %s (last: %s)", recoveryBudget, last)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// kill SIGKILLs the daemon: the crash. It does nothing once the daemon
// has exited.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill() //nolint:errcheck // fails only once the child has exited, which Wait reports
	d.cmd.Wait()         //nolint:errcheck // a killed child exits non-zero by design
}

// terminate SIGTERMs the daemon, the clean shutdown, and requires it to
// exit 0 within the recovery budget.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("provd after SIGTERM: %v", err)
		}
	case <-time.After(recoveryBudget):
		d.cmd.Process.Kill() //nolint:errcheck // Wait below reaps the child either way
		<-waited
		t.Fatalf("provd did not exit within %s of SIGTERM", recoveryBudget)
	}
}

var client = &http.Client{Timeout: 30 * time.Second}

type tupleJSON struct {
	Rel  string `json:"rel"`
	Args []any  `json:"args"`
}

type queryReply struct {
	Trees   []string `json:"trees"`
	Cached  bool     `json:"cached"`
	ServeNS int64    `json:"serve_ns"`
	TraceID string   `json:"trace_id"`
}

// call sends one request, requires a 200, decodes the JSON reply into out
// unless out is nil, and returns the raw body.
func call(t *testing.T, method, u string, in, out any) []byte {
	t.Helper()
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s: %s", method, u, resp.Status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v", method, u, err)
		}
	}
	return raw
}

// postEvents injects events and, with waitMS > 0, requires every one
// accepted and the clusters quiesced.
func postEvents(t *testing.T, base string, events []tupleJSON, waitMS int) {
	t.Helper()
	var r struct {
		Accepted int  `json:"accepted"`
		Quiesced bool `json:"quiesced"`
	}
	call(t, http.MethodPost, base+"/v1/events", map[string]any{"events": events, "wait_ms": waitMS}, &r)
	if waitMS > 0 && (r.Accepted != len(events) || !r.Quiesced) {
		t.Fatalf("inject accepted %d/%d, quiesced=%v", r.Accepted, len(events), r.Quiesced)
	}
}

// query returns one output's provenance under scheme, its trees sorted so
// two equivalent answers compare equal whatever the walk order.
func query(t *testing.T, base, scheme string, o tupleJSON) queryReply {
	t.Helper()
	args, err := json.Marshal(o.Args)
	if err != nil {
		t.Fatal(err)
	}
	v := url.Values{"scheme": {scheme}, "rel": {o.Rel}, "args": {string(args)}}
	var r queryReply
	call(t, http.MethodGet, base+"/v1/query?"+v.Encode(), nil, &r)
	sort.Strings(r.Trees)
	return r
}

// TestServeEndToEnd drives a traced daemon serving all four schemes over
// real HTTP: inject and quiesce, one cold query per scheme whose span tree
// /v1/trace/{id} serves as valid Chrome trace JSON, cached repeats at
// least 10x faster server-side than the cold run, non-zero serving
// counters on /metrics, and a Zipf load phase without errors.
func TestServeEndToEnd(t *testing.T) {
	const nodes = 5
	schemes := []string{"advanced", "basic", "exspan", "advanced-ic"}
	d := startProvd(t, "-schemes", strings.Join(schemes, ","), "-nodes", strconv.Itoa(nodes), "-trace")

	// Packets cross the whole chain, every third one only half of it.
	last := fmt.Sprintf("n%d", nodes-1)
	var events []tupleJSON
	for i := 0; i < 12; i++ {
		dst := last
		if i%3 == 1 {
			dst = fmt.Sprintf("n%d", nodes/2)
		}
		events = append(events, tupleJSON{"packet", []any{"n0", "n0", dst, workload.Payload(int64(i), 48)}})
	}
	postEvents(t, d.base, events, 15000)

	target := tupleJSON{"recv", []any{last, "n0", last, workload.Payload(0, 48)}}
	for _, scheme := range schemes {
		cold := query(t, d.base, scheme, target)
		if len(cold.Trees) == 0 || cold.Cached {
			t.Fatalf("%s: first query = %+v, want a cold answer with trees", scheme, cold)
		}
		if cold.TraceID == "" {
			t.Fatalf("%s: traced daemon returned no trace_id", scheme)
		}
		chrome := call(t, http.MethodGet, d.base+"/v1/trace/"+cold.TraceID, nil, nil)
		if _, err := trace.ValidateChrome(chrome); err != nil {
			t.Fatalf("%s: trace %s is not valid Chrome JSON: %v", scheme, cold.TraceID, err)
		}

		// Best of a few repeats, so one scheduler hiccup cannot fail it.
		bestHit := int64(math.MaxInt64)
		for i := 0; i < 5; i++ {
			hit := query(t, d.base, scheme, target)
			if !hit.Cached {
				t.Fatalf("%s: repeat query %d missed the cache", scheme, i)
			}
			bestHit = min(bestHit, hit.ServeNS)
		}
		if bestHit*10 > cold.ServeNS {
			t.Fatalf("%s: cache hit not >=10x faster: cold %dns, best hit %dns", scheme, cold.ServeNS, bestHit)
		}
	}

	exposition := string(call(t, http.MethodGet, d.base+"/metrics", nil, nil))
	for _, counter := range []string{"provd_events_total", "provd_queries_total", "provd_cache_hits_total"} {
		m := regexp.MustCompile(`(?m)^` + counter + ` (\S+)$`).FindStringSubmatch(exposition)
		if m == nil {
			t.Fatalf("/metrics missing %s", counter)
		}
		if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
			t.Fatalf("/metrics %s = %s, want > 0", counter, m[1])
		}
	}
	if !strings.Contains(exposition, "provd_query_seconds_bucket") {
		t.Fatal("/metrics missing the latency histogram")
	}

	report, err := provserve.RunLoad(provserve.LoadConfig{
		BaseURL: d.base, Scheme: "advanced", Requests: 400, Concurrency: 8, Alpha: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors > 0 {
		t.Fatalf("load phase had %d errors:\n%s", report.Errors, report)
	}
}

// TestRecoverAfterKillAndTerm is crash recovery against real processes on
// one -data-dir: record some provenance trees, SIGKILL the daemon in the
// middle of a second batch, and require the next boot to replay WAL
// records inside the recovery budget and answer the same trees. Then a
// SIGTERM must write a final checkpoint, so the boot after it replays no
// record and still answers the same trees.
func TestRecoverAfterKillAndTerm(t *testing.T) {
	dir := t.TempDir()
	boot := func() *daemon {
		return startProvd(t, "-schemes", "advanced", "-nodes", "6", "-data-dir", dir,
			"-fsync", "always", "-snapshot-every", "500")
	}
	packets := func(base int) []tupleJSON {
		evs := make([]tupleJSON, 16)
		for i := range evs {
			evs[i] = tupleJSON{"packet", []any{"n0", "n0", "n5", fmt.Sprintf("pkt-%03d", base+i)}}
		}
		return evs
	}
	durability := func(base string) (replayed int64, seconds float64) {
		var stats struct {
			Schemes map[string]struct {
				Durability *struct {
					ReplayedRecords int64   `json:"replayed_records"`
					RecoverySeconds float64 `json:"recovery_seconds"`
				} `json:"durability"`
			} `json:"schemes"`
		}
		call(t, http.MethodGet, base+"/v1/stats", nil, &stats)
		d := stats.Schemes["advanced"].Durability
		if d == nil {
			t.Fatal("/v1/stats has no durability section")
		}
		return d.ReplayedRecords, d.RecoverySeconds
	}

	a := boot()
	postEvents(t, a.base, packets(0), 10000)
	var outs struct {
		Outputs []tupleJSON `json:"outputs"`
	}
	call(t, http.MethodGet, a.base+"/v1/outputs?scheme=advanced", nil, &outs)
	if len(outs.Outputs) == 0 {
		t.Fatal("no outputs after the first batch")
	}
	outs.Outputs = outs.Outputs[:min(5, len(outs.Outputs))]
	want := make([][]string, len(outs.Outputs))
	for i, o := range outs.Outputs {
		if want[i] = query(t, a.base, "advanced", o).Trees; len(want[i]) == 0 {
			t.Fatalf("pre-crash query of %v returned no trees", o)
		}
	}
	sameTrees := func(d *daemon, when string) {
		t.Helper()
		for i, o := range outs.Outputs {
			if got := query(t, d.base, "advanced", o).Trees; !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s provenance of %v diverged:\n  want %v\n  got  %v", when, o, want[i], got)
			}
		}
	}

	// The second batch is accepted but not quiesced when the SIGKILL
	// lands, so the logs end somewhere inside it.
	postEvents(t, a.base, packets(100), 0)
	time.Sleep(30 * time.Millisecond)
	a.kill()

	b := boot()
	replayed, seconds := durability(b.base)
	if replayed == 0 {
		t.Fatal("crash restart replayed no WAL records")
	}
	if seconds > recoveryBudget.Seconds() {
		t.Fatalf("recovery took %.2fs, budget %s", seconds, recoveryBudget)
	}
	sameTrees(b, "post-crash")

	b.terminate(t)
	c := boot()
	if replayed, _ := durability(c.base); replayed != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0 (final checkpoint missing?)", replayed)
	}
	sameTrees(c, "post-clean-restart")
}

// TestSchemeSpellingsShareOneCluster boots provd with two spellings of
// Advanced+IC on one -data-dir and requires one cluster under one key:
// /v1/stats lists advanced-ic alone, ?scheme=advanced-ic answers, and the
// store lives in the advanced-ic subdirectory, which a later boot with
// -schemes advanced-ic recovers the same trees from.
func TestSchemeSpellingsShareOneCluster(t *testing.T) {
	dir := t.TempDir()
	boot := func(schemes string) *daemon {
		return startProvd(t, "-schemes", schemes, "-nodes", "3", "-data-dir", dir, "-fsync", "off")
	}
	a := boot("advanced+ic,Advanced-IC")
	var stats struct {
		Schemes map[string]json.RawMessage `json:"schemes"`
	}
	call(t, http.MethodGet, a.base+"/v1/stats", nil, &stats)
	var keys []string
	for k := range stats.Schemes {
		keys = append(keys, k)
	}
	if !reflect.DeepEqual(keys, []string{"advanced-ic"}) {
		t.Fatalf("/v1/stats schemes = %v, want [advanced-ic]", keys)
	}
	postEvents(t, a.base, []tupleJSON{{"packet", []any{"n0", "n0", "n2", "hello"}}}, 10000)
	out := tupleJSON{"recv", []any{"n2", "n0", "n2", "hello"}}
	want := query(t, a.base, "advanced-ic", out).Trees
	if len(want) == 0 {
		t.Fatal("advanced-ic answered no tree")
	}
	a.terminate(t)
	entries, err := os.ReadDir(filepath.Join(dir, "forwarding"))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		dirs = append(dirs, e.Name())
	}
	if !reflect.DeepEqual(dirs, []string{"advanced-ic"}) {
		t.Fatalf("-data-dir holds %v, want [advanced-ic]", dirs)
	}

	b := boot("advanced-ic")
	if got := query(t, b.base, "advanced-ic", out).Trees; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered provenance diverged:\n  want %v\n  got  %v", want, got)
	}
}
