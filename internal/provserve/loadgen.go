package provserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/metrics"
	"provcompress/internal/workload"
)

// LoadConfig drives RunLoad against a running provd.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8463".
	BaseURL string
	// Scheme selects the provenance scheme to query (empty = daemon default).
	Scheme string
	// Requests is the total number of queries to issue.
	Requests int
	// Concurrency is the number of parallel client workers (default 4).
	Concurrency int
	// Alpha is the Zipf exponent for output popularity (default 0.9, the
	// paper-style DNS skew); hotter skew means more cache hits.
	Alpha float64
	// Seed keys the Zipf sampler.
	Seed int64
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// Tenant, when non-empty, labels every request (?tenant=) so the run
	// bills against that tenant's admission budget.
	Tenant string
}

// LoadReport is what the generator measured. A quantile that landed in
// the histogram's +Inf overflow bucket is reported with its Over flag
// set and the duration zeroed: the true value is unknown beyond "past
// the last bucket bound" (TailBound), and pretending otherwise is the
// clamping bug this struct used to have.
type LoadReport struct {
	Requests  int
	Errors    int
	Rejected  int // 429 responses (admission control sheds load)
	CacheHits int
	Elapsed   time.Duration
	QPS       float64
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	P50Over   bool
	P95Over   bool
	P99Over   bool
	TailBound time.Duration // last finite histogram bound
	Hist      *metrics.Histogram
}

// quantileDuration converts a quantile in seconds into a duration,
// reporting +Inf (overflow-bucket mass) as a flag instead of silently
// overflowing time.Duration.
func quantileDuration(q float64) (time.Duration, bool) {
	if math.IsInf(q, 1) {
		return 0, true
	}
	return time.Duration(q * float64(time.Second)), false
}

// fmtQuantile renders one quantile honestly: overflowed tails print as
// ">bound" rather than a made-up number.
func fmtQuantile(d time.Duration, over bool, tail time.Duration) string {
	if over {
		return ">" + tail.String()
	}
	return d.Round(time.Microsecond).String()
}

// String renders the report as the one-paragraph benchmark summary the
// serving layer ships with.
func (r *LoadReport) String() string {
	return fmt.Sprintf(
		"%d requests in %v: %.0f qps, %d cache hits (%.0f%%), %d rejected, %d errors\n"+
			"latency p50 %s  p95 %s  p99 %s",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.QPS,
		r.CacheHits, 100*float64(r.CacheHits)/float64(max(1, r.Requests)),
		r.Rejected, r.Errors,
		fmtQuantile(r.P50, r.P50Over, r.TailBound),
		fmtQuantile(r.P95, r.P95Over, r.TailBound),
		fmtQuantile(r.P99, r.P99Over, r.TailBound))
}

// fetchOutputs asks the daemon for its output tuples (the query sampling
// frame), already in deterministic order.
func fetchOutputs(client *http.Client, baseURL, scheme string) ([]tupleSpec, error) {
	u := baseURL + "/v1/outputs"
	if scheme != "" {
		u += "?scheme=" + url.QueryEscape(scheme)
	}
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //nolint:errcheck
		return nil, fmt.Errorf("outputs: %s: %s", resp.Status, body)
	}
	var out struct {
		Outputs []tupleSpec `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Outputs, nil
}

// queryURL builds the /v1/query URL for one output tuple.
func queryURL(baseURL, scheme, tenant string, spec tupleSpec) (string, error) {
	args, err := json.Marshal(spec.Args)
	if err != nil {
		return "", err
	}
	v := url.Values{}
	v.Set("rel", spec.Rel)
	v.Set("args", string(args))
	if scheme != "" {
		v.Set("scheme", scheme)
	}
	if tenant != "" {
		v.Set("tenant", tenant)
	}
	return baseURL + "/v1/query?" + v.Encode(), nil
}

// RunLoad hammers a running daemon with provenance queries whose targets
// are sampled Zipfian from the daemon's own outputs, and reports achieved
// QPS and latency quantiles. It is the serving layer's benchmark: the
// skew makes the cache do real work, so the report shows the hit rate the
// paper's online-querying story depends on.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("provserve: load needs Requests > 0")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.9
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	client := &http.Client{Timeout: cfg.Timeout}
	outputs, err := fetchOutputs(client, cfg.BaseURL, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("provserve: daemon has no outputs to query (inject events first)")
	}
	urls := make([]string, len(outputs))
	for i, spec := range outputs {
		u, err := queryURL(cfg.BaseURL, cfg.Scheme, cfg.Tenant, spec)
		if err != nil {
			return nil, err
		}
		urls[i] = u
	}
	return hammer(client, cfg, urls), nil
}

// hammer is the shared query loop behind RunLoad and RunMixedLoad: Zipf
// samples over a fixed URL frame from Concurrency workers.
func hammer(client *http.Client, cfg LoadConfig, urls []string) *LoadReport {
	// One Zipf stream feeding a work channel keeps the sample sequence
	// deterministic for a given seed regardless of worker interleaving.
	zipf := workload.NewZipf(rand.New(rand.NewSource(cfg.Seed)), len(urls), cfg.Alpha)
	work := make(chan string, cfg.Concurrency)
	hist := metrics.NewLatencyHistogram()
	var errs, rejected, hits atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				t0 := time.Now()
				resp, err := client.Get(u)
				if err != nil {
					errs.Add(1)
					continue
				}
				var qr queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected.Add(1)
				case resp.StatusCode != http.StatusOK || decErr != nil:
					errs.Add(1)
				default:
					hist.ObserveDuration(time.Since(t0))
					if qr.Cached {
						hits.Add(1)
					}
				}
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		work <- urls[zipf.Next()]
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	p50, p95, p99 := hist.Summary()
	r := &LoadReport{
		Requests:  cfg.Requests,
		Errors:    int(errs.Load()),
		Rejected:  int(rejected.Load()),
		CacheHits: int(hits.Load()),
		Elapsed:   elapsed,
		QPS:       float64(cfg.Requests) / elapsed.Seconds(),
		Hist:      hist,
	}
	bounds := hist.Bounds()
	r.TailBound = time.Duration(bounds[len(bounds)-1] * float64(time.Second))
	r.P50, r.P50Over = quantileDuration(p50)
	r.P95, r.P95Over = quantileDuration(p95)
	r.P99, r.P99Over = quantileDuration(p99)
	return r
}

// MixedLoadConfig drives RunMixedLoad: the read side is a LoadConfig, the
// write side is a background injector that lands one fresh packet event
// every WriteInterval for the whole run.
type MixedLoadConfig struct {
	LoadConfig
	// WriteInterval is the gap between injected writer events (default
	// 1ms — sustained writes, the regime where evicting everything per
	// event zeroes the hit rate).
	WriteInterval time.Duration
	// WriteSrc/WriteDst name the packet class the writer injects into
	// (default n0 -> n1). Point it at the read targets' own class for the
	// hard case: a new event of a class evicts none of that class's cached
	// answers.
	WriteSrc, WriteDst string
}

// MixedLoadReport is a LoadReport plus the write side's accounting.
type MixedLoadReport struct {
	LoadReport
	Writes      int
	WriteErrors int
	// HitRate is CacheHits / Requests.
	HitRate float64
}

// String appends the write-side line to the read report.
func (r *MixedLoadReport) String() string {
	return fmt.Sprintf("%s\nwrites %d (%d errors), hit rate %.2f",
		r.LoadReport.String(), r.Writes, r.WriteErrors, r.HitRate)
}

// RunMixedLoad measures the cache under a mixed read/write workload: Zipf
// readers over the daemon's current outputs race a writer that keeps
// injecting fresh events into one equivalence class. The output frame is
// sampled before the writer starts, so reads target pre-existing outputs
// and the writer's events are write traffic, not new read targets.
func RunMixedLoad(cfg MixedLoadConfig) (*MixedLoadReport, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("provserve: mixed load needs Requests > 0")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.9
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.WriteInterval <= 0 {
		cfg.WriteInterval = time.Millisecond
	}
	if cfg.WriteSrc == "" {
		cfg.WriteSrc = "n0"
	}
	if cfg.WriteDst == "" {
		cfg.WriteDst = "n1"
	}
	client := &http.Client{Timeout: cfg.Timeout}
	outputs, err := fetchOutputs(client, cfg.BaseURL, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("provserve: daemon has no outputs to query (inject events first)")
	}
	urls := make([]string, len(outputs))
	for i, spec := range outputs {
		u, err := queryURL(cfg.BaseURL, cfg.Scheme, cfg.Tenant, spec)
		if err != nil {
			return nil, err
		}
		urls[i] = u
	}

	eventsURL := cfg.BaseURL + "/v1/events"
	ev := url.Values{}
	if cfg.Scheme != "" {
		ev.Set("scheme", cfg.Scheme)
	}
	if cfg.Tenant != "" {
		ev.Set("tenant", cfg.Tenant)
	}
	if len(ev) > 0 {
		eventsURL += "?" + ev.Encode()
	}
	stop := make(chan struct{})
	var writes, writeErrs atomic.Int64
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		tick := time.NewTicker(cfg.WriteInterval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			body, err := json.Marshal(map[string]any{"events": []map[string]any{{
				"rel":  "packet",
				"args": []any{cfg.WriteSrc, cfg.WriteSrc, cfg.WriteDst, fmt.Sprintf("mix-w%d", i)},
			}}})
			if err != nil {
				writeErrs.Add(1)
				continue
			}
			resp, err := client.Post(eventsURL, "application/json", bytes.NewReader(body))
			if err != nil {
				writeErrs.Add(1)
				continue
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				writeErrs.Add(1)
				continue
			}
			writes.Add(1)
		}
	}()
	rep := hammer(client, cfg.LoadConfig, urls)
	close(stop)
	wwg.Wait()

	return &MixedLoadReport{
		LoadReport:  *rep,
		Writes:      int(writes.Load()),
		WriteErrors: int(writeErrs.Load()),
		HitRate:     float64(rep.CacheHits) / float64(max(1, rep.Requests)),
	}, nil
}
