// Command e2ebench is the repository's end-to-end benchmark. It drives
// the real serving code in one process — POST /v1/rank through
// service.NewHandler, or POST /v1/rank/batch through gateway.Handler
// and a loopback backend — with one closed-loop client, checks every
// reply, and prints every metric by name and unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload pool-100k-top10 --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// and a traced phase and prints the per-layer metrics, writing the
// spans to .bench_build/traces/. See README.md for the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/service"
)

// A run sets up at least minSetupReps times, and more — up to
// maxSetupReps — until minSetupTime has passed; setup_s is the median.
const (
	minSetupReps = 5
	maxSetupReps = 25
	minSetupTime = time.Second
)

// warmUpTime is the least time spent sending before the timed window.
const warmUpTime = time.Second

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 30, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	w, err := findWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	res, err := measure(w, *seed, dur, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's report; its JSON form is the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // metric names in print order
	notes []string // lines printed before the metrics
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs one workload: set-up, warm-up, the timed window(s),
// replay, and the report.
func measure(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	calib0 := calibrate()
	t, bodies, setupS, err := setUp(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer t.close()
	c := &client{w: w, t: t, bodies: bodies}
	diags, err := c.warmUp(warmUpTime)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	res.note("workload %s, seed %d, %d distinct bodies, GOMAXPROCS %d", w.name, seed, len(bodies), runtime.GOMAXPROCS(0))

	if !traced {
		win := c.run(dur, nil)
		if err := reconcile(w, win, len(win.lats), c.led.draws); err != nil {
			c.led.fail("counter reconciliation: %v", err)
		}
		c.replay()
		calib := (calib0 + calibrate()) / 2
		endToEnd(res, win, setupS, diags, &c.led)
		res.note("host calibration %.4g ms, peak RSS %.4g MB (per-layer figures, not gated)", calib, peakRSSMB())
	} else {
		if err := perLayer(res, c, seed, dur, calib0); err != nil {
			return nil, err
		}
	}
	res.Attempted = c.led.sent
	res.Failed = c.led.sent - c.led.ok
	res.Correct = res.Failed == 0 && len(c.led.errs) == 0
	for _, e := range c.led.errs {
		res.note("FAILED: %s", e)
	}
	return res, nil
}

// setUp generates the inputs and builds the serving stack several
// times, tearing down all but the last, and returns the median time.
func setUp(w workload, seed int64) (*target, []body, float64, error) {
	var t *target
	var bodies []body
	var times []float64
	for total := 0.0; len(times) < maxSetupReps && (len(times) < minSetupReps || total < minSetupTime.Seconds()); total += times[len(times)-1] {
		if t != nil {
			t.close()
			t, bodies = nil, nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		if bodies, err = w.bodies(seed); err != nil {
			return nil, nil, 0, err
		}
		if t, err = newTarget(w); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return t, bodies, median(times), nil
}

// endToEnd adds the end-to-end metrics of an untraced window.
func endToEnd(res *result, win *window, setupS float64, diags [][]service.Diagnostics, led *ledger) {
	n := float64(len(win.lats))
	tv, pct, blocks := tail(win.lats)
	ndcg, ppfair := paperMeasures(diags)
	res.add("setup_s", setupS, "s")
	res.add("throughput_rps", n/win.wall.Seconds(), "1/s")
	res.add("latency_p50_ms", median(win.lats), "ms")
	res.add("latency_tail_ms", tv, "ms")
	res.note("latency_tail_ms is p%.2f with 10 samples beyond it, median over %d block(s) of %d of the %d requests", pct, blocks, len(win.lats)/blocks, len(win.lats))
	res.add("cpu_ms_per_req", float64(win.cpu)/float64(time.Millisecond)/n, "ms")
	res.add("alloc_mb_per_req", float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc)/1e6/n, "MB")
	res.add("allocs_per_req", float64(win.mem1.Mallocs-win.mem0.Mallocs)/n, "count")
	res.add("ok_ratio", float64(led.ok)/float64(led.sent), "ratio")
	res.add("ndcg_mean", ndcg, "ratio")
	res.add("ppfair_mean", ppfair, "ratio")
}

// paperMeasures averages the paper's two measures over every ranking request
// of the distinct bodies. Every reply to a body is byte-identical, so
// this is the mean over replies with each body weighted equally, and it
// does not depend on how many requests the window fitted.
func paperMeasures(diags [][]service.Diagnostics) (ndcg, ppfair float64) {
	var n float64
	for _, ds := range diags {
		for _, d := range ds {
			ndcg += d.NDCG
			ppfair += d.PPfair / 100 // the wire value is a percentage
			n++
		}
	}
	return ndcg / n, ppfair / n
}

// perLayer runs the traced measurement: an untraced phase and a traced
// phase of dur/2 each, then the per-layer metrics from the spans and
// the layers' own counters.
func perLayer(res *result, c *client, seed int64, dur time.Duration, calib0 float64) error {
	plain := c.run(dur/2, nil)
	peakRSS := peakRSSMB() // before the probes add their own allocations
	if err := reconcile(c.w, plain, len(plain.lats), c.led.draws); err != nil {
		c.led.fail("counter reconciliation: %v", err)
	}

	tr := newTracer()
	p := newProber(c.w, tr, seed)
	defer p.close()
	// Prime the probe's caches (engine tables and sampler state for
	// every noise axis) with a throwaway tracer, as the warm-up primed
	// the stack; the first three bodies cover all three axes.
	p.tr = newTracer()
	for i, b := range c.bodies[:min(3, len(c.bodies))] {
		if err := p.probe(-1, b, c.want[i]); err != nil {
			return fmt.Errorf("priming layer probes: %w", err)
		}
	}
	p.tr = tr
	draws0 := c.led.draws
	var probeErr error
	traced := c.run(dur/2, func(i int, lat time.Duration) {
		req := c.led.sent
		tr.served(req, lat)
		if probeErr == nil {
			probeErr = p.probe(req, c.bodies[i], c.want[i])
		}
	})
	if probeErr != nil {
		c.led.fail("layer probe: %v", probeErr)
	}
	if err := reconcile(c.w, traced, len(traced.lats), c.led.draws-draws0); err != nil {
		c.led.fail("counter reconciliation (traced phase): %v", err)
	}
	c.replay()
	calib := (calib0 + calibrate()) / 2
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", c.w.name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	res.note("%d spans written to %s", len(tr.spans), path)

	_, _, iters := tr.total("probe")
	if iters == 0 {
		return fmt.Errorf("the traced phase fitted no probe")
	}
	perReq := func(name string) float64 {
		d, _, _ := tr.total(name)
		return float64(d) / float64(time.Millisecond) / float64(iters)
	}
	perCall := func(name string) float64 {
		d, _, n := tr.total(name)
		return float64(d) / float64(time.Microsecond) / float64(n)
	}
	_, decodeAlloc, _ := tr.total("service.decode")
	n := float64(len(plain.lats))
	e0, e1 := plain.svc0.Engine, plain.svc1.Engine
	draws := float64(e1.Draws - e0.Draws)
	hop, retries, errs := 0.0, 0.0, 0.0
	if c.t.gw != nil {
		d := routeDelta(plain.svc0, plain.svc1, "POST "+c.w.path)
		hop = mean(plain.lats) - d.LatencyMsSum/float64(d.Requests)
		rPlain, ePlain := backendDeltas(plain)
		rTraced, eTraced := backendDeltas(traced)
		retries, errs = float64(rPlain+rTraced), float64(ePlain+eTraced)
	}
	rejected := traced.svc1.Queue.Rejected - plain.svc0.Queue.Rejected + p.svc.Metrics().Queue.Rejected

	res.add("service.decode_ms", perReq("service.decode"), "ms")
	res.add("service.decode_alloc_mb", float64(decodeAlloc)/1e6/float64(iters), "MB")
	res.add("service.rank_ms", perReq("service.rank"), "ms")
	res.add("service.rank_self_ms", perReq("service.rank")-perReq("engine.do"), "ms")
	res.add("service.encode_ms", perReq("service.encode"), "ms")
	res.add("service.queue_rejected", float64(rejected), "count")
	res.add("engine.do_ms", perReq("engine.do"), "ms")
	res.add("engine.draws_per_req", draws/n, "count")
	res.add("engine.truncated_share", ratio(float64(e1.DrawsTruncated-e0.DrawsTruncated), draws), "ratio")
	res.add("engine.table_hit_ratio", ratio(float64(e1.TableHits-e0.TableHits), float64(e1.TableHits-e0.TableHits+e1.TableMisses-e0.TableMisses)), "ratio")
	res.add("engine.pool_reuse_ratio", 1-ratio(float64(e1.PoolMisses-e0.PoolMisses), float64(e1.PoolGets-e0.PoolGets)), "ratio")
	res.add("fairness.constraints_ms", perReq("fairness.constraints"), "ms")
	res.add("fairness.central_ms", perReq("fairness.central"), "ms")
	res.add("mallows.draw_us", perCall("mallows.draw"), "us")
	res.add("gmallows.draw_us", perCall("gmallows.draw"), "us")
	res.add("pl.draw_us", perCall("pl.draw"), "us")
	res.add("quality.ndcg_us", perCall("quality.ndcg"), "us")
	res.add("gateway.hop_ms", hop, "ms")
	res.add("gateway.retries", retries, "count")
	res.add("gateway.errors", errs, "count")
	res.add("runtime.gc_cycles_per_req", float64(plain.mem1.NumGC-plain.mem0.NumGC)/n, "count")
	res.add("runtime.gc_pause_ms", float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6/n, "ms")
	res.add("runtime.peak_rss_mb", peakRSS, "MB")
	res.add("host.calib_ms", calib, "ms")
	res.add("trace.overhead_ratio", mean(plain.lats)/mean(traced.lats), "ratio")
	res.add("trace.stage_coverage", (perReq("service.decode")+perReq("service.rank")+perReq("service.encode"))/mean(traced.lats), "ratio")
	return nil
}

// calibrate times a fixed CPU kernel — sorting a seeded 1e5-float
// slice — and returns the median of five runs in ms. It reads the
// host's speed, so a reader of two runs can tell host drift from a
// regression.
func calibrate() float64 {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 100000)
	for i := range src {
		src[i] = rng.Float64()
	}
	buf := make([]float64, len(src))
	times := make([]float64, 5)
	for i := range times {
		copy(buf, src)
		start := time.Now()
		sort.Float64s(buf)
		times[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(times)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBlock is the least number of requests in one block of the tail
// estimate.
const tailBlock = 500

// tail returns the latency at the highest percentile with at least ten
// samples beyond it — the eleventh-largest sample — with that
// percentile and the number of blocks it was taken over. A window of
// fewer than 2·tailBlock requests is one block. A longer one is cut
// into consecutive blocks of at least tailBlock requests, and the tail
// is the median of the blocks' tails: beyond ~p99.5 single host
// hiccups decide the eleventh-largest sample, which then spread by 20%
// between runs, while a median over blocks of p98 holds steady.
func tail(lats []float64) (v, pct float64, blocks int) {
	blocks = max(1, len(lats)/tailBlock)
	size := len(lats) / blocks
	vals := make([]float64, blocks)
	for b := range vals {
		s := append([]float64(nil), lats[b*size:(b+1)*size]...)
		sort.Float64s(s)
		if size <= 10 {
			vals[b], pct = s[size-1], 100
			continue
		}
		vals[b], pct = s[size-11], 100*float64(size-10)/float64(size)
	}
	return median(vals), pct, blocks
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
