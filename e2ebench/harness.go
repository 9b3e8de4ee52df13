package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/service"
)

// target is the serving stack one workload drives: the handler the
// client calls and the service that ranks behind it.
type target struct {
	handler http.Handler
	svc     *service.Service // the ranking service (the backend's, behind a gateway)
	gw      *gateway.Gateway // nil for the direct workloads
	srv     *service.Server  // the gateway's in-process backend
}

// newTarget builds the stack: service.NewHandler over a fresh Service,
// or gateway.Handler forwarding over loopback to one service.Server.
func newTarget(w workload) (*target, error) {
	if !w.gateway {
		svc := service.New(service.Config{})
		return &target{handler: service.NewHandler(svc), svc: svc}, nil
	}
	srv, err := service.NewServer(service.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	// One healthy probe promotes the backend, so set-up does not wait
	// out probe rounds; later probes are rare enough not to show.
	gw, err := gateway.New(gateway.Config{
		Backends:         []string{srv.URL()},
		ProbeInterval:    time.Second,
		HealthyThreshold: 1,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	t := &target{handler: gw.Handler(), svc: srv.Service(), gw: gw, srv: srv}
	gw.Start()
	deadline := time.Now().Add(10 * time.Second)
	for gw.Serving() < 1 {
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("gateway backend never became serving")
		}
		time.Sleep(time.Millisecond)
	}
	return t, nil
}

// close stops every goroutine the stack started and waits for them.
func (t *target) close() {
	if t.gw != nil {
		t.gw.Stop()
		t.srv.Close()
		return
	}
	t.svc.Close()
}

// send makes one request and returns the status and body.
func (t *target) send(path string, b body) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, b.reader())
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// verifyFirst checks the first response to a body in full: status 200,
// one answer per entry, each ranking of the expected length with
// distinct IDs from the entry's pool and rank fields 1..k, and
// draws_evaluated equal to the samples asked for. It returns the
// per-entry diagnostics.
func verifyFirst(w workload, b body, status int, raw []byte) ([]service.Diagnostics, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, raw)
	}
	var resps []*service.RankResponse
	if w.batch {
		var br service.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return nil, fmt.Errorf("decoding batch response: %w", err)
		}
		for i, it := range br.Items {
			if it.Error != "" || it.Response == nil {
				return nil, fmt.Errorf("batch item %d failed: %q", i, it.Error)
			}
			resps = append(resps, it.Response)
		}
	} else {
		var rr service.RankResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			return nil, fmt.Errorf("decoding response: %w", err)
		}
		resps = append(resps, &rr)
	}
	if len(resps) != len(b.entries) {
		return nil, fmt.Errorf("%d answers for %d requests", len(resps), len(b.entries))
	}
	diags := make([]service.Diagnostics, len(resps))
	for i, r := range resps {
		if err := checkRanking(b.entries[i], r); err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		diags[i] = r.Diagnostics
	}
	return diags, nil
}

func checkRanking(e entry, r *service.RankResponse) error {
	if len(r.Ranking) != e.k {
		return fmt.Errorf("ranking has %d entries, want %d", len(r.Ranking), e.k)
	}
	if r.Diagnostics.DrawsEvaluated != e.samples {
		return fmt.Errorf("draws_evaluated = %d, want %d", r.Diagnostics.DrawsEvaluated, e.samples)
	}
	seen := make(map[string]bool, len(r.Ranking))
	for i, c := range r.Ranking {
		if c.Rank != i+1 {
			return fmt.Errorf("position %d has rank %d", i, c.Rank)
		}
		if seen[c.ID] {
			return fmt.Errorf("id %q ranked twice", c.ID)
		}
		seen[c.ID] = true
		if j := sort.SearchStrings(e.ids, c.ID); j == len(e.ids) || e.ids[j] != c.ID {
			return fmt.Errorf("id %q is not in the pool", c.ID)
		}
	}
	return nil
}

// ledger counts requests sent and verified, and the draws they asked for.
type ledger struct {
	sent, ok int
	draws    int64 // Σ samples over the entries of the requests sent
	errs     []string
}

func (l *ledger) fail(format string, args ...any) {
	if len(l.errs) < 10 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// client is the single closed-loop client of a run: it sends the
// bodies in rotation, the next only after the last reply arrived.
type client struct {
	w      workload
	t      *target
	bodies []body
	want   [][]byte // the verified first response to each body
	next   int
	led    ledger
}

// warmUp sends every body once, verifies each reply in full and keeps
// it as the expected bytes, then keeps sending until minDur has passed
// since it began. It returns the per-body diagnostics.
func (c *client) warmUp(minDur time.Duration) ([][]service.Diagnostics, error) {
	start := time.Now()
	diags := make([][]service.Diagnostics, len(c.bodies))
	c.want = make([][]byte, len(c.bodies))
	for i, b := range c.bodies {
		status, raw := c.t.send(c.w.path, b)
		d, err := verifyFirst(c.w, b, status, raw)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		diags[i], c.want[i] = d, raw
	}
	for time.Since(start) < minDur {
		if _, err := c.one(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return diags, nil
}

// one sends the next body and checks that the reply is byte-identical
// to the verified first reply to that body — equal requests with equal
// seeds must give equal responses, so this is the full check.
func (c *client) one() (time.Duration, error) {
	i := c.next % len(c.bodies)
	c.next++
	t0 := time.Now()
	status, raw := c.t.send(c.w.path, c.bodies[i])
	lat := time.Since(t0)
	if status != http.StatusOK {
		return lat, fmt.Errorf("body %d: status %d: %.200s", i, status, raw)
	}
	if !bytes.Equal(raw, c.want[i]) {
		return lat, fmt.Errorf("body %d: response differs from its first response", i)
	}
	return lat, nil
}

// counted is one for the ledger: it sends, records and verifies.
func (c *client) counted() time.Duration {
	i := c.next % len(c.bodies)
	lat, err := c.one()
	c.led.sent++
	for _, e := range c.bodies[i].entries {
		c.led.draws += int64(e.samples)
	}
	if err != nil {
		c.led.fail("%v", err)
	} else {
		c.led.ok++
	}
	return lat
}

// replay sends every distinct body once more and requires the reply to
// be byte-identical to the first one.
func (c *client) replay() {
	c.next = 0
	for range c.bodies {
		c.counted()
	}
}

// window is what one timed closed-loop phase measured.
type window struct {
	lats     []float64 // ms, in completion order
	wall     time.Duration
	cpu      time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	svc0     *service.MetricsResponse
	svc1     *service.MetricsResponse
	gw0, gw1 *gateway.MetricsResponse
}

// run drives the closed loop for dur, and for at least one request.
// between, when non-nil, runs after each request outside its latency
// (the traced run's layer probes).
func (c *client) run(dur time.Duration, between func(i int, lat time.Duration)) *window {
	w := &window{}
	w.svc0 = c.t.svc.Metrics()
	if c.t.gw != nil {
		w.gw0 = c.t.gw.Metrics(context.Background())
	}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	cpu0 := cpuTime()
	start := time.Now()
	for len(w.lats) == 0 || time.Since(start) < dur {
		i := c.next % len(c.bodies)
		lat := c.counted()
		w.lats = append(w.lats, float64(lat)/float64(time.Millisecond))
		if between != nil {
			between(i, lat)
		}
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.svc1 = c.t.svc.Metrics()
	if c.t.gw != nil {
		w.gw1 = c.t.gw.Metrics(context.Background())
	}
	return w
}

// reconcile holds the service's and gateway's own counters to the
// client's ledger over the window: every request reached the route,
// the engine drew exactly the samples asked for, and nothing panicked,
// was rejected, retried or failed.
func reconcile(w workload, win *window, sent int, draws int64) error {
	route := "POST " + w.path
	if d := routeDelta(win.svc0, win.svc1, route); d.Requests != int64(sent) || d.Errors4xx != 0 || d.Errors5xx != 0 {
		return fmt.Errorf("service route %s counted %d requests (%d 4xx, %d 5xx), client sent %d", route, d.Requests, d.Errors4xx, d.Errors5xx, sent)
	}
	if d := win.svc1.Engine.Draws - win.svc0.Engine.Draws; d != draws {
		return fmt.Errorf("engine drew %d samples, requests asked for %d", d, draws)
	}
	if win.svc1.Panics != 0 {
		return fmt.Errorf("service absorbed %d panics", win.svc1.Panics)
	}
	if d := win.svc1.Queue.Rejected - win.svc0.Queue.Rejected; d != 0 {
		return fmt.Errorf("admission queue rejected %d requests", d)
	}
	if win.gw0 == nil {
		return nil
	}
	var gwReqs int64
	for _, r := range win.gw1.Routes {
		if r.Route == route {
			gwReqs = r.Requests
		}
	}
	for _, r := range win.gw0.Routes {
		if r.Route == route {
			gwReqs -= r.Requests
		}
	}
	if gwReqs != int64(sent) {
		return fmt.Errorf("gateway route %s counted %d requests, client sent %d", route, gwReqs, sent)
	}
	if retries, errs := backendDeltas(win); retries != 0 || errs != 0 {
		return fmt.Errorf("gateway saw %d retries and %d backend errors", retries, errs)
	}
	if win.gw1.Picker.Unroutable != 0 {
		return fmt.Errorf("gateway found no backend for %d requests", win.gw1.Picker.Unroutable)
	}
	return nil
}

func routeDelta(m0, m1 *service.MetricsResponse, route string) service.RouteMetrics {
	var d service.RouteMetrics
	for _, r := range m1.Routes {
		if r.Route == route {
			d = r
		}
	}
	for _, r := range m0.Routes {
		if r.Route == route {
			d.Requests -= r.Requests
			d.Errors4xx -= r.Errors4xx
			d.Errors5xx -= r.Errors5xx
			d.LatencyMsSum -= r.LatencyMsSum
		}
	}
	return d
}

// backendDeltas sums the gateway's per-backend retry and error counters
// over the window.
func backendDeltas(win *window) (retries, errs int64) {
	for _, b := range win.gw1.Backends {
		retries += b.Retries
		errs += b.Errors
	}
	for _, b := range win.gw0.Backends {
		retries -= b.Retries
		errs -= b.Errors
	}
	return retries, errs
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
