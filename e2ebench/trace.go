package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	fairrank "repro"
	"repro/internal/fairness"
	"repro/internal/mallows"
	"repro/internal/perm"
	"repro/internal/pl"
	"repro/internal/quality"
	"repro/internal/service"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is 0 for a root span.
type span struct {
	Name       string `json:"name"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Req        int    `json:"req"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span and returns f's error. withAlloc also records
// the heap bytes allocated while f ran (process-wide, so only for spans
// that run alone).
func (tr *tracer) do(name string, parent, req int, withAlloc bool, f func(id int) error) error {
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{Name: name, ID: id, Parent: parent, Req: req})
	tr.mu.Unlock()
	var a0 uint64
	if withAlloc {
		a0 = heapAllocBytes()
	}
	start := time.Since(tr.t0)
	err := f(id)
	end := time.Since(tr.t0)
	var alloc uint64
	if withAlloc {
		alloc = heapAllocBytes() - a0
	}
	tr.mu.Lock()
	s := &tr.spans[id-1]
	s.StartNs, s.EndNs, s.AllocBytes = int64(start), int64(end), alloc
	tr.mu.Unlock()
	return err
}

// served records a root span for a served request that just completed
// after lat.
func (tr *tracer) served(req int, lat time.Duration) {
	end := time.Since(tr.t0)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Name: "request", ID: len(tr.spans) + 1, Req: req, StartNs: int64(end - lat), EndNs: int64(end)})
	tr.mu.Unlock()
}

// total sums the duration and allocation of every span with the name.
func (tr *tracer) total(name string) (dur time.Duration, alloc uint64, count int) {
	for _, s := range tr.spans {
		if s.Name == name {
			dur += time.Duration(s.EndNs - s.StartNs)
			alloc += s.AllocBytes
			count++
		}
	}
	return dur, alloc, count
}

// write saves the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation, the counter behind
// runtime.MemStats.TotalAlloc, read without stopping the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// prober replays each request through the layers' public functions, one
// span per call, on its own Service and Ranker so the served stack's
// counters still reconcile with the client's ledger.
type prober struct {
	w       workload
	tr      *tracer
	svc     *service.Service
	rankers map[fairrank.Config]*fairrank.Ranker
	sizes   map[int]*sizeScratch
	rng     *rand.Rand
}

// sizeScratch holds the per-pool-size sampler state the engine also
// amortizes across requests: displacement tables and draw buffers.
type sizeScratch struct {
	tab    *mallows.Tables
	gtab   *mallows.GeneralizedTables
	plsc   *pl.Scratch
	out    perm.Perm
	floats []float64
	logw   []float64
}

// gmallowsDecay is the geometric decay of the built-in gmallows noise
// schedule θ·0.97^j.
const gmallowsDecay = 0.97

func newProber(w workload, tr *tracer, seed int64) *prober {
	return &prober{
		w:       w,
		tr:      tr,
		svc:     service.New(service.Config{}),
		rankers: make(map[fairrank.Config]*fairrank.Ranker),
		sizes:   make(map[int]*sizeScratch),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

func (p *prober) close() { p.svc.Close() }

// probe runs one request's layer calls under a root span: decode, the
// service, encode, the engine alone, the instance build, one draw per
// noise axis and one criterion evaluation. served is the reply the
// served stack gave for the same body; the probed service must encode
// the same bytes and the engine must pick the same ranking.
func (p *prober) probe(req int, b body, served []byte) error {
	return p.tr.do("probe", 0, req, false, func(root int) error {
		return p.layers(root, req, b, served)
	})
}

func (p *prober) layers(root, req int, b body, served []byte) error {
	ctx := context.Background()
	var single service.RankRequest
	var batch service.BatchRequest
	err := p.tr.do("service.decode", root, req, true, func(int) error {
		dec := json.NewDecoder(b.reader())
		if p.w.batch {
			return dec.Decode(&batch)
		}
		return dec.Decode(&single)
	})
	if err != nil {
		return err
	}
	reqs := batch.Requests
	if !p.w.batch {
		reqs = []service.RankRequest{single}
	}

	var resp any
	var answers []*service.RankResponse
	err = p.tr.do("service.rank", root, req, false, func(int) error {
		if p.w.batch {
			br, err := p.svc.RankBatch(ctx, &batch)
			if err != nil {
				return err
			}
			resp = br
			for i, it := range br.Items {
				if it.Response == nil {
					return fmt.Errorf("probed batch item %d failed: %s", i, it.Error)
				}
				answers = append(answers, it.Response)
			}
			return nil
		}
		rr, err := p.svc.Rank(ctx, &single)
		resp, answers = rr, []*service.RankResponse{rr}
		return err
	})
	if err != nil {
		return err
	}
	var out []byte
	err = p.tr.do("service.encode", root, req, false, func(int) error {
		out, err = json.Marshal(resp)
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(out, bytes.TrimSuffix(served, []byte("\n"))) {
		return fmt.Errorf("probed service encoded other bytes than the served stack")
	}

	if err := p.engine(root, req, reqs, answers); err != nil {
		return err
	}
	for i := range reqs {
		central, scores, err := p.build(root, req, &reqs[i])
		if err != nil {
			return err
		}
		if i == 0 {
			if err := p.draws(root, req, &reqs[0], central, scores, b.entries[0].k); err != nil {
				return err
			}
		}
	}
	return nil
}

// engine times Ranker.DoParallel on the converted requests with the
// worker split the service uses: a single request fans its draws out
// over the pool, batch entries run one per worker.
func (p *prober) engine(root, req int, reqs []service.RankRequest, answers []*service.RankResponse) error {
	libs := make([]fairrank.Request, len(reqs))
	rankers := make([]*fairrank.Ranker, len(reqs))
	for i := range reqs {
		libs[i] = libRequest(&reqs[i])
		r, err := p.ranker(&reqs[i])
		if err != nil {
			return err
		}
		rankers[i] = r
	}
	procs := runtime.GOMAXPROCS(0)
	results := make([]*fairrank.Result, len(reqs))
	errs := make([]error, len(reqs))
	err := p.tr.do("engine.do", root, req, false, func(id int) error {
		if !p.w.batch {
			workers := procs
			if s := answers[0].Diagnostics.Samples; s < workers {
				workers = s
			}
			results[0], errs[0] = rankers[0].DoParallel(context.Background(), libs[0], workers)
			return errs[0]
		}
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < procs && w < len(libs); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					errs[i] = p.tr.do("engine.do.entry", id, req, false, func(int) error {
						var err error
						results[i], err = rankers[i].DoParallel(context.Background(), libs[i], 1)
						return err
					})
				}
			}()
		}
		for i := range libs {
			next <- i
		}
		close(next)
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		if errs[i] != nil {
			return errs[i]
		}
		if len(res.Ranking) != len(answers[i].Ranking) {
			return fmt.Errorf("engine returned %d ranks, service %d", len(res.Ranking), len(answers[i].Ranking))
		}
		for j, c := range res.Ranking {
			if c.ID != answers[i].Ranking[j].ID {
				return fmt.Errorf("engine and service disagree at rank %d", j+1)
			}
		}
	}
	return nil
}

// ranker returns the probe's engine for the request's base
// configuration, built on first use like the service's ranker cache.
func (p *prober) ranker(req *service.RankRequest) (*fairrank.Ranker, error) {
	cfg := fairrank.Config{
		Algorithm: fairrank.Algorithm(req.Algorithm),
		Central:   fairrank.Central(req.Central),
		WeakK:     req.WeakK,
		Sigma:     req.Sigma,
	}
	if r, ok := p.rankers[cfg]; ok {
		return r, nil
	}
	r, err := fairrank.NewRanker(cfg)
	if err != nil {
		return nil, err
	}
	p.rankers[cfg] = r
	return r, nil
}

// libRequest maps the wire request onto the library request, field for
// field as the service does.
func libRequest(req *service.RankRequest) fairrank.Request {
	cands := make([]fairrank.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		cands[i] = fairrank.Candidate{ID: c.ID, Score: c.Score, Group: c.Group, Attrs: c.Attrs, Membership: c.Membership}
	}
	seed := req.Seed
	return fairrank.Request{
		Candidates: cands,
		Theta:      req.Theta,
		Samples:    req.Samples,
		Criterion:  fairrank.Criterion(req.Criterion),
		Noise:      fairrank.Noise(req.Noise),
		Tolerance:  req.Tolerance,
		TopK:       req.TopK,
		Seed:       &seed,
	}
}

// build times the instance build of one request: the proportional
// constraints and their prefix table, then the weakly fair central
// ranking, with the request's defaults resolved as the engine does.
func (p *prober) build(root, req int, r *service.RankRequest) (perm.Perm, quality.Scores, error) {
	n := len(r.Candidates)
	index := make(map[string]int)
	for _, c := range r.Candidates {
		index[c.Group] = 0
	}
	names := make([]string, 0, len(index))
	for g := range index {
		names = append(names, g)
	}
	sort.Strings(names)
	for i, g := range names {
		index[g] = i
	}
	assign := make([]int, n)
	scores := make(quality.Scores, n)
	for i, c := range r.Candidates {
		assign[i], scores[i] = index[c.Group], c.Score
	}
	tol := 0.1
	if r.Tolerance != nil {
		tol = *r.Tolerance
	}
	weakK := r.WeakK
	if weakK == 0 {
		weakK = min(10, n)
	}
	var gr *fairness.Groups
	var cons *fairness.Constraints
	err := p.tr.do("fairness.constraints", root, req, false, func(int) error {
		var err error
		if gr, err = fairness.NewGroups(assign, len(names)); err != nil {
			return err
		}
		if cons, err = fairness.Proportional(gr, tol); err != nil {
			return err
		}
		cons.Table(n)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var central perm.Perm
	err = p.tr.do("fairness.central", root, req, false, func(int) error {
		central, err = fairness.WeaklyFairRanking(scores, gr, cons, weakK)
		return err
	})
	return central, scores, err
}

// draws times one draw through each noise axis's sampler at the
// request's n and k — the truncated sampler when k < n, as the engine
// picks — and one evaluation of the best-of-m NDCG criterion.
func (p *prober) draws(root, req int, r *service.RankRequest, central perm.Perm, scores quality.Scores, k int) error {
	n := len(central)
	theta := 1.0
	if r.Theta != nil {
		theta = *r.Theta
	}
	st, err := p.scratch(n, theta)
	if err != nil {
		return err
	}
	model := &mallows.Model{Center: central, Theta: theta}
	p.tr.do("mallows.draw", root, req, false, func(int) error {
		if k < n {
			st.out = model.SampleTopKInto(st.tab, k, st.out[:n], p.rng)
		} else {
			st.out = model.SampleInto(st.tab, st.out[:n], p.rng)
		}
		return nil
	})
	var thresh []float64
	if k < n {
		thresh = st.gtab.MissThresholds(k, st.floats)
	}
	p.tr.do("gmallows.draw", root, req, false, func(int) error {
		if k < n {
			st.out = st.gtab.SampleTopKInto(central, k, thresh, st.out[:n], p.rng)
		} else {
			st.out = st.gtab.SampleInto(central, st.out[:n], p.rng)
		}
		return nil
	})
	for rk, item := range central {
		st.logw[item] = -theta * float64(rk)
	}
	p.tr.do("pl.draw", root, req, false, func(int) error {
		if k < n {
			st.out = pl.SampleTopKInto(st.logw, k, st.out[:n], st.plsc, p.rng)
		} else {
			st.out = pl.SampleLogWeightsInto(st.logw, st.out[:n], st.plsc, p.rng)
		}
		return nil
	})
	return p.tr.do("quality.ndcg", root, req, false, func(int) error {
		_, err := quality.DCG(st.out, scores, k)
		return err
	})
}

// scratch returns the sampler state for pool size n, building it
// outside any span on first use.
func (p *prober) scratch(n int, theta float64) (*sizeScratch, error) {
	if st, ok := p.sizes[n]; ok && st.tab.Theta() == theta {
		return st, nil
	}
	tab, err := mallows.NewTables(n, theta)
	if err != nil {
		return nil, err
	}
	thetas := make([]float64, n)
	for j := range thetas {
		thetas[j] = theta * math.Pow(gmallowsDecay, float64(j))
	}
	gtab, err := mallows.NewGeneralizedTables(thetas)
	if err != nil {
		return nil, err
	}
	st := &sizeScratch{
		tab:    tab,
		gtab:   gtab,
		plsc:   pl.NewScratch(n),
		out:    make(perm.Perm, n),
		floats: make([]float64, n+1),
		logw:   make([]float64, n),
	}
	p.sizes[n] = st
	return st, nil
}
