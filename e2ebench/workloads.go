package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	fairrank "repro"
	"repro/internal/scenario"
	"repro/internal/service"
)

// entry is what the benchmark needs to verify one ranking request of a
// body: the pool it was drawn from and the shape of a correct answer.
type entry struct {
	ids     []string // the pool's candidate IDs, sorted
	k       int      // expected ranking length: top_k clamped to n, or n
	samples int      // expected diagnostics.draws_evaluated
}

// body is one pre-encoded request: the exact bytes the program is sent,
// held as segments so bodies over the same pool share its encoded
// candidate array, plus one entry per ranking request it carries (one
// for /v1/rank, the batch size for /v1/rank/batch).
type body struct {
	segs    [][]byte
	entries []entry
}

func (b body) reader() io.Reader {
	rs := make([]io.Reader, len(b.segs))
	for i, s := range b.segs {
		rs[i] = bytes.NewReader(s)
	}
	return io.MultiReader(rs...)
}

// workload is one input set of the benchmark. Its ranking requests
// ("entries") are numbered e = 0, 1, …: entry e ranks pool e mod pools,
// with settings set(e) and its own request seed, and body i carries
// entries i·perBody … (i+1)·perBody−1.
type workload struct {
	name    string
	path    string // the POST route the client calls
	batch   bool   // bodies are BatchRequests
	gateway bool   // the client calls the gateway, which forwards to a backend
	shape   string // the soak-corpus spec the pools are generated from
	pools   int    // distinct pools, generated with seeds spec.Seed+0 … spec.Seed+pools−1
	entries int    // ranking requests in all bodies together
	perBody int    // ranking requests per body
	set     settings
}

// settings returns the top_k, samples and noise of entry e; nil and ""
// leave the service default.
type settings func(e int) (topK, samples *int, noise string)

// noiseAxes are the three built-in noise mechanisms, in the order the
// workloads cycle through them.
var noiseAxes = []string{"mallows", "plackett-luce", "gmallows"}

var workloads = []workload{
	{
		// The largest pool the service admits: wire decode, instance
		// build and GC carry the request; the draws are truncated to 10.
		// Four request seeds per pool average out the draw-to-draw
		// spread of the top-10 audit.
		name:    "pool-100k-top10",
		path:    "/v1/rank",
		shape:   "soak-100k-uniform",
		pools:   4,
		entries: 16,
		perBody: 1,
		set:     func(int) (*int, *int, string) { return intp(10), nil, "" },
	},
	{
		// Full-length draws on all three noise axes with a heavy
		// best-of-m loop: the draw path and NDCG scoring dominate.
		name:    "draws-1k-full",
		path:    "/v1/rank",
		shape:   "soak-1k-gaussian",
		pools:   12,
		entries: 12,
		perBody: 1,
		set: func(e int) (*int, *int, string) {
			return nil, intp(100), noiseAxes[e%len(noiseAxes)]
		},
	},
	{
		// Many pools per body through the gateway hop and the batch
		// fan-out across workers.
		name:    "gateway-batch-10k",
		path:    "/v1/rank/batch",
		batch:   true,
		gateway: true,
		shape:   "soak-10k-tied",
		pools:   24,
		entries: 24,
		perBody: 8,
		set: func(e int) (*int, *int, string) {
			return intp(100), nil, noiseAxes[e%len(noiseAxes)]
		},
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q, have %v", name, names)
}

// pool is one generated candidate pool, encoded once.
type pool struct {
	cands []byte   // the JSON candidate array
	ids   []string // sorted candidate IDs
}

// bodies generates the workload's request bodies. The pools are fixed
// by the workload; seed draws every request seed, so equal seeds give
// byte-identical bodies.
func (w workload) bodies(seed int64) ([]body, error) {
	soak, err := scenario.Corpus("soak")
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Find(soak, w.shape)
	if err != nil {
		return nil, err
	}
	pools := make([]pool, w.pools)
	base := spec.Seed
	for j := range pools {
		spec.Seed = base + int64(j)
		if pools[j], err = genPool(spec); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]body, w.entries/w.perBody)
	for i := range out {
		b := &out[i]
		if w.batch {
			b.segs = append(b.segs, []byte(`{"requests":[`))
		}
		for j := 0; j < w.perBody; j++ {
			e := i*w.perBody + j
			p := pools[e%len(pools)]
			topK, samples, noise := w.set(e)
			// Everything after the candidate array, encoded by the wire
			// type itself: marshal the request without candidates and
			// cut the null where the shared array goes.
			rest, err := json.Marshal(service.RankRequest{Noise: noise, Samples: samples, TopK: topK, Seed: rng.Int63()})
			if err != nil {
				return nil, err
			}
			const head = `{"candidates":null`
			if !bytes.HasPrefix(rest, []byte(head)) {
				return nil, fmt.Errorf("unexpected request encoding %.60s", rest)
			}
			if j > 0 {
				b.segs = append(b.segs, []byte(","))
			}
			b.segs = append(b.segs, []byte(`{"candidates":`), p.cands, rest[len(head):])
			ent := entry{ids: p.ids, k: len(p.ids), samples: fairrank.DefaultSamples}
			if topK != nil && *topK < ent.k {
				ent.k = *topK
			}
			if samples != nil {
				ent.samples = *samples
			}
			b.entries = append(b.entries, ent)
		}
		if w.batch {
			b.segs = append(b.segs, []byte(`]}`))
		}
	}
	return out, nil
}

func genPool(spec scenario.Spec) (pool, error) {
	cands, err := spec.Generate()
	if err != nil {
		return pool{}, err
	}
	wire := make([]service.Candidate, len(cands))
	ids := make([]string, len(cands))
	for i, c := range cands {
		wire[i] = service.Candidate{ID: c.ID, Score: c.Score, Group: c.Group}
		ids[i] = c.ID
	}
	sort.Strings(ids)
	raw, err := json.Marshal(wire)
	return pool{cands: raw, ids: ids}, err
}

func intp(v int) *int { return &v }
