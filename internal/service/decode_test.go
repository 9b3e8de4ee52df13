package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// rankSeeds are request bodies on and around the reader's edges: every
// shape it decodes itself, and every one it must leave to encoding/json.
var rankSeeds = []string{
	`{"candidates":[{"id":"a","score":2,"group":"x"},{"id":"b","score":1,"group":"y"}],"seed":7}`,
	`{"candidates":[{"id":"a","score":0.5,"group":"x","attrs":{"k":"v"},"membership":{"x":0.25,"y":0.75}}],"algorithm":"mallows-best","central":"weak","criterion":"kt","noise":"gmallows","theta":1.5,"samples":3,"tolerance":0.2,"top_k":1,"weak_k":1,"sigma":0.1,"seed":-3}`,
	" \t\r\n{ \"seed\" : 5 , \"candidates\" : [ { \"id\" : \"a\" , \"score\" : 1e-3 } ] } ",
	// Escapes and surrogate pairs, valid and lone.
	`{"candidates":[{"id":"a\"b\\c\/d\b\f\n\r\t\u00e9","score":1,"group":"g\u0031"}]}`,
	`{"candidates":[{"id":"\ud83d\ude00","score":1,"group":"x"},{"id":"\ud83d","score":1,"group":"\ude00x"}]}`,
	// UTF-8: valid multi-byte, then invalid bytes that decode to U+FFFD.
	`{"candidates":[{"id":"é","score":1,"group":"ü"}],"noise":"日本"}`,
	"{\"candidates\":[{\"id\":\"a\xff\",\"score\":1,\"group\":\"\xc3\"}],\"algorithm\":\"\xed\xa0\x80\"}",
	// Keys encoding/json matches by case folding or after unescaping.
	`{"candidates":[{"ID":"a","Score":1,"group":"x"}]}`,
	`{"Candidates":[],"SEED":3,"Top_K":2}`,
	`{"candidates":[{"id":"a","ſcore":2,"group":"x"}],"weaK_k":1}`,
	"{\"top_\u212a\":4}",
	`{"candidates":[{"\u0069d":"a","score":1,"group":"x"}]}`,
	// Duplicate keys: a duplicate attrs merges, scalars take the last
	// value, a second array decodes over the first.
	`{"candidates":[{"id":"a","attrs":{"k":"1"},"attrs":{"j":"2"},"score":1,"group":"x"}]}`,
	`{"seed":1,"seed":2,"theta":1,"theta":null}`,
	`{"candidates":[{"id":"a","score":5}],"candidates":[{"id":"b"}]}`,
	// null at each level.
	`null`,
	`{"candidates":null}`,
	`{"candidates":[null,{"id":null,"score":null,"group":null,"attrs":null,"membership":null}]}`,
	`{"algorithm":null,"central":null,"criterion":null,"noise":null,"theta":null,"samples":null,"tolerance":null,"top_k":null,"weak_k":null,"sigma":null,"seed":null}`,
	`{"candidates":[{"id":"a","attrs":{"k":null},"membership":{"x":null}}]}`,
	// Numbers out of range or of the wrong kind.
	`{"candidates":[{"id":"a","score":1e400,"group":"x"}]}`,
	`{"theta":1e400}`,
	`{"sigma":-1e400,"tolerance":1e-400}`,
	`{"candidates":[{"id":"a","score":-0,"group":"x"}],"seed":-0,"theta":-0.0,"sigma":-0e5}`,
	`{"samples":1.0}`,
	`{"top_k":1e1}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775808,"weak_k":9223372036854775807}`,
	`{"candidates":[{"id":"a","score":12345678901234567890123456789012345678901234567890e-40}]}`,
	// Empty containers.
	`{"candidates":[]}`,
	`{}`,
	`[]`,
	`{"candidates":[{}]}`,
	// Trailing bytes after the first value.
	`{"seed":1} trailing`,
	`{"seed":1}{"seed":2}`,
	`{"seed":1}]`,
	// Unknown keys with nested values, skipped.
	`{"extra":{"a":[1,2,{"b":null}],"c":true,"d":false,"e":"\u0041"},"candidates":[{"id":"a","x":[],"score":1,"group":"x"}]}`,
	// Type errors.
	`{"candidates":[{"id":5}]}`,
	`{"candidates":{}}`,
	`{"candidates":[1]}`,
	`{"algorithm":["x"]}`,
	`{"seed":"1"}`,
	`{"candidates":[{"id":"a","attrs":{"k":1}}]}`,
	`{"candidates":[{"id":"a","membership":{"x":"1"}}]}`,
	`{"candidates":[{"id":"a","group":true}]}`,
	// Syntax errors.
	``,
	`   `,
	`{"candidates": [`,
	`{"candidates":[{"id":"a",}]}`,
	`{"candidates":[{"id":"a"},]}`,
	`{"a":01}`,
	`{"a":1.}`,
	`{"a":-}`,
	`{"a":1e}`,
	`{"a":"\x"}`,
	`{"a":"\u12g4"}`,
	"{\"a\":\"\x01\"}",
	`{"a":tru}`,
	`{"a" 1}`,
	`{a:1}`,
	`{"seed":1,,"theta":2}`,
	`{"extra":[1,]}`,
	`{"extra":[1 2]}`,
	`{"extra":{"a":1,}}`,
	`{"extra":{"a" 1}}`,
	`{"extra":{1:2}}`,
	`{"extra":nul}`,
	`{"extra":"unterminated}`,
	"\ufeff{}",
	`{"a":` + strings.Repeat("[", 600) + strings.Repeat("]", 600) + `}`,
	`{"a":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
}

// batchSeeds wrap the same edges in the batch envelope.
var batchSeeds = []string{
	`{"requests":[{"candidates":[{"id":"a","score":1,"group":"x"}],"seed":1},{"candidates":[],"top_k":3}],"webhook_url":"http://example.test/hook"}`,
	`{"requests":[null,{}]}`,
	`{"requests":null}`,
	`{"requests":[]}`,
	`{"Requests":[]}`,
	`{"requests":[{"seed":1.5}]}`,
	`{"requests":[{"seed":1}],"requests":[{"theta":2}]}`,
	`{"requests":{}}`,
	`{"requests":[1]}`,
	`{"requests":[{"candidates":[{"ID":"a"}]}]}`,
	`{"requests":[]}]`,
	`{"requests":[{"candidates":[{"id":"\u00e9","score":-0}]}],"webhook_url":null}`,
	`{"webhook_url":"a\"b"}`,
	`{"requests":[{"candidates":[{"id":"a"}]},]}`,
	`null`,
	``,
}

// checkMaxCandidates is the pool limit the decode checks pass: small,
// so that pools outgrowing their reserved capacity are covered too.
const checkMaxCandidates = 2

// checkDecode requires dec to agree with json.Decoder on b: the same
// error text, or values that are deeply equal and encode to the same
// bytes (which also tells -0 from 0).
func checkDecode[T any](t *testing.T, b []byte, dec func([]byte, *T, int) error) {
	t.Helper()
	var got, want T
	gotErr := dec(b, &got, checkMaxCandidates)
	wantErr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: error %v, encoding/json %v", b, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %q, encoding/json %q", b, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n got  %#v\n want %#v", b, got, want)
	}
	gotJSON, err1 := json.Marshal(got)
	wantJSON, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("body %q: re-encodes to %s (%v), encoding/json's value to %s (%v)", b, gotJSON, err1, wantJSON, err2)
	}
}

func FuzzDecodeRankRequest(f *testing.F) {
	for _, s := range rankSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, decodeRankRequest)
	})
}

func FuzzDecodeBatchRequest(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s))
	}
	for _, s := range rankSeeds {
		f.Add([]byte(`{"requests":[` + s + `]}`))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, decodeBatchRequest)
	})
}

// TestReaderDecodesCommonBodies pins that the bodies clients send are
// decoded by the reader itself, not by the encoding/json fallback — the
// fallback is always correct, so only this test notices if it starts
// taking every request.
func TestReaderDecodesCommonBodies(t *testing.T) {
	k, samples, theta := 10, 15, 1.0
	req := RankRequest{
		Candidates: []Candidate{
			{ID: "a", Score: 2.5, Group: "x"},
			{ID: "b\"é", Score: -1e-9, Group: "y", Attrs: map[string]string{"k": "v"}, Membership: map[string]float64{"x": 0.5, "y": 0.5}},
			{ID: "c", Score: 0, Group: "x"},
		},
		Algorithm: "mallows-best", Noise: "plackett-luce", Theta: &theta, Samples: &samples, TopK: &k, Seed: 42,
	}
	rankBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	batchBody, err := json.Marshal(BatchRequest{Requests: []RankRequest{req, req}, WebhookURL: "http://example.test/"})
	if err != nil {
		t.Fatal(err)
	}
	var got RankRequest
	if r := (wireReader{buf: rankBody}); !r.rankRequest(&got) {
		t.Fatalf("reader left %s to encoding/json", rankBody)
	}
	var gotBatch BatchRequest
	if r := (wireReader{buf: batchBody}); !r.batchRequest(&gotBatch) {
		t.Fatalf("reader left %s to encoding/json", batchBody)
	}
	for _, body := range [][]byte{rankBody, batchBody} {
		if _, ok := shardKeyFast(body); !ok {
			t.Errorf("shard probe left %s to encoding/json", body)
		}
	}
	checkDecode(t, rankBody, decodeRankRequest)
	checkDecode(t, batchBody, decodeBatchRequest)
	// Group names are interned, and the IDs are consecutive slices of
	// one backing string.
	c := got.Candidates
	if unsafe.StringData(c[0].Group) != unsafe.StringData(c[2].Group) {
		t.Error("equal group names are separate strings")
	}
	for i := 1; i < len(c); i++ {
		if unsafe.StringData(c[i].ID) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(c[i-1].ID)), len(c[i-1].ID))) {
			t.Errorf("candidate %d's ID does not follow candidate %d's in one backing string", i, i-1)
		}
	}
}

// TestWireFieldsMatchTags pins the reader's field tables to the json
// tags of the types they decode, in order: a field added to one of
// these types must be added to the reader too, or its key would be
// skipped as unknown.
func TestWireFieldsMatchTags(t *testing.T) {
	for _, tc := range []struct {
		typ    any
		fields []string
	}{
		{RankRequest{}, rankFields},
		{Candidate{}, candidateFields},
		{BatchRequest{}, batchFields},
		{probe{}, probeFields},
	} {
		typ := reflect.TypeOf(tc.typ)
		var tags []string
		for i := range typ.NumField() {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !slices.Equal(tags, tc.fields) {
			t.Errorf("%s has json keys %q, the reader reads %q", typ, tags, tc.fields)
		}
	}
	if want := append([]string{"requests"}, probeFields...); !slices.Equal(probeTopFields, want) {
		t.Errorf("probeTopFields = %q, want %q", probeTopFields, want)
	}
}

// TestDecodeAllocBoundedByBody pins that what a body makes the reader
// allocate is on the order of its size, whatever bytes it crowds into
// the candidate arrays: the candidate capacity reserved past what a
// body fills stays within the pool limit, across all its pools.
func TestDecodeAllocBoundedByBody(t *testing.T) {
	const size, maxCandidates = 1 << 20, 1000
	braces := strings.Repeat("{", size)
	entry := `{"candidates":[{"id":"` + strings.Repeat("{", maxCandidates) + `"}]}`
	for name, body := range map[string]string{
		"braces in an ID":           `{"candidates":[{"id":"` + braces + `","score":1,"group":"x"}]}`,
		"braces in an escaped ID":   `{"candidates":[{"id":"\"` + braces + `","score":1,"group":"x"}]}`,
		"braces in a group":         `{"candidates":[{"id":"a","score":1,"group":"` + braces + `"}]}`,
		"braces in an unknown key":  `{"candidates":[{"id":"a","x":"` + braces + `"}]}`,
		"objects in an unknown key": `{"candidates":[{"id":"a","x":[` + strings.Repeat(`{},`, size/3) + `{}]}]}`,
		"nested objects":            `{"candidates":[{"id":"a","x":` + strings.Repeat(`{"a":`, size/5) + `1` + strings.Repeat(`}`, size/5) + `}]}`,
		"objects without commas":    `{"candidates":[` + strings.Repeat(`{}`, size/2) + `]}`,
		"braces in every entry":     `{"requests":[` + strings.Repeat(entry+",", size/maxCandidates) + entry + `]}`,
	} {
		t.Run(name, func(t *testing.T) {
			b := []byte(body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if strings.HasPrefix(body, `{"requests"`) {
				err = decodeBatchRequest(b, new(BatchRequest), maxCandidates)
			} else {
				err = decodeRankRequest(b, new(RankRequest), maxCandidates)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(len(b)) {
				t.Errorf("decoding a %d-byte body allocated %d bytes (error %v), want at most 8× the body", len(b), got, err)
			}
		})
	}
}

// TestReadAllHoldsWhatArrives pins that the buffer a body is read into
// grows with the bytes received, not with the Content-Length a client
// announces, and that an announced size is read exactly.
func TestReadAllHoldsWhatArrives(t *testing.T) {
	allocated := func(src io.Reader, size int64) ([]byte, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := readAll(src, size)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return b, after.TotalAlloc - before.TotalAlloc
	}
	if b, got := allocated(strings.NewReader("{}"), maxBodyBytes); string(b) != "{}" || got > 2*readChunk {
		t.Errorf("a 2-byte body announced as %d bytes read as %q after allocating %d bytes, want at most %d", maxBodyBytes, b, got, 2*readChunk)
	}
	body := bytes.Repeat([]byte("x"), 3*readChunk+5)
	for _, size := range []int64{int64(len(body)), -1} {
		b, got := allocated(bytes.NewReader(body), size)
		if !bytes.Equal(b, body) {
			t.Fatalf("size %d: read %d bytes, want %d", size, len(b), len(body))
		}
		if got > 4*uint64(len(body)) {
			t.Errorf("size %d: a %d-byte body allocated %d bytes", size, len(body), got)
		}
		if size >= 0 && int64(cap(b)) > size+1 {
			t.Errorf("an announced %d-byte body ends in a %d-byte buffer", size, cap(b))
		}
	}
}

// TestRankAllocsIndependentOfPoolSize pins that a decoded request and
// its ranking allocate per group and per request, not per candidate:
// the same top_k=10 request over 1e3 and 1e4 candidates differs by a
// small constant. The residue is the two ID-uniqueness maps (service
// validation and the library's instance build), which grow by one hash
// table per ~900 IDs.
func TestRankAllocsIndependentOfPoolSize(t *testing.T) {
	if testing.Short() {
		t.Skip("ranks 1e4-candidate pools")
	}
	const maxExtra = 128
	s := New(Config{Workers: 1})
	defer s.Close()
	allocs := func(n int) float64 {
		body := poolBody(n, 10)
		run := func() {
			var req RankRequest
			if err := decodeRankRequest(body, &req, s.cfg.MaxCandidates); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Rank(t.Context(), &req); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the ranker cache
		return testing.AllocsPerRun(5, run)
	}
	small, large := allocs(1000), allocs(10000)
	if large-small >= maxExtra {
		t.Fatalf("decode + Rank allocates %.0f objects at n=1e3 but %.0f at n=1e4: %.0f extra, want < %d — something in the decode or instance-build path allocates per candidate",
			small, large, large-small, maxExtra)
	}
}

// poolBody encodes a /v1/rank request over n candidates in three
// groups, with the given top_k.
func poolBody(n, topK int) []byte {
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = Candidate{
			ID:    fmt.Sprintf("cand-%07d", i),
			Score: float64((i*7919)%n) / float64(n),
			Group: fmt.Sprintf("g%d", i%3),
		}
	}
	b, err := json.Marshal(RankRequest{Candidates: cands, TopK: &topK, Seed: 1})
	if err != nil {
		panic(err)
	}
	return b
}

func BenchmarkDecodeRankRequest(b *testing.B) {
	body := poolBody(100000, 10)
	b.Run("n=1e5", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var req RankRequest
			if err := decodeRankRequest(body, &req, 100000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzHandler serves arbitrary bodies on the three decoding routes:
// every answer is a 2xx, or a 4xx carrying exactly {"error": "..."} —
// never a 5xx, never a panic.
func FuzzHandler(f *testing.F) {
	paths := []string{"/v1/rank", "/v1/rank/batch", "/v1/jobs/rank"}
	for _, s := range rankSeeds {
		f.Add(uint8(0), []byte(s))
	}
	for _, s := range batchSeeds {
		f.Add(uint8(1), []byte(s))
		f.Add(uint8(2), []byte(s))
	}
	f.Add(uint8(0), []byte(`{"candidates":`+candidatesJSON+`,"top_k":1,"noise":"plackett-luce"}`))
	f.Add(uint8(1), []byte(`{"requests":[{"candidates":`+candidatesJSON+`},{"candidates":[]}]}`))
	f.Add(uint8(2), []byte(`{"requests":[{"candidates":`+candidatesJSON+`}],"webhook_url":"ftp://x"}`))
	s := New(Config{Workers: 2, MaxCandidates: 64, MaxBatch: 4})
	f.Cleanup(s.Close)
	h := NewHandler(s)
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		if costly(body) {
			t.Skip("asks for more draws than a fuzz iteration affords")
		}
		req := httptest.NewRequest(http.MethodPost, paths[int(route)%len(paths)], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 200 && rec.Code < 300:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%d with a body that is not JSON: %q", rec.Code, rec.Body)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var e map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || len(e) != 1 {
				t.Fatalf("%d body %q is not {\"error\": ...}", rec.Code, rec.Body)
			}
			if msg, ok := e["error"].(string); !ok || msg == "" {
				t.Fatalf("%d body %q is not {\"error\": ...}", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// costly reports a body whose requests ask for more than 64 draws each:
// the service serves those correctly, only slowly.
func costly(body []byte) bool {
	var probe struct {
		Samples  *int `json:"samples"`
		Requests []struct {
			Samples *int `json:"samples"`
		} `json:"requests"`
	}
	// Type errors leave the other fields decoded, as in the service.
	_ = json.NewDecoder(bytes.NewReader(body)).Decode(&probe)
	if probe.Samples != nil && *probe.Samples > 64 {
		return true
	}
	for _, r := range probe.Requests {
		if r.Samples != nil && *r.Samples > 64 {
			return true
		}
	}
	return false
}
