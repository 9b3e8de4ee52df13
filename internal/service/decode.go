package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	fairrank "repro"
)

// The request reader decodes RankRequest and BatchRequest bodies
// without reflection. It handles the shapes clients send — exact
// lower-case keys, unescaped UTF-8 strings, plain numbers — itself, and
// hands every other value of a known field (escaped or non-UTF-8
// strings, attrs, membership, null) to json.Unmarshal on that value's
// bytes. It gives up on anything whose meaning depends on decoder state
// or that encoding/json would reject: duplicate or case-folded keys,
// syntax errors, type errors, out-of-range numbers. Giving up re-decodes
// the whole body with json.NewDecoder, so every body decodes to exactly
// the value, or fails with exactly the error, that encoding/json gives.
// Like json.Decoder, the reader ignores bytes after the first value.
//
// Candidate IDs are copied into one backing string per pool and group
// names are interned, so a pool costs a few dozen allocations whatever
// its size. A response that echoes IDs keeps that backing string alive
// until it is encoded.

// ReadBody reads the whole request body, bounded by limit bytes. On
// failure it answers — 413 past the limit, 400 otherwise, with
// {"error": "reading request body: ..."} — and returns false. fairrankd
// and the gateway share it, so an over-limit body gets the same answer
// from both.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	size := int64(-1)
	if r.ContentLength >= 0 && r.ContentLength <= limit {
		size = r.ContentLength
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), size)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": "reading request body: " + err.Error()})
		return nil, false
	}
	return body, true
}

// readChunk bounds the buffer readAll sets aside before any body byte
// has arrived.
const readChunk = 1 << 20

// readAll reads src to EOF; size is its announced length, or -1. The
// buffer starts at no more than readChunk (at bytes.MinRead for an
// unknown size) and at most doubles each time it fills, so what it
// holds grows with the bytes received, not with the size a client
// announces. A known size caps the buffer at size+1 bytes — the extra
// byte lets the last read see EOF — so a body of that size ends in a
// buffer of its size.
func readAll(src io.Reader, size int64) ([]byte, error) {
	want := int64(bytes.MinRead)
	if size >= 0 {
		want = min(size+1, readChunk)
	}
	buf := make([]byte, 0, want)
	for {
		if len(buf) == cap(buf) {
			grow := cap(buf)
			if rest := size + 1 - int64(len(buf)); rest > 0 && rest < int64(grow) {
				grow = int(rest)
			}
			buf = append(make([]byte, 0, len(buf)+grow), buf...)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRankRequest decodes a /v1/rank body into the zero value *req.
// Candidate slices are reserved ahead of parsing, from a count of the
// array's objects that strings or nested objects can inflate; however a
// body inflates it, the capacity reserved past the candidates actually
// read stays within maxCandidates+1, the service's pool limit.
func decodeRankRequest(body []byte, req *RankRequest, maxCandidates int) error {
	return decodeBody(body, req, maxCandidates, (*wireReader).rankRequest)
}

// decodeBatchRequest decodes a batch or job body into the zero value
// *req; maxCandidates is as for decodeRankRequest, for the whole body.
func decodeBatchRequest(body []byte, req *BatchRequest, maxCandidates int) error {
	return decodeBody(body, req, maxCandidates, (*wireReader).batchRequest)
}

func decodeBody[T any](body []byte, dst *T, maxCandidates int, read func(*wireReader, *T) bool) error {
	r := wireReader{buf: body, spare: maxCandidates + 1}
	if read(&r, dst) {
		return nil
	}
	var zero T
	*dst = zero
	return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
}

// ShardKey derives a gateway routing key from a rank or batch body: the
// engine-shaping fields of rankerKey, so requests sharing one reusable
// engine land on one backend. A batch is keyed by its first entry when
// the whole batch decodes; otherwise the body is keyed as a single
// request, and an undecodable body gets the default key. One validating
// pass reads the key fields and skips everything else; a body that pass
// cannot key for certain is keyed by json.Unmarshal.
func ShardKey(body []byte) string {
	if k, ok := shardKeyFast(body); ok {
		return k.String()
	}
	var p probe
	var b struct {
		Requests []probe `json:"requests"`
	}
	if err := json.Unmarshal(body, &b); err == nil && len(b.Requests) > 0 {
		p = b.Requests[0]
	} else {
		_ = json.Unmarshal(body, &p)
	}
	return p.key().String()
}

// probe is the rankerKey slice of a rank request, as ShardKey reads it.
type probe struct {
	Algorithm string  `json:"algorithm"`
	Central   string  `json:"central"`
	WeakK     int     `json:"weak_k"`
	Sigma     float64 `json:"sigma"`
}

func (p *probe) key() rankerKey {
	return rankerKey{
		algorithm: fairrank.Algorithm(p.Algorithm),
		central:   fairrank.Central(p.Central),
		weakK:     p.WeakK,
		sigma:     p.Sigma,
	}
}

// String renders the key as "algorithm|central|weak_k|sigma".
func (k rankerKey) String() string {
	return string(k.algorithm) + "|" + string(k.central) + "|" + strconv.Itoa(k.weakK) + "|" + strconv.FormatFloat(k.sigma, 'g', -1, 64)
}

var (
	rankFields      = []string{"candidates", "algorithm", "central", "criterion", "noise", "theta", "samples", "tolerance", "top_k", "weak_k", "sigma", "seed"}
	candidateFields = []string{"id", "score", "group", "attrs", "membership"}
	batchFields     = []string{"requests", "webhook_url"}
	probeFields     = []string{"algorithm", "central", "weak_k", "sigma"}
	probeTopFields  = []string{"requests", "algorithm", "central", "weak_k", "sigma"}
)

// maxSkipDepth bounds the nesting the reader validates itself; deeper
// values go to encoding/json, which enforces its own limit.
const maxSkipDepth = 512

// wireReader is a cursor over one request body.
type wireReader struct {
	buf    []byte
	pos    int
	spare  int               // candidate slots still free to reserve past those filled
	groups map[string]string // interned group names
}

func (r *wireReader) rankRequest(req *RankRequest) bool {
	return r.object(rankFields, func(f int) bool {
		switch f {
		case 0:
			return r.candidates(&req.Candidates)
		case 1:
			return r.str(&req.Algorithm)
		case 2:
			return r.str(&req.Central)
		case 3:
			return r.str(&req.Criterion)
		case 4:
			return r.str(&req.Noise)
		case 5:
			return r.floatPtr(&req.Theta)
		case 6:
			return r.intPtr(&req.Samples)
		case 7:
			return r.floatPtr(&req.Tolerance)
		case 8:
			return r.intPtr(&req.TopK)
		case 9:
			return r.int(&req.WeakK)
		case 10:
			return r.float(&req.Sigma)
		default:
			return r.int64(&req.Seed, 64)
		}
	})
}

func (r *wireReader) batchRequest(req *BatchRequest) bool {
	return r.object(batchFields, func(f int) bool {
		if f == 1 {
			return r.str(&req.WebhookURL)
		}
		if r.peek() != '[' {
			return r.delegate(&req.Requests)
		}
		req.Requests = []RankRequest{}
		return r.array(func() bool {
			req.Requests = append(req.Requests, RankRequest{})
			e := &req.Requests[len(req.Requests)-1]
			if r.peek() != '{' {
				return r.delegate(e)
			}
			return r.rankRequest(e)
		})
	})
}

// candidates reads the pool into a slice sized by objectsHint, writing
// the IDs one after another into one backing string that each is then
// sliced from.
func (r *wireReader) candidates(dst *[]Candidate) bool {
	if r.peek() != '[' {
		return r.delegate(dst)
	}
	hint := min(objectsHint(r.buf[r.pos:]), r.spare)
	cands := make([]Candidate, 0, hint)
	ends := make([]int, 0, hint)
	var ids strings.Builder
	ok := r.array(func() bool {
		cands = append(cands, Candidate{})
		c := &cands[len(cands)-1]
		var ok bool
		if r.peek() == '{' {
			ok = r.candidate(c, &ids)
		} else {
			ok = r.delegate(c)
		}
		ends = append(ends, ids.Len())
		return ok
	})
	r.spare -= max(hint-len(cands), 0)
	if !ok {
		return false
	}
	backing, start := ids.String(), 0
	for i, end := range ends {
		cands[i].ID = backing[start:end]
		start = end
	}
	*dst = cands
	return true
}

// candidate reads one candidate object, all but its ID, which it
// writes to ids instead.
func (r *wireReader) candidate(c *Candidate, ids *strings.Builder) bool {
	return r.object(candidateFields, func(f int) bool {
		switch f {
		case 0:
			b, ok := r.text()
			ids.Grow(len(b)) // doubles when full, where Write grows by a quarter
			ids.Write(b)
			return ok
		case 1:
			return r.float(&c.Score)
		case 2:
			b, ok := r.text()
			c.Group = r.intern(b)
			return ok
		case 3:
			return r.delegate(&c.Attrs)
		default:
			return r.delegate(&c.Membership)
		}
	})
}

func (r *wireReader) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := r.groups[string(b)]; ok {
		return s
	}
	if r.groups == nil {
		r.groups = make(map[string]string)
	}
	s := string(b)
	r.groups[s] = s
	return s
}

// shardKeyFast is ShardKey's single pass; ok is false when the body
// needs encoding/json's exact semantics to key.
func shardKeyFast(body []byte) (key rankerKey, ok bool) {
	r := wireReader{buf: body}
	var top, first probe
	entries := 0
	ok = r.object(probeTopFields, func(f int) bool {
		if f > 0 {
			return r.probeField(&top, f-1)
		}
		if r.peek() == 'n' {
			return r.lit("null")
		}
		return r.array(func() bool {
			var p probe
			if r.peek() == 'n' {
				if !r.lit("null") {
					return false
				}
			} else if !r.object(probeFields, func(f int) bool { return r.probeField(&p, f) }) {
				return false
			}
			if entries == 0 {
				first = p
			}
			entries++
			return true
		})
	})
	// json.Unmarshal, unlike json.Decoder, rejects trailing data.
	if r.peek(); !ok || r.pos != len(body) {
		return rankerKey{}, false
	}
	if entries > 0 {
		return first.key(), true
	}
	return top.key(), true
}

func (r *wireReader) probeField(p *probe, f int) bool {
	switch f {
	case 0:
		return r.str(&p.Algorithm)
	case 1:
		return r.str(&p.Central)
	case 2:
		return r.int(&p.WeakK)
	default:
		return r.float(&p.Sigma)
	}
}

// object reads an object whose keys name fields: member reads the value
// of field f. Unknown keys are skipped; a duplicate field, an escaped
// or non-ASCII key, or a key encoding/json would match to a field by
// case folding fails the read.
func (r *wireReader) object(fields []string, member func(f int) bool) bool {
	if !r.eat('{') {
		return false
	}
	if r.eat('}') {
		return true
	}
	var seen uint64
	for {
		if r.peek() != '"' {
			return false
		}
		key, plain, ok := r.scanString()
		if !ok || !plain || !r.eat(':') {
			return false
		}
		f, ok := field(key, fields)
		switch {
		case !ok:
			return false
		case f < 0:
			if !r.skip(0) {
				return false
			}
		case seen&(1<<f) != 0:
			return false
		default:
			seen |= 1 << f
			if !member(f) {
				return false
			}
		}
		if !r.eat(',') {
			return r.eat('}')
		}
	}
}

// array reads an array, calling elem to read each element.
func (r *wireReader) array(elem func() bool) bool {
	if !r.eat('[') {
		return false
	}
	if r.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !r.eat(',') {
			return r.eat(']')
		}
	}
}

// field returns key's index in fields, or -1 for a key no field claims.
// ok is false for keys whose match needs encoding/json's case folding.
func field(key []byte, fields []string) (f int, ok bool) {
	for i, name := range fields {
		if string(key) == name {
			return i, true
		}
	}
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return 0, false
		}
	}
	for _, name := range fields {
		if asciiEqualFold(key, name) {
			return 0, false
		}
	}
	return -1, true
}

func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// delegate decodes the next value into dst with encoding/json. Every
// destination starts out zero and is written once (duplicate keys fail
// the read), so this equals what json.Decoder does to the field.
func (r *wireReader) delegate(dst any) bool {
	r.peek()
	start := r.pos
	return r.skip(0) && json.Unmarshal(r.buf[start:r.pos], dst) == nil
}

// text reads a string value: its decoded bytes, which alias the body
// unless the string needed unquoting. null reads as empty: it leaves a
// string field untouched, and every field starts out empty.
func (r *wireReader) text() (b []byte, ok bool) {
	switch r.peek() {
	case '"':
		start := r.pos
		raw, plain, ok := r.scanString()
		if !ok || plain {
			return raw, ok
		}
		var s string
		if json.Unmarshal(r.buf[start:r.pos], &s) != nil {
			return nil, false
		}
		return []byte(s), true
	case 'n':
		return nil, r.lit("null")
	}
	return nil, false
}

func (r *wireReader) str(dst *string) bool {
	b, ok := r.text()
	*dst = string(b)
	return ok
}

// float reads a number into *dst as encoding/json does; null leaves it.
func (r *wireReader) float(dst *float64) bool {
	if r.peek() == 'n' {
		return r.lit("null")
	}
	lit, ok := r.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}

// int64 reads a number into an integer of the given bit size as
// encoding/json does; null leaves it.
func (r *wireReader) int64(dst *int64, bits int) bool {
	if r.peek() == 'n' {
		return r.lit("null")
	}
	lit, ok := r.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	*dst = v
	return err == nil
}

func (r *wireReader) int(dst *int) bool {
	v := int64(*dst)
	ok := r.int64(&v, strconv.IntSize)
	*dst = int(v)
	return ok
}

func (r *wireReader) floatPtr(dst **float64) bool {
	if r.peek() == 'n' {
		return r.lit("null")
	}
	*dst = new(float64)
	return r.float(*dst)
}

func (r *wireReader) intPtr(dst **int) bool {
	if r.peek() == 'n' {
		return r.lit("null")
	}
	*dst = new(int)
	return r.int(*dst)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *wireReader) peek() byte {
	for r.pos < len(r.buf) {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it is the next byte after whitespace.
func (r *wireReader) eat(c byte) bool {
	if r.peek() == c {
		r.pos++
		return true
	}
	return false
}

func (r *wireReader) lit(word string) bool {
	if len(r.buf)-r.pos < len(word) || string(r.buf[r.pos:r.pos+len(word)]) != word {
		return false
	}
	r.pos += len(word)
	return true
}

// scanString reads the string at r.pos, which holds its opening quote,
// and returns its raw contents. plain reports that they need no
// unquoting: no escapes, valid UTF-8.
func (r *wireReader) scanString() (raw []byte, plain, ok bool) {
	b := r.buf
	start := r.pos + 1
	i := start
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		r.pos = i + 1
		return b[start:i], true, true
	}
	plain = true
	ascii := true
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw = b[start:i]
			r.pos = i + 1
			return raw, plain && (ascii || utf8.Valid(raw)), true
		case c == '\\':
			plain = false
			i++
			if i == len(b) {
				return nil, false, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return nil, false, false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return nil, false, false
					}
				}
				i += 4
			default:
				return nil, false, false
			}
		case c < 0x20:
			return nil, false, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, false
}

// plainByte marks the string bytes that need no attention: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// number reads a JSON number literal.
func (r *wireReader) number() ([]byte, bool) {
	b, i := r.buf, r.pos
	digits := func() int {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	lit := b[r.pos:i]
	r.pos = i
	return lit, true
}

// skip validates and skips one value.
func (r *wireReader) skip(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	switch r.peek() {
	case '"':
		_, _, ok := r.scanString()
		return ok
	case '{':
		r.pos++
		if r.eat('}') {
			return true
		}
		for {
			if r.peek() != '"' {
				return false
			}
			if _, _, ok := r.scanString(); !ok || !r.eat(':') || !r.skip(depth+1) {
				return false
			}
			if !r.eat(',') {
				return r.eat('}')
			}
		}
	case '[':
		return r.array(func() bool { return r.skip(depth + 1) })
	case 't':
		return r.lit("true")
	case 'f':
		return r.lit("false")
	case 'n':
		return r.lit("null")
	}
	_, ok := r.number()
	return ok
}

// objectsHint sizes the slices for the array at the start of b: the
// objects before its first ']'. That is exact for an array of flat
// objects free of braces in strings; otherwise it only skews the hint,
// never the decoded value, and the reader's spare budget bounds what an
// overestimate can reserve.
func objectsHint(b []byte) int {
	if end := bytes.IndexByte(b, ']'); end >= 0 {
		b = b[:end]
	}
	return bytes.Count(b, []byte{'{'})
}
