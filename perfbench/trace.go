package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is the causing span's ID (0 for a
// root) and Req groups the spans of one request.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Add(parent, req int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// Reserve returns an ID for a span whose children finish before it
// does; Set fills it in once its end is known.
func (t *Tracer) Reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{})
	return int64(len(t.spans))
}

// Set records a reserved span.
func (t *Tracer) Set(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL exports the spans, one JSON object a line.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// rootPrefix names the spans that are units of end-to-end time: a
// Detect pass, one request, a boot, a replay. Their self time is what
// no layer span accounts for.
const rootPrefix = "e2e."

// Breakdown is a trace reduced to self time per layer.
type Breakdown struct {
	// E2E is the summed duration of the root spans.
	E2E time.Duration
	// Self maps each non-root span name to its summed self time.
	Self map[string]time.Duration
	// Count maps each span name to its span count.
	Count map[string]int
	// Unattributed is the summed self time of the root spans.
	Unattributed time.Duration
}

// SelfTimes computes every span's self time: its duration minus the
// part of its interval covered by the union of its children.
func SelfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// Reduce folds a trace into per-layer self times.
func Reduce(spans []Span) Breakdown {
	self := SelfTimes(spans)
	b := Breakdown{Self: map[string]time.Duration{}, Count: map[string]int{}}
	for _, s := range spans {
		b.Count[s.Name]++
		if strings.HasPrefix(s.Name, rootPrefix) {
			b.E2E += time.Duration(s.End - s.Start)
			b.Unattributed += self[s.ID]
			continue
		}
		b.Self[s.Name] += self[s.ID]
	}
	return b
}

// Attributed is the summed layer self time.
func (b Breakdown) Attributed() time.Duration {
	var t time.Duration
	for _, d := range b.Self {
		t += d
	}
	return t
}
