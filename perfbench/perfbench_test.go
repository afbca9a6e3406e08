package main

import (
	"strings"
	"testing"
	"time"

	"infoshield/internal/datagen"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose: 1..n reversed
		}
		return s
	}
	for _, tc := range []struct {
		n         int
		want      float64 // value = rank, since samples are 1..n
		wantPct   float64
		wantAbove int
	}{
		{n: 2000, want: 1980, wantPct: 0.99, wantAbove: 20}, // p99 itself has 20 beyond
		{n: 1010, want: 1000, wantPct: 1000.0 / 1010, wantAbove: 10},
		{n: 1000, want: 990, wantPct: 0.99, wantAbove: 10},
		{n: 500, want: 490, wantPct: 0.98, wantAbove: 10}, // clamped below p99
		{n: 100, want: 90, wantPct: 0.90, wantAbove: 10},
	} {
		d := NewDist(seq(tc.n))
		v, pct := d.Tail(0.99)
		if v != tc.want || pct != tc.wantPct {
			t.Errorf("n=%d: Tail(0.99) = %v at p%v, want %v at p%v", tc.n, v, 100*pct, tc.want, 100*tc.wantPct)
		}
		above := 0
		for _, x := range d.s {
			if x > v {
				above++
			}
		}
		if above != tc.wantAbove {
			t.Errorf("n=%d: %d samples beyond the reported tail, want %d", tc.n, above, tc.wantAbove)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	d := NewDist([]float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12})
	v, pct := d.Tail(0.99)
	if pct != 0.5 || v != d.Median() || v != 6.5 {
		t.Fatalf("12 samples: Tail = %v at p%v, want the median 6.5 at p50", v, 100*pct)
	}
	if v, _ := NewDist(nil).Tail(0.99); v == v {
		t.Fatalf("empty sample: Tail = %v, want NaN", v)
	}
}

func TestWindowedTailIgnoresOneBadWindow(t *testing.T) {
	// Ten windows of 1,000 samples of 1 ms, each with 1% at 10 ms,
	// except one window where everything took 50 ms.
	var s []float64
	for w := 0; w < 10; w++ {
		for i := 0; i < tailWindow; i++ {
			v := 1.0
			if i%100 == 99 {
				v = 10
			}
			if w == 3 {
				v = 50
			}
			s = append(s, v)
		}
	}
	if whole, _ := NewDist(s).Tail(0.99); whole != 50 {
		t.Fatalf("whole-run p99 = %v, want the bad window's 50", whole)
	}
	v, pct := WindowedTail(s, 0.99)
	if v != 1 && v != 10 {
		t.Fatalf("windowed p99 = %v at p%v, want a good window's tail", v, 100*pct)
	}
	// Too few samples for two windows: the whole-run tail.
	short := append(append([]float64(nil), s[:1500]...), 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50)
	want, _ := NewDist(short).Tail(0.99)
	if v, _ := WindowedTail(short, 0.99); v != want || want != 10 {
		t.Fatalf("1,515 samples: windowed tail = %v, want the whole-run p99 %v (10)", v, want)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	base := time.Unix(1000, 0)
	sched := OpenLoop{Start: base, Interval: 10 * time.Millisecond}
	at := func(msec float64) time.Time { return base.Add(time.Duration(msec * float64(time.Millisecond))) }
	ops := []Op{
		// On time: sent when due, answered 2 ms later.
		{Due: sched.Due(0), Send: at(0), Done: at(2), OK: true},
		// The server stalls: answered at 35 ms.
		{Due: sched.Due(1), Send: at(10), Done: at(35), OK: true},
		// Due at 20 ms but the connection is busy until 35: the wait
		// is the server's, and the latency counts it.
		{Due: sched.Due(2), Send: at(35), Done: at(37), OK: true},
		// Due at 30 ms, connection free at 37, sent at 38: 1 ms is the
		// generator's own.
		{Due: sched.Due(3), Send: at(38), Done: at(40), OK: true},
		// Due at 40 ms, sent at 40.5: the generator overslept 0.5 ms.
		{Due: sched.Due(4), Send: at(40.5), Done: at(42), OK: false},
	}
	got := latenciesMS(ops)
	want := []float64{2, 25, 17, 10}
	if len(got) != len(want) {
		t.Fatalf("latencies %v, want %v (failed ops excluded)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies %v, want %v", got, want)
		}
	}
	lag := SenderLag(ops)
	wantLag := []float64{0, 0, 0, 1, 0.5}
	for i := range wantLag {
		if lag[i] != wantLag[i] {
			t.Fatalf("sender lag %v, want %v", lag, wantLag)
		}
	}
	if GeneratorBehind(lag) {
		t.Fatal("a 1 ms oversleep flagged the generator as behind")
	}
	late := make([]float64, 100)
	for i := range late {
		late[i] = 2
	}
	if !GeneratorBehind(late) {
		t.Fatal("a generator 2 ms late on every send was not flagged")
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	// root [0,100): a [10,40) with child a1 [15,25); b [30,60) overlaps a;
	// c [90,120) runs past the root's end.
	spans := []Span{
		{ID: 1, Name: "e2e.req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 20, 3: 10, 4: 30, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	// Properly nested spans sum to the root's duration exactly.
	nested := []Span{
		{ID: 1, Name: "e2e.detect", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "tokenize", Start: 5, End: 50},
		{ID: 3, Parent: 1, Name: "core.coarse", Start: 50, End: 700},
		{ID: 4, Parent: 1, Name: "core.fine", Start: 700, End: 990},
		{ID: 5, Name: "e2e.detect", Start: 2000, End: 2500},
		{ID: 6, Parent: 5, Name: "core.fine", Start: 2100, End: 2400},
	}
	b := Reduce(nested)
	if b.E2E != 1500 || b.Unattributed != 15+200 || b.Self["core.fine"] != 590 {
		t.Fatalf("breakdown %+v", b)
	}
	if b.Attributed()+b.Unattributed != b.E2E {
		t.Fatalf("attributed %v + unattributed %v != end-to-end %v", b.Attributed(), b.Unattributed, b.E2E)
	}
}

func TestTracerRecordsReservedSpans(t *testing.T) {
	var nilTracer *Tracer
	if id := nilTracer.Reserve(); id != 0 {
		t.Fatalf("nil tracer reserved id %d", id)
	}
	nilTracer.Add(0, 0, "x", time.Now(), time.Now()) // must not panic
	tr := NewTracer()
	root := tr.Reserve()
	t0 := time.Now()
	child := tr.Add(root, 7, "net.rtt", t0, t0.Add(time.Millisecond))
	tr.Set(root, 0, 7, "e2e.write", t0, t0.Add(2*time.Millisecond))
	s := tr.Spans()
	if len(s) != 2 || s[0].ID != root || s[0].Name != "e2e.write" || s[1].ID != child || s[1].Parent != root || s[1].Req != 7 {
		t.Fatalf("spans %+v", s)
	}
}

func TestDriftLabelsFollowTheGenerator(t *testing.T) {
	cfg := driftConfig(3)
	gen := datagen.NewDriftStream(cfg)
	noise := 0
	for k := 0; k < 3000; k++ {
		doc := strings.Fields(gen.Doc(k))
		c := driftLabel(cfg, k)
		if c < 0 {
			// Noise: every fifth word is common, the rest are unique
			// to the document.
			noise++
			if !strings.HasPrefix(doc[0], "z") {
				t.Fatalf("doc %d labeled noise: %q", k, doc)
			}
			continue
		}
		if lo, hi := k/cfg.ChurnEvery, k/cfg.ChurnEvery+cfg.Active; c < lo || c >= hi {
			t.Fatalf("doc %d labeled campaign %d outside the active window [%d,%d)", k, c, lo, hi)
		}
		camp := gen.Campaign(c)
		if len(doc) != len(camp.Words) {
			t.Fatalf("doc %d has %d words, campaign %d template %d", k, len(doc), c, len(camp.Words))
		}
		for p, w := range camp.Words {
			if !camp.Wild[p] && doc[p] != w {
				t.Fatalf("doc %d word %d = %q, campaign %d constant %q", k, p, doc[p], c, w)
			}
		}
	}
	if noise < 3000/cfg.NoisePer/2 || noise > 2*3000/cfg.NoisePer {
		t.Fatalf("%d noise docs in 3000, want about 1 in %d", noise, cfg.NoisePer)
	}
}

func TestQualityOnKnownPartition(t *testing.T) {
	pred := []int{0, 0, 1, 1, -1, -1}
	truth := []int{5, 5, 6, 6, -1, -1}
	p, r, ari := quality(pred, truth)
	if p != 1 || r != 1 || ari != 1 {
		t.Fatalf("identical partitions: precision %v recall %v ari %v", p, r, ari)
	}
	pred = []int{0, 0, 0, -1, 3, -1}
	p, r, _ = quality(pred, truth)
	if p != 0.75 || r != 0.75 {
		t.Fatalf("precision %v recall %v, want 0.75 and 0.75", p, r)
	}
}

func TestSleeperWakesAfterDueTime(t *testing.T) {
	s, err := NewSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		due := time.Now().Add(300 * time.Microsecond)
		if err := s.Until(due); err != nil {
			t.Fatal(err)
		}
		if late := time.Since(due); late < 0 || late > 50*time.Millisecond {
			t.Fatalf("woke %v after the due time", late)
		}
	}
	if err := s.Until(time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("past due time: %v", err)
	}
}
