package main

import (
	"fmt"
	"time"

	"infoshield/internal/serve"
	"infoshield/internal/stream"
)

// replayStats is what a replay of served commits measured.
type replayStats struct {
	matchTime time.Duration // AddBatch calls that did not mine
	matchDocs int
	flushMS   []float64 // calls during which Stats().Flushes advanced
	live      int       // live templates at the end, summed over shards
	stats     stream.Stats
}

// replayShard feeds shard k's recorded commits (of n shards) into det,
// a fresh detector configured like the served one and restored to the
// state the served shard booted from. Each commit is one AddBatch, so
// batch boundaries match the server's; each flush mark is one Flush.
// Every verdict must equal the one the server acked (served, keyed by
// global id). The replay times each call: this is how the stream layer
// is measured from outside the served process.
func replayShard(k, n int, seq []commit, det *stream.Detector, served map[int]serve.Verdict, tr *Tracer, rs *replayStats) error {
	start := time.Now()
	root := tr.Reserve()
	defer func() { tr.Set(root, 0, 0, "e2e.replay", start, time.Now()) }()
	flushes := det.Stats().Flushes
	for _, c := range seq {
		t0 := time.Now()
		var ids []int
		if c.flush {
			det.Flush()
		} else {
			ids = det.AddBatch(c.texts)
		}
		t1 := time.Now()
		mined := det.Stats().Flushes != flushes
		flushes = det.Stats().Flushes
		switch {
		case mined:
			rs.flushMS = append(rs.flushMS, ms(t1.Sub(t0)))
			tr.Add(root, 0, "stream.flush", t0, t1)
		case !c.flush:
			rs.matchTime += t1.Sub(t0)
			rs.matchDocs += len(ids)
			tr.Add(root, 0, "stream.match", t0, t1)
		}
		for j, id := range ids {
			if id != c.ids[j] {
				return fmt.Errorf("replay shard %d: document got id %d, server gave %d", k, id, c.ids[j])
			}
			v, ok := served[id*n+k]
			if !ok {
				return fmt.Errorf("replay shard %d: id %d was committed but never acked", k, id)
			}
			a := det.Assignment(id)
			want := v.Template
			if want >= 0 {
				want /= n
			}
			if a.Template != want || a.Pending != v.Pending {
				return fmt.Errorf("replay shard %d: id %d verdict (%d, pending %v), server acked (%d, pending %v)",
					k, id, a.Template, a.Pending, want, v.Pending)
			}
		}
	}
	rs.live += det.NumLive()
	st := det.Stats()
	rs.stats.Probes += st.Probes
	rs.stats.Examined += st.Examined
	rs.stats.Candidates += st.Candidates
	rs.stats.DPPruned += st.DPPruned
	return nil
}

// checkFinal compares a replayed detector's final assignments for shard
// k against the served ones (global ids, global templates).
func checkFinal(k, n int, det *stream.Detector, final map[int]serve.Verdict) error {
	for gid, v := range final {
		if gid%n != k {
			continue
		}
		a := det.Assignment(gid / n)
		want := v.Template
		if want >= 0 {
			want /= n
		}
		if a.Template != want || a.Pending != v.Pending {
			return fmt.Errorf("final state shard %d: id %d replays to (%d, pending %v), server holds (%d, pending %v)",
				k, gid, a.Template, a.Pending, want, v.Pending)
		}
	}
	return nil
}
