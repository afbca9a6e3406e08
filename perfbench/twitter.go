package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/serve"
	"infoshield/internal/stream"
)

const (
	// twWarmDocs is the stream prefix ingested (untimed) and snapshotted
	// before the timed boot.
	twWarmDocs = 20000
	// twWriteRate is the open-loop single-document write rate, docs/s:
	// about half the ~1,600 docs/s one writer connection sustains
	// closed-loop beside the reader on a 2-vCPU Xeon.
	twWriteRate = 800
	// twReadRate is the open-loop read rate on the second connection.
	twReadRate = 500
	// readDelay starts the reads after the writes, so that the first read
	// finds a served document acked.
	readDelay = 10 * time.Millisecond
	// rssWindows is how many windows a served phase is cut into for the
	// resident-set peak.
	rssWindows = 10
	// twTweetsMean is the mean tweets per account of datagen.Twitter's
	// default 5..40; twitterStream sizes the account count from it.
	twTweetsMean = 22
)

// twitterDetector is the monitor's detector: incremental mining, so a
// campaign whose tweets trickle in across many mining passes still
// assembles, over a 120-document buffer: a 30 s run then holds over 100
// mining flushes.
func twitterDetector(workers int) func() *stream.Detector {
	return func() *stream.Detector {
		det := stream.New(core.Options{Workers: workers})
		det.BatchSize = 120
		det.Lifecycle = stream.Lifecycle{Incremental: true}
		return det
	}
}

// twitterStream generates a shuffled four-language Twitter stream, half
// genuine accounts, with at least n documents.
func twitterStream(seed int64, n int) (texts []string, truth []int) {
	accounts := (n/twTweetsMean + 1) * 11 / 10 / 2
	for {
		c := datagen.Twitter(datagen.TwitterConfig{Seed: seed, GenuineAccounts: accounts, BotAccounts: accounts})
		if c.Len() >= n {
			texts = c.Texts()[:n]
			truth = make([]int, n)
			for i := range truth {
				truth[i] = c.Docs[i].ClusterLabel
			}
			return texts, truth
		}
		accounts += accounts/10 + 1
	}
}

// runServeTwitter is the daemon as a live monitor: boot from a snapshot,
// then serve a Twitter stream one document per request at a fixed rate
// while a second connection reads verdicts back.
func runServeTwitter(cfg runConfig, tr *Tracer) (*report, error) {
	r := newReport()
	nServe := int(cfg.seconds * twWriteRate)
	texts, truth := twitterStream(cfg.seed, twWarmDocs+nServe)
	newDet := twitterDetector(cfg.workers)
	statePath := filepath.Join(cfg.dir, "state.json")

	// Warm-up: ingest the prefix and snapshot it.
	warm, err := serve.NewSharded(serve.ShardedConfig{NewDetector: newDet})
	if err != nil {
		return nil, err
	}
	defer warm.Close() // a second Close is a no-op
	for lo := 0; lo < twWarmDocs; lo += 512 {
		if _, err := warm.Submit(texts[lo:min(lo+512, twWarmDocs)]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	t0 := time.Now()
	snapBytes, err := warm.Snapshot(statePath)
	t1 := time.Now()
	snapMS := ms(t1.Sub(t0))
	root := tr.Reserve()
	tr.Add(root, 0, "serve.snapshot", t0, t1)
	tr.Set(root, 0, 0, "e2e.snapshot", t0, t1)
	if err != nil {
		return nil, fmt.Errorf("warm-up snapshot: %w", err)
	}
	if err := warm.Close(); err != nil {
		return nil, err
	}
	r.phase("warm-up", twWarmDocs, 0)

	// Timed boot, repeated; the last instance serves.
	log := &commitLog{}
	var sh *serve.Sharded
	var boots []float64
	for i := 0; i < setupReps; i++ {
		if sh != nil {
			if err := sh.Close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		sh, err = serve.NewSharded(serve.ShardedConfig{
			StatePath:   statePath,
			NewDetector: newDet,
			Coalescer:   serve.Options{Commit: log.hook},
		})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, t1.Sub(t0).Seconds())
		root := tr.Reserve()
		tr.Add(root, 0, "serve.boot", t0, t1)
		tr.Set(root, 0, 0, "e2e.boot", t0, t1)
	}
	r.phase("boot", setupReps, 0)

	defer sh.Close()

	d, err := startDaemon(sh, tr)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Writes and reads, open loop, one connection each.
	bodies := make([][]byte, nServe)
	for i := range bodies {
		if bodies[i], err = json.Marshal(map[string]string{"text": texts[twWarmDocs+i]}); err != nil {
			return nil, err
		}
	}
	writer, reader := newClient(d.base, tr), newClient(d.base, tr)
	defer writer.close()
	defer reader.close()
	// Reads ask for served ids only: the booted daemon no longer knows
	// the warm-up documents' assignments, because snapshots keep
	// templates but not per-document assignments.
	var acked atomic.Int64
	firstAck := make(chan struct{})
	var ackOnce sync.Once
	wsched := OpenLoop{Start: time.Now().Add(10 * time.Millisecond), Interval: time.Second / twWriteRate}
	rsched := OpenLoop{Start: wsched.Start.Add(readDelay), Interval: time.Second / twReadRate}
	nRead := int(float64(nServe) * twReadRate / twWriteRate)

	wops := make([]Op, nServe)
	verdicts := make([]serve.Verdict, nServe)
	rops := make([]Op, nRead)
	wsleep, err := NewSleeper()
	if err != nil {
		return nil, err
	}
	defer wsleep.Close()
	rsleep, err := NewSleeper()
	if err != nil {
		return nil, err
	}
	defer rsleep.Close()
	var sleepErr [2]error // writer's, reader's
	var rss windowPeaks
	window := max(1, nServe/rssWindows)
	rss.start()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range wops {
			due := wsched.Due(i)
			if err := wsleep.Until(due); err != nil {
				sleepErr[0] = fmt.Errorf("timer: %w", err)
				return
			}
			if i > 0 && i%window == 0 {
				rss.cut()
			}
			req := int64(i + 1)
			root := tr.Reserve()
			send, err := writer.call(http.MethodPost, "/v1/docs", bodies[i], &verdicts[i], root, req)
			done := time.Now()
			wops[i] = Op{Due: due, Send: send, Done: done, OK: err == nil && verdicts[i].ID == twWarmDocs+i}
			if err == nil {
				acked.Store(int64(verdicts[i].ID))
				ackOnce.Do(func() { close(firstAck) })
			}
			tr.Add(root, req, "loadgen.queue", due, send)
			tr.Set(root, 0, req, "e2e.write", due, done)
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed))
		select {
		case <-firstAck:
		case <-time.After(time.Until(rsched.Due(0)) + time.Second):
			sleepErr[1] = fmt.Errorf("no write acked within %v of the first read's due time", time.Second)
			return
		}
		for j := range rops {
			due := rsched.Due(j)
			if err := rsleep.Until(due); err != nil {
				sleepErr[1] = fmt.Errorf("timer: %w", err)
				return
			}
			id := twWarmDocs + rng.Int63n(acked.Load()-twWarmDocs+1)
			req := -int64(j + 1)
			root := tr.Reserve()
			var a struct {
				ID int `json:"id"`
			}
			send, err := reader.call(http.MethodGet, "/v1/assignments/"+strconv.FormatInt(id, 10), nil, &a, root, req)
			done := time.Now()
			rops[j] = Op{Due: due, Send: send, Done: done, OK: err == nil && int64(a.ID) == id}
			tr.Add(root, req, "loadgen.queue", due, send)
			tr.Set(root, 0, req, "e2e.read", due, done)
		}
	}()
	wg.Wait()
	phaseEnd := time.Now()
	rss.cut()
	for _, err := range sleepErr {
		if err != nil {
			return nil, fmt.Errorf("generator: %w", err)
		}
	}

	ctl := newClient(d.base, nil)
	defer ctl.close()
	if err := ctl.flush(); err != nil {
		return nil, err
	}
	log.markFlush()
	st, err := ctl.stats()
	if err != nil {
		return nil, err
	}

	wfail, rfail := countFailed(wops), countFailed(rops)
	r.phase("write", nServe, wfail)
	r.phase("read", nRead, rfail)
	r.phase("final-flush", 1, 0)

	// Final assignments of every document the server has seen. Quality
	// is scored on the served documents: the booted daemon reports the
	// warm-up documents as unassigned, since the snapshot it booted from
	// does not keep their assignments.
	total := twWarmDocs + nServe
	final := make(map[int]serve.Verdict, total)
	pred := make([]int, nServe)
	for id := 0; id < total; id++ {
		v, err := sh.Assignment(id)
		if err != nil {
			return nil, err
		}
		final[id] = v
		if id >= twWarmDocs {
			pred[id-twWarmDocs] = v.Template
		}
	}

	// Replay the served commits from the snapshot the server booted from.
	served := make(map[int]serve.Verdict, nServe)
	for i, v := range verdicts {
		if wops[i].OK {
			served[v.ID] = v
		}
	}
	det := newDet()
	if err := loadShardState(statePath, 0, det); err != nil {
		return nil, err
	}
	var rs replayStats
	seqs, err := log.perShard(1, func(commit) (int, bool) { return 0, true })
	if err != nil {
		return nil, err
	}
	if err := replayShard(0, 1, seqs[0], det, served, tr, &rs); err != nil {
		r.check(false, "%v", err)
	} else if err := checkFinal(0, 1, det, final); err != nil {
		r.check(false, "%v", err)
	}
	r.phase("replay", len(seqs[0]), 0)

	// End-to-end metrics.
	wms, rms := latenciesMS(wops), latenciesMS(rops)
	lat, rlat := NewDist(wms), NewDist(rms)
	tail, pct := WindowedTail(wms, 0.99)
	rtail, rpct := WindowedTail(rms, 0.99)
	wholeTail, wholePct := lat.Tail(0.99)
	p, rc, ari := quality(pred, truth[twWarmDocs:])
	r.e2e["setup_s"] = NewDist(boots).Median()
	r.e2e["docs_per_s"] = float64(nServe-wfail) / phaseEnd.Sub(wsched.Start).Seconds()
	r.e2e["ack_p50_ms"] = lat.Median()
	r.e2e["ack_tail_ms"] = tail
	r.e2e["peak_rss_mb"] = rss.median()
	r.e2e["precision"], r.e2e["recall"], r.e2e["ari"] = p, rc, ari
	r.e2e["ok_rate"] = float64(nServe+nRead-wfail-rfail) / float64(nServe+nRead)
	r.printf("serve-twitter: %d warm-up + %d served docs, %d live templates at the end", twWarmDocs, nServe, rs.live)
	r.printf("write ack (from due time): p50 %.3f ms, p%.1f %.3f ms (median of windows of %d; whole run p%.1f %.3f ms), n=%d at %d docs/s offered",
		lat.Median(), 100*pct, tail, tailWindow, 100*wholePct, wholeTail, lat.N(), twWriteRate)
	r.printf("read (from due time):      p50 %.3f ms, p%.1f %.3f ms (median of windows of %d), n=%d at %d reads/s offered",
		rlat.Median(), 100*rpct, rtail, tailWindow, rlat.N(), twReadRate)
	generatorHonesty(r, "write", wops)
	generatorHonesty(r, "read", rops)

	commits, docs := log.counts()
	streamLayer(r, &rs, st, commits, docs)
	r.layer["serve.snapshot_ms"] = snapMS
	r.layer["serve.snapshot_bytes"] = float64(snapBytes)
	r.layer["serve.shard.load_max_over_mean"] = 1
	r.layer["serve.shard.colocation"] = 1
	r.fingerprint["precision"], r.fingerprint["recall"], r.fingerprint["ari"] = p, rc, ari
	r.fingerprint["docs"] = float64(total)
	r.fingerprint["final_digest"] = float64(digest(pred))
	if tr != nil {
		requestLayers(r, tr.Spans())
	}
	return r, nil
}

func countFailed(ops []Op) int {
	n := 0
	for _, o := range ops {
		if !o.OK {
			n++
		}
	}
	return n
}

// generatorHonesty reports how late the generator itself sent, and
// fails the run when the generator fell behind its schedule.
func generatorHonesty(r *report, name string, ops []Op) {
	lag := SenderLag(ops)
	behind := GeneratorBehind(lag)
	d := NewDist(lag)
	tail, pct := d.Tail(0.99)
	r.printf("%s generator own lateness: p50 %.3f ms, p%.1f %.3f ms, mean %.3f ms; fell behind: %v",
		name, d.Median(), 100*pct, tail, d.Sum()/float64(max(d.N(), 1)), behind)
	r.check(!behind, "%s generator fell behind its schedule: the run is invalid", name)
}

// streamLayer fills the stream and coalescer metrics shared by the
// served workloads from the replay, the commit log and /v1/stats.
func streamLayer(r *report, rs *replayStats, st serve.ShardedStats, commits, docs int) {
	r.layer["serve.commits"] = float64(commits)
	if commits > 0 {
		r.layer["serve.batch_docs"] = float64(docs) / float64(commits)
	}
	if rs.matchDocs > 0 {
		r.layer["stream.match_us_per_doc"] = float64(rs.matchTime.Microseconds()) / float64(rs.matchDocs)
	}
	fl := NewDist(rs.flushMS)
	r.layer["stream.flushes"] = float64(fl.N())
	if fl.N() > 0 {
		r.layer["stream.flush_p50_ms"] = fl.Median()
		r.layer["stream.flush_p99_ms"], _ = fl.Tail(0.99)
		r.layer["stream.flush.busy_ms"] = fl.Sum()
	}
	r.layer["stream.templates_live"] = float64(rs.live)
	if rs.stats.Probes > 0 {
		r.layer["stream.cand_per_probe"] = float64(rs.stats.Examined) / float64(rs.stats.Probes)
	}
	if rs.stats.Candidates > 0 {
		r.layer["stream.dp_skip_rate"] = float64(rs.stats.DPPruned) / float64(rs.stats.Candidates)
	}
	lc := st.Total.Lifecycle
	r.layer["stream.mine_reuse_rate"] = lc.ReuseRate
	r.layer["stream.lifecycle.evicted"] = float64(lc.Evicted)
	r.layer["stream.lifecycle.merged"] = float64(lc.Merged)
	r.layer["stream.lifecycle.aged"] = float64(lc.AgedOut)
	_, pct := fl.Tail(0.99)
	r.printf("stream (replay): %d flushes, p50 %.1f ms, p%.0f %.1f ms; match %.1f us/doc over %d docs",
		fl.N(), r.layer["stream.flush_p50_ms"], 100*pct, r.layer["stream.flush_p99_ms"], r.layer["stream.match_us_per_doc"], rs.matchDocs)
	for _, k := range []string{"serve.commits", "stream.flushes", "stream.templates_live", "stream.lifecycle.evicted", "stream.lifecycle.merged", "stream.lifecycle.aged"} {
		r.fingerprint[k] = r.layer[k]
	}
}

// requestLayers derives the per-request layer metrics from the spans of
// a traced served run.
func requestLayers(r *report, spans []Span) {
	self := SelfTimes(spans)
	var netSelf time.Duration
	var nReq int
	var handler, readHandler []float64
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "net.rtt":
			if s.Req > 0 {
				netSelf += self[s.ID]
				nReq++
			}
		case "serve.handler":
			handler = append(handler, ms(d))
		case "serve.read_handler":
			readHandler = append(readHandler, ms(d))
		}
	}
	if nReq > 0 {
		r.layer["net.self_ms_per_req"] = ms(netSelf) / float64(nReq)
	}
	h, rh := NewDist(handler), NewDist(readHandler)
	if h.N() > 0 {
		r.layer["serve.handler_p50_ms"] = h.Median()
		r.layer["serve.handler_p99_ms"], _ = h.Tail(0.99)
	}
	if rh.N() > 0 {
		r.layer["serve.read_handler_p99_ms"], _ = rh.Tail(0.99)
	}
}

// readManifest reads the per-shard high-water marks and state files of
// the snapshot manifest at path.
func readManifest(path string) (hwm []int, files []string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var man struct {
		HWM   []int    `json:"hwm"`
		Files []string `json:"files"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return man.HWM, man.Files, nil
}

// loadShardState restores shard k's state from the snapshot manifest
// at path into det, rebased to the snapshot's high-water mark — what
// serve.NewSharded does at boot.
func loadShardState(path string, k int, det *stream.Detector) error {
	hwm, files, err := readManifest(path)
	if err != nil {
		return err
	}
	if k >= len(files) || k >= len(hwm) {
		return fmt.Errorf("manifest %s: no shard %d", path, k)
	}
	f, err := os.Open(filepath.Join(filepath.Dir(path), files[k]))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := det.Load(f); err != nil {
		return err
	}
	return det.SetNextID(hwm[k])
}
