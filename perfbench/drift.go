package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"infoshield/internal/core"
	"infoshield/internal/datagen"
	"infoshield/internal/serve"
	"infoshield/internal/stream"
)

const (
	// driftShards is S, routed by the default hash route.
	driftShards = 2
	// driftBatch is the documents per ingest request.
	driftBatch = 32
	// driftReqRate sizes the run: requests per measured second, about
	// what one closed-loop client completes on a 2-vCPU box.
	driftReqRate = 250
	// driftReboots is how many crash-recovery boots a run times.
	driftReboots = 5
)

// driftDetector is the durable deployment's detector: incremental
// mining and a lifecycle with cap, TTL and merge on; cap and TTL fire
// on the drift stream, merge never does (one template per campaign).
func driftDetector(workers int) func() *stream.Detector {
	return func() *stream.Detector {
		det := stream.New(core.Options{Workers: workers})
		det.BatchSize = 256
		det.Lifecycle = stream.Lifecycle{MaxTemplates: 24, TTL: 3000, Merge: true, Incremental: true}
		return det
	}
}

// runIngestDrift is the long-running durable deployment: a drifting
// stream ingested in batches over HTTP into two WAL-backed shards, a
// snapshot mid-run, then a crash and a recovery boot.
func runIngestDrift(cfg runConfig, tr *Tracer) (*report, error) {
	r := newReport()
	nReq := int(cfg.seconds * driftReqRate)
	n := nReq * driftBatch
	dcfg := driftConfig(cfg.seed)
	gen := datagen.NewDriftStream(dcfg)
	texts := gen.Docs(0, n)
	truth := make([]int, n)
	for k := range truth {
		truth[k] = driftLabel(dcfg, k)
	}
	walDir := filepath.Join(cfg.dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	statePath := filepath.Join(cfg.dir, "state.json")
	newDet := driftDetector(cfg.workers)
	log := &commitLog{}
	shcfg := serve.ShardedConfig{
		Shards: driftShards, WALDir: walDir, StatePath: statePath,
		NewDetector: newDet,
		Coalescer:   serve.Options{Commit: log.hook},
	}
	sh, err := serve.NewSharded(shcfg)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(sh, tr)
	if err != nil {
		_ = sh.Close() // the listen error is the one to report
		return nil, err
	}
	c := newClient(d.base, tr)
	// crash stops serving and closes the shards with the WALs intact;
	// an early return crashes too.
	crashed := false
	crash := func() error {
		crashed = true
		c.close()
		err := d.stop()
		if cerr := sh.Close(); err == nil {
			err = cerr
		}
		return err
	}
	defer func() {
		if !crashed {
			_ = crash() // an early return already reports its error
		}
	}()

	bodies := make([][]byte, nReq)
	for i := range bodies {
		if bodies[i], err = json.Marshal(map[string][]string{"texts": texts[i*driftBatch : (i+1)*driftBatch]}); err != nil {
			return nil, err
		}
	}
	ops := make([]Op, nReq)
	docOf := make(map[int]int, n) // global id -> stream position
	served := make(map[int]serve.Verdict, n)
	var snapMS float64
	var snapBytes int64
	var rss windowPeaks
	var windowRates []float64
	window := max(1, nReq/rssWindows)
	rss.start()
	start := time.Now()
	for i := range ops {
		if i > 0 && i%window == 0 {
			windowRates = append(windowRates, docsPerSecond(ops[i-window:i]))
			rss.cut()
		}
		if i == nReq/2 {
			t0 := time.Now()
			root := tr.Reserve()
			snapBytes, err = sh.Snapshot(statePath)
			t1 := time.Now()
			snapMS = ms(t1.Sub(t0))
			tr.Add(root, 0, "serve.snapshot", t0, t1)
			tr.Set(root, 0, 0, "e2e.snapshot", t0, t1)
			if err != nil {
				return nil, fmt.Errorf("mid-run snapshot: %w", err)
			}
			log.markFlush()
		}
		req := int64(i + 1)
		root := tr.Reserve()
		var resp struct {
			Docs []serve.Verdict `json:"docs"`
		}
		t0 := time.Now()
		_, err := c.call(http.MethodPost, "/v1/docs", bodies[i], &resp, root, req)
		done := time.Now()
		ok := err == nil && len(resp.Docs) == driftBatch
		ops[i] = Op{Due: t0, Send: t0, Done: done, OK: ok}
		tr.Set(root, 0, req, "e2e.write", t0, done)
		if !ok {
			r.check(false, "request %d: %v", i, err)
			continue
		}
		for j, v := range resp.Docs {
			docOf[v.ID] = i*driftBatch + j
			served[v.ID] = v
		}
	}
	ingest := time.Since(start)
	windowRates = append(windowRates, docsPerSecond(ops[nReq-window:]))
	rss.cut()
	if err := c.flush(); err != nil {
		return nil, err
	}
	log.markFlush()
	st, err := c.stats()
	if err != nil {
		return nil, err
	}
	failed := countFailed(ops)
	r.phase("ingest", nReq, failed)
	r.phase("snapshot", 1, 0)
	r.phase("final-flush", 1, 0)

	// Pre-crash assignments of every acked document, by generation order.
	final := make(map[int]serve.Verdict, len(served))
	pred := make([]int, n)
	shardDocs := make([]int, driftShards)
	campShards := map[int][]int{}
	for k := range pred {
		pred[k] = -1
	}
	for gid, k := range docOf {
		v, err := sh.Assignment(gid)
		if err != nil {
			return nil, err
		}
		final[gid] = v
		pred[k] = v.Template
		shardDocs[gid%driftShards]++
		if truth[k] >= 0 {
			if campShards[truth[k]] == nil {
				campShards[truth[k]] = make([]int, driftShards)
			}
			campShards[truth[k]][gid%driftShards]++
		}
	}

	// Crash, then reboot from the mid-run snapshot plus the WAL tail.
	if err := crash(); err != nil {
		return nil, err
	}
	r.phase("crash", 1, 0)
	hwm, _, err := readManifest(statePath)
	if err != nil {
		return nil, err
	}
	if len(hwm) != driftShards {
		return nil, fmt.Errorf("manifest %s: %d shard marks, want %d", statePath, len(hwm), driftShards)
	}
	shcfg.Coalescer = serve.Options{}
	var boots []float64
	var replayed int64
	var lost int
	for i := 0; i < driftReboots; i++ {
		runtime.GC()
		t0 := time.Now()
		sh2, err := serve.NewSharded(shcfg)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("recovery boot: %w", err)
		}
		boots = append(boots, t1.Sub(t0).Seconds())
		root := tr.Reserve()
		tr.Add(root, 0, "serve.boot", t0, t1)
		tr.Set(root, 0, 0, "e2e.boot", t0, t1)
		if i == 0 {
			if lost, err = checkRecovery(r, sh2, final, hwm); err != nil {
				return nil, err
			}
			rst, err := sh2.Stats()
			if err != nil {
				return nil, err
			}
			for _, ps := range rst.PerShard {
				if ps.WAL != nil {
					replayed += ps.WAL.Replayed
				}
			}
		}
		if err := sh2.Close(); err != nil {
			return nil, err
		}
	}
	r.phase("recovery-boot", driftReboots, 0)

	// Replay each shard's commits into a fresh detector.
	seqs, err := log.perShard(driftShards, func(c commit) (int, bool) {
		for k := 0; k < driftShards; k++ {
			if at, ok := docOf[c.ids[0]*driftShards+k]; ok && texts[at] == c.texts[0] {
				return k, true
			}
		}
		return 0, false
	})
	if err != nil {
		return nil, err
	}
	var rs replayStats
	for k := 0; k < driftShards; k++ {
		det := newDet()
		if err := replayShard(k, driftShards, seqs[k], det, served, tr, &rs); err != nil {
			r.check(false, "%v", err)
			continue
		}
		if err := checkFinal(k, driftShards, det, final); err != nil {
			r.check(false, "%v", err)
		}
		r.phase(fmt.Sprintf("replay-shard%d", k), len(seqs[k]), 0)
	}

	reqMS := latenciesMS(ops)
	lat := NewDist(reqMS)
	tail, pct := WindowedTail(reqMS, 0.99)
	p, rc, ari := quality(pred, truth)
	acked := len(served)
	r.e2e["setup_s"] = NewDist(boots).Median()
	r.e2e["docs_per_s"] = NewDist(windowRates).Median()
	r.e2e["ack_p50_ms"] = lat.Median()
	r.e2e["ack_tail_ms"] = tail
	r.e2e["peak_rss_mb"] = rss.median()
	r.e2e["precision"], r.e2e["recall"], r.e2e["ari"] = p, rc, ari
	r.e2e["ok_rate"] = float64(nReq-failed) / float64(nReq)
	r.printf("ingest-drift: %d docs in %d requests of %d over %d shards, %.2f s; median of %d windows %.0f docs/s",
		n, nReq, driftBatch, driftShards, ingest.Seconds(), len(windowRates), r.e2e["docs_per_s"])
	r.printf("request ack: p50 %.3f ms, p%.1f %.3f ms (median of windows of >=%d requests), n=%d (closed loop, one client)",
		lat.Median(), 100*pct, tail, tailWindow, lat.N())
	r.printf("recovery boot: median %.3f s of %d, %d WAL records replayed", r.e2e["setup_s"], driftReboots, replayed)

	commits, docs := log.counts()
	streamLayer(r, &rs, st, commits, docs)
	var syncs, records, bytes int64
	for _, ps := range st.PerShard {
		if ps.WAL != nil {
			syncs += ps.WAL.Syncs
			records += ps.WAL.Records
			bytes += ps.WAL.Bytes
		}
	}
	r.layer["serve.wal.syncs"] = float64(syncs)
	if syncs > 0 {
		r.layer["serve.wal.records_per_sync"] = float64(records) / float64(syncs)
	}
	if records > 0 {
		r.layer["serve.wal.bytes_per_doc"] = float64(bytes) / float64(records)
	}
	maxDocs, sum := 0, 0
	for _, c := range shardDocs {
		maxDocs = max(maxDocs, c)
		sum += c
	}
	r.layer["serve.shard.load_max_over_mean"] = float64(maxDocs) / (float64(sum) / driftShards)
	maj, campDocs := 0, 0
	for _, per := range campShards {
		m := 0
		for _, c := range per {
			m = max(m, c)
			campDocs += c
		}
		maj += m
	}
	if campDocs > 0 {
		r.layer["serve.shard.colocation"] = float64(maj) / float64(campDocs)
	}
	r.layer["serve.snapshot_ms"] = snapMS
	r.layer["serve.snapshot_bytes"] = float64(snapBytes)
	r.layer["serve.replayed_docs"] = float64(replayed)
	r.layer["serve.recovery.lost_ids"] = float64(lost)
	for _, k := range []string{"serve.wal.syncs", "serve.replayed_docs", "serve.recovery.lost_ids", "serve.shard.load_max_over_mean", "serve.shard.colocation"} {
		r.fingerprint[k] = r.layer[k]
	}
	r.fingerprint["precision"], r.fingerprint["recall"], r.fingerprint["ari"] = p, rc, ari
	r.fingerprint["docs"] = float64(acked)
	r.fingerprint["final_digest"] = float64(digest(pred))
	if tr != nil {
		requestLayers(r, tr.Spans())
	}
	return r, nil
}

// docsPerSecond is a window's acked documents over its span, from the
// first send to the last answer.
func docsPerSecond(w []Op) float64 {
	return float64(len(w)*driftBatch) / w[len(w)-1].Done.Sub(w[0].Send).Seconds()
}

// checkRecovery compares every acked id's assignment after the recovery
// boot with its pre-crash one. Ids at or above their shard's snapshot
// mark are replayed from the WAL and must match exactly. Below the mark
// the snapshot holds templates but, by the stream package's persistence
// contract, not per-document assignments: such an id may come back
// unassigned, which is counted as lost, but never assigned to a
// different template. It returns the number lost.
func checkRecovery(r *report, sh *serve.Sharded, final map[int]serve.Verdict, hwm []int) (lost int, err error) {
	wrong := 0
	for gid, v := range final {
		got, err := sh.Assignment(gid)
		if err != nil {
			return 0, err
		}
		switch {
		case got == v:
		case gid/len(hwm) < hwm[gid%len(hwm)] && got.Template == -1 && !got.Pending:
			lost++
		default:
			wrong++
		}
	}
	r.check(wrong == 0, "after crash recovery %d of %d acked ids resolve to another verdict", wrong, len(final))
	r.printf("crash recovery: %d acked ids checked; %d below the snapshot mark came back without their assignment", len(final), lost)
	return lost, nil
}
