package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"infoshield"
	"infoshield/internal/core"
	"infoshield/internal/corpus"
	"infoshield/internal/datagen"
	"infoshield/internal/tokenize"
)

const (
	// htScale sizes the batch-ht corpus: 7,863 ads.
	htScale = 0.05
	// setupReps is how many times a millisecond-scale set-up is repeated
	// to report its median.
	setupReps = 25
	// passesPerSecond sets the number of timed Detect passes from
	// --seconds alone, so a faster program is compared on the same
	// percentile as its parent: 20 passes for 30 s, ~18 s of warm
	// Detect on a 2-vCPU Xeon.
	passesPerSecond = 2.0 / 3
	// minPasses is the fewest timed Detect passes a run makes.
	minPasses = 3
	// tracedPasses is the fixed number of decomposed passes a traced run
	// times, so its span totals compare across runs.
	tracedPasses = 5
)

// runBatchHT is the analyst's batch path: read an ad corpus, then run
// Detect over it in a warm process, again and again.
func runBatchHT(cfg runConfig, tr *Tracer) (*report, error) {
	r := newReport()
	gen := datagen.ClusterTrafficking(datagen.ClusterTraffickingConfig{Seed: cfg.seed, Scale: htScale})
	path := filepath.Join(cfg.dir, "ht.jsonl")
	if err := writeJSONL(path, gen); err != nil {
		return nil, err
	}

	// Set-up: load the corpus the way the CLI does.
	var c *corpus.Corpus
	var reads []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = readJSONL(path); err != nil {
			return nil, err
		}
		reads = append(reads, since(t0))
	}
	r.phase("read-corpus", setupReps, 0)
	texts := c.Texts()
	truth := make([]int, len(c.Docs))
	for i, d := range c.Docs {
		truth[i] = d.ClusterLabel
	}

	opt := infoshield.Config{Workers: cfg.workers}
	ref := infoshield.Detect(texts, opt) // warm-up pass and the reference output
	want := digest(ref.DocTemplate())

	// The decomposition times the layers from outside; run it once here
	// so every run checks it against Detect, traced or not.
	dec := decomposedDetect(texts, cfg.workers, nil, 0)
	r.check(digest(dec.docTemplate) == want, "decomposed Detect differs from Detect")

	var passMS []float64
	var rss windowPeaks
	failed := 0
	passes := max(minPasses, int(cfg.seconds*passesPerSecond))
	if tr != nil {
		passes = tracedPasses
	}
	for i := 0; i < passes; i++ {
		rss.start() // collects, so every pass starts from the same heap
		t0 := time.Now()
		var got []int
		if tr == nil {
			got = infoshield.Detect(texts, opt).DocTemplate()
		} else {
			got = decomposedDetect(texts, cfg.workers, tr, tr.Reserve()).docTemplate
		}
		passMS = append(passMS, ms(time.Since(t0)))
		rss.cut()
		if digest(got) != want {
			failed++
		}
	}
	r.phase("detect-pass", len(passMS), failed)
	r.check(failed == 0, "%d of %d Detect passes differ from the first", failed, len(passMS))

	pass := NewDist(passMS)
	tail, pct := pass.Tail(0.99)
	p, rc, ari := quality(ref.DocTemplate(), truth)
	r.e2e["setup_s"] = NewDist(reads).Median()
	r.e2e["docs_per_s"] = float64(len(texts)) / (pass.Median() / 1000)
	r.e2e["ack_p50_ms"] = pass.Median()
	r.e2e["ack_tail_ms"] = tail
	r.e2e["peak_rss_mb"] = rss.median()
	r.e2e["precision"], r.e2e["recall"], r.e2e["ari"] = p, rc, ari
	r.e2e["ok_rate"] = float64(len(passMS)-failed) / float64(len(passMS))
	r.printf("batch-ht: %d docs, %d templates, %d coarse clusters holding %d docs", len(texts), ref.NumTemplates(), dec.clusters, dec.clusterDocs)
	r.printf("detect pass: median %.1f ms, p%.0f %.1f ms over n=%d passes", pass.Median(), 100*pct, tail, pass.N())

	r.fingerprint["docs"] = float64(len(texts))
	r.fingerprint["templates"] = float64(ref.NumTemplates())
	r.fingerprint["doc_template_digest"] = float64(want)
	r.fingerprint["precision"], r.fingerprint["recall"], r.fingerprint["ari"] = p, rc, ari
	r.fingerprint["core.coarse.clusters"] = float64(dec.clusters)
	r.fingerprint["core.coarse.docs"] = float64(dec.clusterDocs)
	r.fingerprint["core.fine.templates"] = float64(dec.templates)

	r.layer["core.coarse.clusters"] = float64(dec.clusters)
	r.layer["core.coarse.docs"] = float64(dec.clusterDocs)
	r.layer["core.fine.templates"] = float64(dec.templates)
	if dec.clusterDocs > 0 {
		r.layer["core.fine.yield"] = float64(dec.encoded) / float64(dec.clusterDocs)
	}
	if tr != nil {
		b := Reduce(tr.Spans())
		r.layer["tokenize.busy_ms"] = ms(b.Self["tokenize"])
		r.layer["core.coarse.busy_ms"] = ms(b.Self["core.coarse"])
		r.layer["core.fine.busy_ms"] = ms(b.Self["core.fine"])
	}
	return r, nil
}

// decomposition is one Detect pass rebuilt from core's public stages.
type decomposition struct {
	docTemplate           []int
	clusters, clusterDocs int
	templates, encoded    int
}

// decomposedDetect runs Detect's stages one by one through their public
// entry points — tokenize, core.Coarse, core.Refine — timing each as a
// span under root, and assembles DocTemplate the way Detect does:
// templates numbered in cluster order, clusters without templates
// skipped. core.Coarse encodes its own vocabulary, which the tracing
// overhead then includes.
func decomposedDetect(texts []string, workers int, tr *Tracer, root int64) decomposition {
	start := time.Now()
	opt := core.Options{Workers: workers}
	var tk tokenize.Tokenizer
	t0 := time.Now()
	words := tk.All(texts, workers)
	vocab := tokenize.NewVocab()
	tokens := make([][]int, len(words))
	for i, w := range words {
		tokens[i] = vocab.Encode(w)
	}
	t1 := time.Now()
	tr.Add(root, 0, "tokenize", t0, t1)
	clusters, top := core.Coarse(words, opt)
	t2 := time.Now()
	tr.Add(root, 0, "core.coarse", t1, t2)
	refined, _ := core.Refine(clusters, tokens, top, vocab.Size(), opt)
	t3 := time.Now()
	tr.Add(root, 0, "core.fine", t2, t3)

	d := decomposition{docTemplate: make([]int, len(texts)), clusters: len(clusters)}
	for i := range d.docTemplate {
		d.docTemplate[i] = -1
	}
	for _, c := range clusters {
		d.clusterDocs += len(c)
	}
	for _, templates := range refined {
		for _, t := range templates {
			for _, doc := range t.Docs {
				d.docTemplate[doc] = d.templates
			}
			d.encoded += len(t.Docs)
			d.templates++
		}
	}
	if tr != nil {
		tr.Set(root, 0, 0, "e2e.detect", start, time.Now())
	}
	return d
}

// digest hashes an int slice.
func digest(xs []int) uint32 {
	h := fnv.New32a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum32()
}

func writeJSONL(path string, c *corpus.Corpus) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = c.WriteJSONL(w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func readJSONL(path string) (*corpus.Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return corpus.ReadJSONL(bufio.NewReader(f))
}
