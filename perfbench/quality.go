package main

import (
	"math/rand"

	"infoshield/internal/datagen"
	"infoshield/internal/metrics"
)

// quality scores predicted templates against generator labels. pred[i]
// is document i's template (-1 for none), truth[i] its campaign (-1 for
// a one-off). A document is flagged when it has a template; precision
// and recall score the flags against the campaign labels, and ARI the
// grouping (every -1 its own singleton on both sides).
func quality(pred, truth []int) (precision, recall, ari float64) {
	p := make([]bool, len(pred))
	t := make([]bool, len(truth))
	for i := range pred {
		p[i] = pred[i] >= 0
		t[i] = truth[i] >= 0
	}
	c := metrics.NewConfusion(p, t)
	return c.Precision(), c.Recall(), metrics.ARI(pred, truth)
}

// driftConfig is the ingest-drift stream, every knob explicit so
// driftLabel can follow the generator's draws.
func driftConfig(seed int64) datagen.DriftConfig {
	return datagen.DriftConfig{
		Seed: seed, Active: 12, ChurnEvery: 384,
		MinLen: 10, MaxLen: 14, Slots: 3, NoisePer: 4,
	}
}

// driftLabel is document k's campaign under cfg, or -1 for noise. It
// makes the same first two draws datagen.DriftStream.Doc makes from the
// same per-document source, which decide exactly that.
func driftLabel(cfg datagen.DriftConfig, k int) int {
	rng := rand.New(rand.NewSource(cfg.Seed*499979 + int64(k)))
	if rng.Intn(cfg.NoisePer) == 0 {
		return -1
	}
	return k/cfg.ChurnEvery + rng.Intn(cfg.Active)
}
