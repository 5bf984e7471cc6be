package core

import "strings"

type Session struct{}

type Subscription struct {
	fold *foldDriver
	sb   strings.Builder
}

// processEpochs re-adds the EPOCHS driver's own push/evict/value/reset
// loop beside the one fold loop, and its own Baseline recompute.
func (sub *Subscription) processEpochs(lo, hi int) [][]float64 {
	if sub.fold == nil {
		return windowTaskValues([]frame{{lo, hi}}) // want
	}
	folds := sub.fold.folds
	vals := make([][]float64, len(folds))
	for i, f := range folds {
		for r := lo; r < hi; r++ {
			f.Push(float64(r)) // want
			f.Evict()          // want
		}
		vals[i] = []float64{f.Value()} // want
		f.Reset()                      // want
	}
	sub.sb.Reset()
	return vals
}
