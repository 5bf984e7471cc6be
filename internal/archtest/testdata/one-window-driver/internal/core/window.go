package core

import "sudaf/internal/window"

type frame struct{ lo, hi int }

type foldDriver struct{ folds []*window.Fold }

func (fd *foldDriver) frames(frames []frame) [][]float64 {
	vals := make([][]float64, len(fd.folds))
	for i, f := range fd.folds {
		f.Reset()
		f.Push(1)
		f.Evict()
		vals[i] = append(vals[i], f.Value())
	}
	return vals
}

func windowTaskValues(frames []frame) [][]float64 { return nil }

func (s *Session) windowValues(fd *foldDriver, frames []frame) [][]float64 {
	if fd == nil {
		return windowTaskValues(frames)
	}
	return fd.frames(frames)
}
