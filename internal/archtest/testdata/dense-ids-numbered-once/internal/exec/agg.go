package exec

type keyAssign struct{ lookupLen int }

func emptyLookup(l []int32) []int32 { return l }

func (ka *keyAssign) firstAppearance() []int32 {
	return emptyLookup(make([]int32, ka.lookupLen))
}

type aggWorker struct{ lookup []int32 }

func (w *aggWorker) runMorsel() {
	lookup := emptyLookup(w.lookup) // want
	_ = lookup
}
