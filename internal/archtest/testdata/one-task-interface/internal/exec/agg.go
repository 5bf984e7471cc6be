package exec

type Task interface {
	Name() string
	Accumulate(s Scratch, p Partial, lo, hi int, ix GroupIndex)
}

// VectorTask is a batch path beside Accumulate.
type VectorTask interface {
	Task                                                             // want
	AccumulateVec(vs VecState, p Partial, lo, hi int, ix GroupIndex) // want
}
