package exec

type Engine struct {
	Workers int
	vec     bool
}

// SetVectorKernels routes scans onto the tuple-at-a-time path.
func (e *Engine) SetVectorKernels(on bool) { e.vec = on } // want

func (e *Engine) setWorkers(n int) { e.Workers = n }
