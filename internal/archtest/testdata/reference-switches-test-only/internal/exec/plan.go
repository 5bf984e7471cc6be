package exec

type Engine struct{ vec bool }

// SetVectorKernels toggles the batch kernels. Test-only.
func (e *Engine) SetVectorKernels(on bool) { e.vec = on }
