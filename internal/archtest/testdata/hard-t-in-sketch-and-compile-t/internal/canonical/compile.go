package canonical

type Form struct {
	HardT func([]float64) (float64, error)
}

func (f *Form) CompileT() func([]float64) (float64, error) {
	return func(st []float64) (float64, error) { return f.HardT(st) }
}
