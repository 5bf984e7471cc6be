package exec

import m "math"

func square(x float64) float64 {
	return m.Pow(x, 2) // want
}
