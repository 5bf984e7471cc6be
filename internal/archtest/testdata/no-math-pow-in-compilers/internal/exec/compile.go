package exec

import "math"

func root(x float64) float64 { return math.Sqrt(x) }
