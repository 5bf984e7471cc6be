package expr

import "math"

func pow(x, y float64) float64 { return math.Pow(x, y) }
