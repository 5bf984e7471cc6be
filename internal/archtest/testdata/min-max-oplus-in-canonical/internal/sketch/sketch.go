package sketch

import "math"

func clamp(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
