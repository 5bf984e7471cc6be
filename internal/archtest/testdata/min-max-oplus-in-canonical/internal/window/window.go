package window

import "math"

func fold(acc, v float64) float64 {
	return math.Min(acc, v) // want
}
