package exec

import "math"

func scalar(name string, x float64) float64 {
	switch name {
	case "cbrt": // want
		return math.Cbrt(x)
	}
	return x
}
