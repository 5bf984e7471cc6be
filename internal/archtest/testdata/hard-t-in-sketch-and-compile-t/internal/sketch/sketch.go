package sketch

import "sudaf/internal/canonical"

func QuantileForm() *canonical.Form {
	return &canonical.Form{HardT: func(st []float64) (float64, error) { return st[0], nil }}
}
