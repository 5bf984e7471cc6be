package core

import "sudaf/internal/canonical"

func finish(form *canonical.Form, st []float64) (float64, error) {
	return form.HardT(st) // want
}
