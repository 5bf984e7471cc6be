package core

import "sudaf/internal/exec"

func open(e *exec.Engine) {
	e.SetVectorKernels(false) // want
}
