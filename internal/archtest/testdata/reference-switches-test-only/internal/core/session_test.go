package core

import "sudaf/internal/exec"

func reference(e *exec.Engine) { e.SetVectorKernels(false) }
