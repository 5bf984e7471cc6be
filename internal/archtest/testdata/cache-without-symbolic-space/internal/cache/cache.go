package cache

import (
	"sudaf/internal/canonical"
	"sudaf/internal/symbolic" // want
)

var _ canonical.State
var _ symbolic.Space
