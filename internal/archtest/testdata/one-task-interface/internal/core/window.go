package core

// rowTask is not under internal/exec.
type rowTask interface {
	AccumulateRow(i int32)
}
