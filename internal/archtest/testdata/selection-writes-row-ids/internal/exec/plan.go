package exec

// orFilter may keep a block-local byte map.
type orFilter struct{ m []uint8 }

func (o *orFilter) mark(m []uint8, ids []int32, lo int) {
	for _, id := range ids {
		m[int(id)-lo] = 1
	}
}

type maskFn func(m []uint8, lo int) // want

func rangeMask(x []int64, lo int64, w uint64) []uint8 { // want
	return nil
}

func storeIDs(dst []int32, x []int64, at int) []int32 { return dst }
