package exec

type matcher func(row int32) bool // want

func readInPlace(rows []int32) bool { return len(rows) == 0 }

func selected(mask []uint8, row int32) bool { return mask[row] == 1 }
