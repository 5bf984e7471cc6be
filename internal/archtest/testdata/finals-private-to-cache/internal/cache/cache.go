package cache

type entry struct {
	finals [][]float64
}
