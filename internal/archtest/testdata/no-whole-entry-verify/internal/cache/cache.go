package cache

type Cache struct{}

func (c *Cache) sweepCorrupt(fp string) int { return 0 } // want
