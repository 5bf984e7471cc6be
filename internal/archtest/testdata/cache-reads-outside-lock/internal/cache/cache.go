package cache

import "sync"

type Cache struct {
	mu      sync.Mutex
	entries map[string][]float64

	evMu   sync.Mutex
	events []string
}

func ChecksumVals(vals []float64) (sum uint64) {
	for _, v := range vals {
		sum += uint64(v)
	}
	return sum
}

// entry holds the lock to fetch, and reads nothing.
func (c *Cache) entry(fp string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[fp]
}

// LookupAll verifies what it serves outside the lock, and may record an
// event under the events mutex.
func (c *Cache) LookupAll(fp string, sum uint64) []float64 {
	vals := c.entry(fp)
	if ChecksumVals(vals) != sum {
		c.evMu.Lock()
		defer c.evMu.Unlock()
		c.events = append(c.events, fp)
		return nil
	}
	return vals
}

// Probe verifies under the lock.
func (c *Cache) Probe(fp string, sum uint64) bool {
	c.mu.Lock()         // want
	defer c.mu.Unlock() // want
	return ChecksumVals(c.entries[fp]) == sum
}
