package cache

type Cache struct{ entries map[string]*entry }

type entry struct{ states []float64 }

func (e *entry) AddState(v float64) { e.states = append(e.states, v) }

func (c *Cache) evict() {}

func (c *Cache) StoreAll(fp string, v float64) {
	c.entries[fp].AddState(v)
	c.evict()
}

func (c *Cache) LookupAll(fp string, derived float64) []float64 {
	e := c.entries[fp]
	e.AddState(derived) // want
	return e.states
}
