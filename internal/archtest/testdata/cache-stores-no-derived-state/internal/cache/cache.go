package cache

type Cache struct{}

func (c *Cache) storeDerived(fp string) {} // want
