package cache

type Cache struct{ m map[string]*Entry }

type Entry struct{}

type Lookup struct{ Entry *Entry }

func (c *Cache) Entry(fp string) *Entry { return c.m[fp] }

func (c *Cache) LookupAll(fp string) Lookup { return Lookup{Entry: c.Entry(fp)} }
