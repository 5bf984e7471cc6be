package core

import "sudaf/internal/cache"

func plan(c *cache.Cache, fp string) *cache.Entry {
	look := c.LookupAll(fp)
	return look.Entry
}
