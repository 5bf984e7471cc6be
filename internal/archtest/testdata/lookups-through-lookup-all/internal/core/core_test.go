package core

import "sudaf/internal/cache"

func peek(c *cache.Cache, fp string) {
	_ = c.Entry(fp) // want
}
