package shard

import statecache "sudaf/internal/cache"

type InProc struct{ c *statecache.Cache }

func NewInProc() *InProc {
	return &InProc{c: statecache.New(1 << 20)} // want
}
