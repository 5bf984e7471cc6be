package shard

import "sudaf/internal/cache"

var session = cache.New(1 << 20)
