package core

// memo reads the entry's finals straight out of the cache. // want
func memo() {}
