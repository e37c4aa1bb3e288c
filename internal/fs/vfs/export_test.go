package vfs

// LRULen reports the entries on the cache's LRU list.
func (c *ICache) LRULen() int { return c.lru.Len() }
