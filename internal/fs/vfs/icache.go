package vfs

import (
	"container/list"

	"daxvm/internal/cost"
	"daxvm/internal/sim"
)

// ICache is the VFS inode cache. Volatile DaxVM file tables live exactly
// as long as the cached inode: a cold open rebuilds them, eviction
// destroys them (paper §IV-A1, "Dynamic File Table Management").
type ICache struct {
	fs       FS
	capacity int
	// inodes maps each cached inode number to its element of lru, which
	// holds the cached *Inode values ordered by last use, least recent
	// at the front: an exact LRU, one element per cached inode.
	inodes map[Ino]*list.Element
	lru    list.List
	hooks  *Hooks

	Stats ICacheStats
}

// ICacheStats counts cache behaviour.
type ICacheStats struct {
	Hits      uint64
	ColdLoads uint64
	Evictions uint64
}

// NewICache creates a cache over fs holding at most capacity inodes.
// Capacity bounds the entries, not the storage: the map starts empty and
// grows with what is cached, so a large bound costs nothing until used.
func NewICache(fs FS, capacity int, hooks *Hooks) *ICache {
	return &ICache{
		fs:       fs,
		capacity: capacity,
		inodes:   map[Ino]*list.Element{},
		hooks:    hooks,
	}
}

// Open resolves path and returns a referenced inode, loading it on a cold
// miss (which charges media access).
func (c *ICache) Open(t *sim.Thread, path string) (*Inode, error) {
	ino, err := c.fs.LookupPath(t, path)
	if err != nil {
		return nil, err
	}
	t.Charge(cost.InodeCacheLookup)
	if e, ok := c.inodes[ino]; ok {
		c.Stats.Hits++
		c.lru.MoveToBack(e)
		in := e.Value.(*Inode)
		in.Refs++
		return in, nil
	}
	c.Stats.ColdLoads++
	in, err := c.fs.LoadInode(t, ino)
	if err != nil {
		return nil, err
	}
	c.insert(t, in)
	in.Refs++
	return in, nil
}

// Create makes a new file, caches it and returns it referenced.
func (c *ICache) Create(t *sim.Thread, path string) (*Inode, error) {
	in, err := c.fs.Create(t, path)
	if err != nil {
		return nil, err
	}
	c.insert(t, in)
	in.Refs++
	return in, nil
}

// Put drops a reference. Unreferenced inodes stay cached until evicted
// (or are destroyed immediately when deleted).
func (c *ICache) Put(t *sim.Thread, in *Inode) {
	if in.Refs <= 0 {
		panic("vfs: Put without reference")
	}
	in.Refs--
	if in.Refs == 0 && in.Deleted {
		c.drop(t, in)
		c.fs.PutInode(t, in)
		return
	}
	c.fs.PutInode(t, in)
}

// Get returns the cached inode without loading.
func (c *ICache) Get(ino Ino) (*Inode, bool) {
	if e, ok := c.inodes[ino]; ok {
		return e.Value.(*Inode), true
	}
	return nil, false
}

// Len reports cached inode count.
func (c *ICache) Len() int { return len(c.inodes) }

// insert caches in as the most recently used inode, first evicting
// unreferenced inodes while the cache is full.
func (c *ICache) insert(t *sim.Thread, in *Inode) {
	for len(c.inodes) >= c.capacity {
		if !c.evictOne(t) {
			break // everything referenced
		}
	}
	c.inodes[in.Ino] = c.lru.PushBack(in)
}

// remove forgets the inode cached under ino, if any.
func (c *ICache) remove(ino Ino) {
	if e, ok := c.inodes[ino]; ok {
		c.lru.Remove(e)
		delete(c.inodes, ino)
	}
}

// evictOne evicts the least recently used unreferenced inode, reporting
// false when every cached inode is referenced.
func (c *ICache) evictOne(t *sim.Thread) bool {
	for e := c.lru.Front(); e != nil; e = e.Next() {
		in := e.Value.(*Inode)
		if in.Refs > 0 {
			continue
		}
		c.remove(in.Ino)
		c.Stats.Evictions++
		if c.hooks != nil && c.hooks.OnEvict != nil {
			c.hooks.OnEvict(t, in)
		}
		return true
	}
	return false
}

func (c *ICache) drop(t *sim.Thread, in *Inode) {
	c.remove(in.Ino)
	if c.hooks != nil && c.hooks.OnEvict != nil {
		c.hooks.OnEvict(t, in)
	}
}
