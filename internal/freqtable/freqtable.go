// Package freqtable provides the linear-probing frequency-counting hash
// table that skew detection uses. CSH counts sampled R keys in it before
// the partition phase (§IV-A step 1); GSH counts sampled tuples of each
// large partition in it after the partition phase (§IV-B step 2: "GSH uses
// a linear probing based hash table to compute the frequencies of sampled
// keys").
package freqtable

import (
	"sort"

	"skewjoin/internal/hashfn"
	"skewjoin/internal/relation"
)

// Counter counts key occurrences with open addressing / linear probing.
// The zero value is not usable; use New.
type Counter struct {
	mask     uint32
	keys     []relation.Key
	counts   []uint32
	occupied []bool
	size     int
}

// New returns a counter sized for about n distinct keys.
func New(n int) *Counter {
	cap := hashfn.NextPow2(n * 2)
	if cap < 8 {
		cap = 8
	}
	return &Counter{
		mask:     uint32(cap - 1),
		keys:     make([]relation.Key, cap),
		counts:   make([]uint32, cap),
		occupied: make([]bool, cap),
	}
}

// Add increments the count of k and returns the new count.
func (c *Counter) Add(k relation.Key) uint32 {
	if c.size*4 >= len(c.keys)*3 {
		c.grow()
	}
	i := hashfn.Mix32(uint32(k)) & c.mask
	for {
		if !c.occupied[i] {
			c.occupied[i] = true
			c.keys[i] = k
			c.counts[i] = 1
			c.size++
			return 1
		}
		if c.keys[i] == k {
			c.counts[i]++
			return c.counts[i]
		}
		i = (i + 1) & c.mask
	}
}

// Count returns the count of k (0 if absent).
func (c *Counter) Count(k relation.Key) uint32 {
	i := hashfn.Mix32(uint32(k)) & c.mask
	for c.occupied[i] {
		if c.keys[i] == k {
			return c.counts[i]
		}
		i = (i + 1) & c.mask
	}
	return 0
}

// Reset empties the counter for reuse and keeps its capacity, grown or
// not. Only occupied slots are ever read, so clearing the occupancy is
// enough.
func (c *Counter) Reset() {
	clear(c.occupied)
	c.size = 0
}

// Distinct returns the number of distinct keys counted.
func (c *Counter) Distinct() int { return c.size }

func (c *Counter) grow() {
	old := *c
	cap := len(old.keys) * 2
	c.mask = uint32(cap - 1)
	c.keys = make([]relation.Key, cap)
	c.counts = make([]uint32, cap)
	c.occupied = make([]bool, cap)
	c.size = 0
	for i, occ := range old.occupied {
		if !occ {
			continue
		}
		// Re-insert with the saved count.
		j := hashfn.Mix32(uint32(old.keys[i])) & c.mask
		for c.occupied[j] {
			j = (j + 1) & c.mask
		}
		c.occupied[j] = true
		c.keys[j] = old.keys[i]
		c.counts[j] = old.counts[i]
		c.size++
	}
}

// Each invokes fn for every (key, count) pair in unspecified order.
func (c *Counter) Each(fn func(k relation.Key, cnt uint32)) {
	for i, occ := range c.occupied {
		if occ {
			fn(c.keys[i], c.counts[i])
		}
	}
}

// KeyCount is a (key, count) pair.
type KeyCount struct {
	Key   relation.Key
	Count uint32
}

// AtLeast returns all keys with count >= threshold, most frequent first
// (ties broken by key for determinism). CSH's skew rule.
func (c *Counter) AtLeast(threshold uint32) []KeyCount {
	var out []KeyCount
	c.Each(func(k relation.Key, cnt uint32) {
		if cnt >= threshold {
			out = append(out, KeyCount{Key: k, Count: cnt})
		}
	})
	sortDesc(out)
	return out
}

// TopK returns the k most frequent keys (fewer if fewer exist), most
// frequent first with deterministic tie-breaking. GSH's skew rule.
func (c *Counter) TopK(k int) []KeyCount {
	all := make([]KeyCount, 0, c.size)
	c.Each(func(key relation.Key, cnt uint32) {
		all = append(all, KeyCount{Key: key, Count: cnt})
	})
	sortDesc(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sortDesc(kcs []KeyCount) {
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].Count != kcs[j].Count {
			return kcs[i].Count > kcs[j].Count
		}
		return kcs[i].Key < kcs[j].Key
	})
}
