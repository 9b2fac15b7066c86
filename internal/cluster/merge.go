package cluster

import (
	"sort"

	"skewjoin/internal/relation"
	"skewjoin/internal/service"
)

// Partial is the merge-relevant slice of one shard call's join response.
// A fleet join produces one Partial per (shard, fragment-pair) call; Merge
// folds them into the single-node-equivalent totals.
type Partial struct {
	Matches  uint64
	Checksum uint64
	Rows     *uint64
	// Counts are per-key output counts: every group of a "groups" call,
	// or the exact local top-k of a "topk" call.
	Counts []service.KeyWeight
}

// PartialOf extracts the mergeable fields from a shard join response.
func PartialOf(r service.JoinResponse) Partial {
	counts := r.Groups
	if r.TopKeys != nil {
		counts = r.TopKeys
	}
	return Partial{Matches: r.Matches, Checksum: r.Checksum, Rows: r.Rows, Counts: counts}
}

// Merged is one fleet join's single-node-equivalent totals.
type Merged struct {
	Matches  uint64
	Checksum uint64
	Rows     *uint64
	// Counts sums the partials' per-key counts; nil when none had any.
	Counts map[relation.Key]uint64
}

// Merge combines the partials of one fleet join. The fragment pairs
// partition the match set — every (r-tuple, s-tuple) match has equal keys,
// so it appears in exactly one cold hash-fragment join or exactly one
// replicated×split hot call — which makes matches, the order-independent
// checksum, and streamed row counts plain sums (the checksum wraps mod
// 2^64 exactly as the single-node accumulation does). Per-key counts add
// by key.
//
// For topk the partials are candidates, not every group: each cold call's
// exact local top-k, and each hot call's groups (at most one per hot key).
// volcano.SelectTop over their sum is the exact global top-k. A hot key
// is excluded from every cold call, so its sum over the hot calls is its
// whole count. A cold key's tuples all live on its one owner shard, so
// its local count is its global count. And a cold key that missed its
// shard's local top-k has k keys there that rank above it in the same
// order (heavier, or as heavy and smaller), with the same counts fleet
// wide, so it cannot be in the global top-k either.
func Merge(parts []Partial) Merged {
	var out Merged
	var rows uint64
	haveRows := false
	for _, p := range parts {
		out.Matches += p.Matches
		out.Checksum += p.Checksum
		if p.Rows != nil {
			haveRows = true
			rows += *p.Rows
		}
		if len(p.Counts) > 0 && out.Counts == nil {
			out.Counts = make(map[relation.Key]uint64)
		}
		for _, c := range p.Counts {
			out.Counts[relation.Key(c.Key)] += c.Weight
		}
	}
	if haveRows {
		out.Rows = &rows
	}
	return out
}

// sortedGroups lists counts in the ascending-key order the service emits.
func sortedGroups(counts map[relation.Key]uint64) []service.KeyWeight {
	keys := make([]relation.Key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]service.KeyWeight, 0, len(keys))
	for _, k := range keys {
		out = append(out, service.KeyWeight{Key: uint32(k), Weight: counts[k]})
	}
	return out
}
