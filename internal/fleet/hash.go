package fleet

import (
	"encoding/binary"
	"hash/fnv"
)

// ShardOf maps a household ID onto one of n shards by FNV-1a hash. The
// mapping depends only on the ID and the shard count, so routing is
// stable across restarts and identical in every process of a cluster.
func ShardOf(household string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(household))
	return int(h.Sum32() % uint32(n))
}

// Slots is the size of the household ring a cluster divides between its
// peer processes: every household hashes onto one of Slots ring slots
// (SlotOf), and internal/cluster assigns each slot an owner and replica
// set by rendezvous hashing. 64 slots keeps the ring's per-slot
// ranking tables tiny while still splitting evenly across the
// single-digit peer counts a cluster runs.
const Slots = 64

// SlotOf maps a household ID onto its ring slot. Like ShardOf the
// mapping depends only on the ID, so every peer of a cluster computes
// the same slot — and therefore the same owner — for a household.
func SlotOf(household string) int {
	h := fnv.New32a()
	h.Write([]byte(household))
	return int(h.Sum32() % Slots)
}

// SeedFor derives a per-household planner seed from a base seed, so each
// tenant explores on its own independent random stream while the whole
// fleet stays reproducible from the one base seed.
func SeedFor(seed int64, household string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(household))
	return int64(h.Sum64())
}
