// Package cluster turns N coreda-fleet processes into one household
// serving fleet: peers divide the household ring (fleet.SlotOf) between
// them by rendezvous hashing, redirect misdirected node connections to
// the owning peer (wire.Redirect), replicate every tenant checkpoint to
// K replica peers at checkpoint barriers (ReplicatingBackend), and adopt
// a departed peer's tenants from those replicas when membership shrinks
// (RemovePeer). Membership never grows at run time: the cluster starts
// with its full peer list.
//
// The design leans on one rendezvous-hashing property: a slot's replica
// list is its ownership ranking. The owner is the top-ranked peer and
// the replicas are the next K — so when the owner dies, the new owner
// (the next rank) is by construction the first replica and already
// holds every checkpoint blob it needs. Adoption after a crash is a
// local directory scan, never a network fetch, which is what makes
// kill-a-process recovery byte-identical: the survivor restores each
// adopted tenant from its last replicated barrier state and the driver
// redelivers the barrier's events.
//
// Like fleet and parrun, the cluster layer is a sanctioned concurrency
// boundary: peer links and the peer server are wall-clock, socket-bound
// code, while everything tenant-facing stays on fleet shard loops.
package cluster

import (
	"hash/fnv"
	"sort"

	"coreda/internal/fleet"
)

// Ring is an immutable rendezvous-hash assignment of the fleet.Slots
// ring slots to a peer set. Build with NewRing; membership changes make
// a new Ring. Every peer of a cluster builds the identical Ring from
// the identical peer list, so ownership is agreed without coordination.
type Ring struct {
	peers []string
	// rank[s] is the peer indices of slot s ordered by descending
	// rendezvous score: rank[s][0] owns s, rank[s][1:1+k] replicate it.
	rank [][]int16
}

// NewRing builds the assignment for a peer set (addresses; order and
// duplicates do not matter). An empty peer set yields a Ring that owns
// nothing.
func NewRing(peers []string) *Ring {
	uniq := append([]string(nil), peers...)
	sort.Strings(uniq)
	n := 0
	for _, p := range uniq {
		if p == "" || (n > 0 && p == uniq[n-1]) {
			continue
		}
		uniq[n] = p
		n++
	}
	uniq = uniq[:n]

	r := &Ring{peers: uniq, rank: make([][]int16, fleet.Slots)}
	type scored struct {
		score uint64
		idx   int16
	}
	row := make([]scored, len(uniq))
	for s := 0; s < fleet.Slots; s++ {
		for i, p := range uniq {
			row[i] = scored{score: rendezvous(p, s), idx: int16(i)}
		}
		// Ties broken by peer order (addresses are unique, and FNV-64
		// collisions across them are vanishingly rare, but determinism
		// must not hang on "rare").
		sort.Slice(row, func(a, b int) bool {
			if row[a].score != row[b].score {
				return row[a].score > row[b].score
			}
			return row[a].idx < row[b].idx
		})
		ranked := make([]int16, len(row))
		for i := range row {
			ranked[i] = row[i].idx
		}
		r.rank[s] = ranked
	}
	return r
}

// rendezvous scores (peer, slot): the highest score owns the slot. The
// slot goes in FIRST: FNV-1a mixes each input byte through every later
// round, so leading slot bytes are fully diffused by the peer string —
// whereas a trailing slot byte would only perturb the low bits and one
// peer would win every slot.
func rendezvous(peer string, slot int) uint64 {
	h := fnv.New64a()
	h.Write([]byte{byte(slot >> 8), byte(slot), '/'})
	h.Write([]byte(peer))
	return h.Sum64()
}

// Peers returns the sorted peer set (do not modify).
func (r *Ring) Peers() []string { return r.peers }

// Owner returns the peer owning a ring slot ("" with no peers).
func (r *Ring) Owner(slot int) string {
	if len(r.peers) == 0 {
		return ""
	}
	return r.peers[r.rank[slot][0]]
}

// OwnerOf returns the peer owning a household.
func (r *Ring) OwnerOf(household string) string {
	return r.Owner(fleet.SlotOf(household))
}

// Replicas returns the k peers ranked after a slot's owner — the
// checkpoint replica set (fewer when the cluster is smaller than 1+k).
func (r *Ring) Replicas(slot, k int) []string {
	if len(r.peers) == 0 {
		return nil
	}
	ranked := r.rank[slot]
	if k > len(ranked)-1 {
		k = len(ranked) - 1
	}
	out := make([]string, 0, k)
	for _, idx := range ranked[1 : 1+k] {
		out = append(out, r.peers[idx])
	}
	return out
}

// ReplicasOf returns the replica set for a household.
func (r *Ring) ReplicasOf(household string, k int) []string {
	return r.Replicas(fleet.SlotOf(household), k)
}

// SlotsOf returns the slots a peer owns, ascending.
func (r *Ring) SlotsOf(peer string) []int {
	var out []int
	for s := 0; s < fleet.Slots; s++ {
		if r.Owner(s) == peer {
			out = append(out, s)
		}
	}
	return out
}

// Ranges collapses an ascending slot list into inclusive [start, end]
// runs — the shape a RangeClaim frame carries.
func Ranges(slots []int) [][2]int {
	var out [][2]int
	for _, s := range slots {
		if n := len(out); n > 0 && out[n-1][1] == s-1 {
			out[n-1][1] = s
			continue
		}
		out = append(out, [2]int{s, s})
	}
	return out
}
