package router

// The ring maps account IDs to backends in two steps: an ID hashes to one
// of a fixed number of slots ((id-1) mod Slots — a round-robin, so dense
// IDs spread uniformly), and the slots are
// partitioned into contiguous ranges, one per backend. Node i owns slots
// [i*Slots/N, (i+1)*Slots/N) and additionally replicates its successor's
// range, so every slot has a primary and (for N > 1) a distinct secondary
// holder. Fixing the slot count independently of the node count is what
// keeps lookups stable: growing the ring slides range boundaries
// monotonically instead of rehashing the whole ID space.

// DefaultSlots is the default ring slot count. It bounds the maximum node
// count and the granularity of range ownership.
const DefaultSlots = 64

// Ring is the pure slot-assignment math: total (every ID maps to a slot,
// every slot to a node), deterministic, and allocation-free after New.
type Ring struct {
	slots int
	nodes int
	// owner[s] is the primary node of slot s; precomputed so lookups are a
	// table read and arbitrary configurations cannot divide by surprise.
	owner []int
}

// NewRing builds the slot table for nodes backends over the given slot
// count. Out-of-range inputs are clamped (at least one slot, at least one
// node, never more nodes than slots), so any configuration yields a total
// lookup instead of a panic.
func NewRing(slots, nodes int) Ring {
	if slots < 1 {
		slots = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	if nodes > slots {
		nodes = slots
	}
	r := Ring{slots: slots, nodes: nodes, owner: make([]int, slots)}
	for i := 0; i < nodes; i++ {
		lo, hi := i*slots/nodes, (i+1)*slots/nodes
		for s := lo; s < hi; s++ {
			r.owner[s] = i
		}
	}
	return r
}

// Slots returns the ring's slot count.
func (r Ring) Slots() int { return r.slots }

// Nodes returns the ring's node count.
func (r Ring) Nodes() int { return r.nodes }

// Slot maps an account ID to its slot. IDs below 1 never occur for real
// accounts but still map totally (into slot 0's congruence class) so a
// malformed request routes deterministically instead of panicking.
func (r Ring) Slot(id int64) int {
	s := (id - 1) % int64(r.slots)
	if s < 0 {
		s += int64(r.slots)
	}
	return int(s)
}

// Owner returns the primary node of a slot (clamped into range, total).
func (r Ring) Owner(slot int) int {
	if slot < 0 || slot >= r.slots {
		slot = ((slot % r.slots) + r.slots) % r.slots
	}
	return r.owner[slot]
}

// Secondary returns the replica holder of a slot: node i replicates its
// successor's primary range, so the range owned by node j is also held by
// node j-1. With one node, primary and secondary coincide and callers must
// skip hedging and failover.
func (r Ring) Secondary(slot int) int {
	return (r.Owner(slot) + r.nodes - 1) % r.nodes
}

// OwnedRange returns node i's primary slot range [lo, hi).
func (r Ring) OwnedRange(node int) (lo, hi int) {
	node = ((node % r.nodes) + r.nodes) % r.nodes
	return node * r.slots / r.nodes, (node + 1) * r.slots / r.nodes
}

// ReplicatedRange returns the slot range [lo, hi) node i holds as a
// replica: its successor's primary range.
func (r Ring) ReplicatedRange(node int) (lo, hi int) {
	return r.OwnedRange(node + 1)
}

// Keep reports whether node holds an ID's heavy state — its own primary
// range plus the range it replicates. This is the predicate twitterd's
// ring flags feed to the range-snapshot loader.
func (r Ring) Keep(node int, id int64) bool {
	s := r.Slot(id)
	if lo, hi := r.OwnedRange(node); s >= lo && s < hi {
		return true
	}
	lo, hi := r.ReplicatedRange(node)
	return s >= lo && s < hi
}
