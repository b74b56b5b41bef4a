// Package fabric scales shard groups across processes: a consistent-hash
// ring places key ranges on rpc nodes, a client-side Router routes keyed
// calls to the owning node over the wire transport, and a per-key handoff
// protocol moves keys between nodes during live resharding without
// breaking per-key FIFO or at-most-once (docs/FABRIC.md).
//
// The layering extends the in-process story one level up:
//
//	core.Object   — one manager, per-object FIFO (the paper's model)
//	shard.Group   — N objects behind one name, per-key FIFO (PR 4)
//	fabric        — M nodes behind one ring, per-key FIFO across processes
package fabric

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultVNodes is the virtual-node count per member when a spec does not
// say otherwise. 128 points per member keeps the keyspace balanced within
// ~15% of fair share (see TestRingBalance) at the cost of a few KiB of
// sorted points.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash placement: an epoch-numbered
// member set projected onto the hash circle as vnodes*64 fixed, equal
// virtual-node strata, each stratum assigned to the member winning a
// seeded rendezvous draw (highest mix(stratum, member) score; ties broken
// by member id). Keys hash onto the circle and belong to their stratum's
// member.
//
// Fixing the strata and letting rendezvous pick the owner keeps all three
// placement properties at once: the assignment is a pure function of
// (epoch is advisory, seed, vnodes, members) so every process computes the
// identical ring; adding a member reassigns exactly the strata the new
// member wins — ~1/(N+1) of the keyspace, never a key between two
// surviving members; and each member's share concentrates tightly around
// fair (relative deviation ~sqrt(members/strata), a few percent at the
// default 8192 strata) where classic random-point rings at 128 points per
// member routinely drift past 15%.
type Ring struct {
	epoch  uint64
	seed   uint64
	vnodes int

	members []string          // sorted ids
	addrs   map[string]string // id -> advertised address

	owners []int // stratum index -> member index
}

// strataPerVNode scales the vnodes knob into the fixed stratum count; at
// DefaultVNodes the circle has 8192 strata.
const strataPerVNode = 64

// NewRing builds a ring. members maps member id to advertised address;
// vnodes <= 0 selects DefaultVNodes. The same (epoch, seed, vnodes,
// members) always yields the identical placement on every process.
func NewRing(epoch, seed uint64, vnodes int, members map[string]string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fabric: ring epoch %d has no members", epoch)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		epoch:  epoch,
		seed:   seed,
		vnodes: vnodes,
		addrs:  make(map[string]string, len(members)),
	}
	for id, addr := range members {
		if id == "" || addr == "" {
			return nil, fmt.Errorf("fabric: ring epoch %d: empty member id or address", epoch)
		}
		if strings.ContainsAny(id, ";,=") || strings.ContainsAny(addr, ";,=") {
			return nil, fmt.Errorf("fabric: ring member %q=%q contains a spec delimiter", id, addr)
		}
		r.members = append(r.members, id)
		r.addrs[id] = addr
	}
	sort.Strings(r.members)
	memberHash := make([]uint64, len(r.members))
	for mi, id := range r.members {
		memberHash[mi] = mix64(seed ^ strHash(id))
	}
	strata := vnodes * strataPerVNode
	r.owners = make([]int, strata)
	for s := 0; s < strata; s++ {
		salt := mix64(seed + uint64(s)*0x9e3779b97f4a7c15)
		best, bestScore := 0, uint64(0)
		for mi := range r.members {
			// Ties (astronomically rare) fall through to the lower member
			// index — sorted ids keep that deterministic too.
			if score := mix64(salt ^ memberHash[mi]); score > bestScore {
				best, bestScore = mi, score
			}
		}
		r.owners[s] = best
	}
	return r, nil
}

// Epoch reports the ring's generation number.
func (r *Ring) Epoch() uint64 { return r.epoch }

// newer returns whichever of a and b has the higher epoch; nil loses.
func newer(a, b *Ring) *Ring {
	if a == nil || (b != nil && b.Epoch() > a.Epoch()) {
		return b
	}
	return a
}

// Seed reports the placement seed.
func (r *Ring) Seed() uint64 { return r.seed }

// VNodes reports the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Members reports the sorted member ids.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Addr reports a member's advertised address ("" if unknown).
func (r *Ring) Addr(id string) string { return r.addrs[id] }

// Has reports whether id is a ring member.
func (r *Ring) Has(id string) bool { _, ok := r.addrs[id]; return ok }

// Owner reports the member owning key.
func (r *Ring) Owner(key string) string {
	h := mix64(r.seed ^ strHash(key))
	// The circle is len(owners) equal strata; the key's high bits pick one.
	s := int(h / (^uint64(0)/uint64(len(r.owners)) + 1))
	return r.members[r.owners[s]]
}

// Spec serializes the ring as "epoch;seed;vnodes;id=addr,id=addr,..."
// (members sorted). Specs travel in WrongOwner hints, Install/Settled
// gossip and the alpsd -fabric-members flag; ParseSpec reverses it.
func (r *Ring) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d;%d;%d;", r.epoch, r.seed, r.vnodes)
	for i, id := range r.members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(id)
		b.WriteByte('=')
		b.WriteString(r.addrs[id])
	}
	return b.String()
}

// ParseSpec parses the Spec format back into a ring.
func ParseSpec(spec string) (*Ring, error) {
	parts := strings.SplitN(spec, ";", 4)
	if len(parts) != 4 {
		return nil, fmt.Errorf("fabric: bad ring spec %q (want epoch;seed;vnodes;members)", spec)
	}
	epoch, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fabric: bad ring spec epoch %q: %w", parts[0], err)
	}
	seed, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fabric: bad ring spec seed %q: %w", parts[1], err)
	}
	vnodes, err := strconv.Atoi(parts[2])
	if err != nil || vnodes <= 0 {
		return nil, fmt.Errorf("fabric: bad ring spec vnodes %q", parts[2])
	}
	members := make(map[string]string)
	for _, m := range strings.Split(parts[3], ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		id, addr, ok := strings.Cut(m, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("fabric: bad ring spec member %q (want id=addr)", m)
		}
		if _, dup := members[id]; dup {
			return nil, fmt.Errorf("fabric: duplicate ring member %q", id)
		}
		members[id] = addr
	}
	return NewRing(epoch, seed, vnodes, members)
}

// strHash is FNV-1a over s.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the SplitMix64 finalizer (Steele et al.).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
