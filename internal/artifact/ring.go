// Consistent-hash ring for the sharded fleet cache. Every pkad peer
// and every -shard client builds the same ring from the same member
// list, so "who owns this content key" is answered locally — no
// directory service, no coordination. Placement is a pure function of
// the sorted member list: restarts, differently-ordered flag values, and
// independent processes all agree on ownership, which is what lets a
// peer answer GETs for exactly the keys the clients will ask it
// for. Virtual nodes smooth the per-member load; replication ≥2 keeps a
// key reachable when its primary owner dies.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring shape: 128 virtual nodes per member keeps the max/min owned
// fraction within 1.25 (pinned by test), and 2 replicas survive a single
// owner failure. Every ring in the fleet uses both, so placement agrees.
const (
	DefaultVNodes   = 128
	DefaultReplicas = 2
)

// Ring is an immutable consistent-hash ring over named members. Build
// one with NewRing; derive a smaller one with Without when a member is
// evicted. Safe for concurrent use.
type Ring struct {
	members  []string    // sorted, unique
	replicas int         // DefaultReplicas, capped at the member count
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int // index into members
}

// ringHash positions a label on the ring: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 (not FNV) because vnode balance depends
// on high-quality dispersion, and the store's keys are already SHA-256
// hex so lookup cost is dominated by the peer RPC anyway.
func ringHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring over members (order-insensitive; duplicates and
// empties dropped) with DefaultVNodes virtual nodes per member and
// DefaultReplicas owners per key, capped at the member count. Returns nil
// if members is empty.
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	if len(uniq) == 0 {
		return nil
	}
	sort.Strings(uniq)
	r := &Ring{
		members:  uniq,
		replicas: min(DefaultReplicas, len(uniq)),
		points:   make([]ringPoint, 0, 4*DefaultVNodes*len(uniq)),
	}
	var label []byte
	for mi, m := range uniq {
		for v := 0; v < DefaultVNodes; v++ {
			// label = "<member>#<vnode>"; the separator keeps "ab"#1 and
			// "a"#b1 distinct. Ketama-style, each vnode digest yields four
			// ring points (32 bytes → 4×8), so 128 vnodes place 512 points
			// per member — enough dispersion to hold the 1.25 balance bound.
			label = append(label[:0], m...)
			label = append(label, '#')
			label = strconv.AppendUint(label, uint64(v), 10)
			sum := sha256.Sum256(label)
			for off := 0; off < len(sum); off += 8 {
				r.points = append(r.points, ringPoint{
					hash:   binary.BigEndian.Uint64(sum[off : off+8]),
					member: mi,
				})
			}
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Hash ties (vanishingly rare) break by member index so placement
		// stays a pure function of the member list.
		return a.member < b.member
	})
	return r
}

// Members returns the ring's sorted member list.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.members...)
}

// Replicas returns the effective replication factor.
func (r *Ring) Replicas() int {
	if r == nil {
		return 0
	}
	return r.replicas
}

// Owners returns the members owning key, primary first: the first
// Replicas() distinct members clockwise from the key's ring position.
func (r *Ring) Owners(key string) []string {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	// First point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, r.replicas)
	taken := make(map[int]bool, r.replicas)
	for n := 0; n < len(r.points) && len(owners) < r.replicas; n++ {
		p := r.points[(i+n)%len(r.points)]
		if taken[p.member] {
			continue
		}
		taken[p.member] = true
		owners = append(owners, r.members[p.member])
	}
	return owners
}

// Owner returns key's primary owner.
func (r *Ring) Owner(key string) string {
	if owners := r.Owners(key); len(owners) > 0 {
		return owners[0]
	}
	return ""
}

// OwnedFraction returns the share of the hash space for which member is
// the primary owner — 0 if member is not on the ring. Fractions sum to 1
// across members.
func (r *Ring) OwnedFraction(member string) float64 {
	if r == nil || len(r.points) == 0 {
		return 0
	}
	mi := sort.SearchStrings(r.members, member)
	if mi >= len(r.members) || r.members[mi] != member {
		return 0
	}
	// Each point owns the arc from the previous point (exclusive) to
	// itself (inclusive). Arcs accumulate in float64: a uint64 sum would
	// telescope to 2^64 ≡ 0 when one member owns the whole ring.
	var owned float64
	for i, p := range r.points {
		if p.member != mi {
			continue
		}
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		owned += float64(p.hash - prev) // each arc wraps correctly in uint64 for i == 0
	}
	return owned / float64(^uint64(0))
}

// ReplicaPeersOf returns the sorted set of other members that hold
// replicas of keys member primarily owns — the peers a fleet operator
// checks when member dies.
func (r *Ring) ReplicaPeersOf(member string) []string {
	if r == nil || r.replicas < 2 {
		return nil
	}
	mi := sort.SearchStrings(r.members, member)
	if mi >= len(r.members) || r.members[mi] != member {
		return nil
	}
	peers := map[int]bool{}
	for i, p := range r.points {
		if p.member != mi {
			continue
		}
		// Walk clockwise from this primary vnode collecting the next
		// replicas-1 distinct members.
		taken := map[int]bool{mi: true}
		for n := 1; n < len(r.points) && len(taken) < r.replicas; n++ {
			q := r.points[(i+n)%len(r.points)]
			if taken[q.member] {
				continue
			}
			taken[q.member] = true
			peers[q.member] = true
		}
	}
	out := make([]string, 0, len(peers))
	for mi := range peers {
		out = append(out, r.members[mi])
	}
	sort.Strings(out)
	return out
}

// Without returns a ring over the members minus the given one — the
// rebalance step after evicting an unreachable shard. Returns nil when
// no members remain; returns r itself if member is not on the ring.
func (r *Ring) Without(member string) *Ring {
	if r == nil {
		return nil
	}
	mi := sort.SearchStrings(r.members, member)
	if mi >= len(r.members) || r.members[mi] != member {
		return r
	}
	rest := make([]string, 0, len(r.members)-1)
	for _, m := range r.members {
		if m != member {
			rest = append(rest, m)
		}
	}
	return NewRing(rest)
}
