package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// Pinned key→owner placements for a 3-member ring at the defaults. Any
// change to the point derivation silently reshuffles every fleet cache on
// upgrade (all peer lookups miss until re-replication), so placement is
// pinned byte-for-byte — if this test fails, the hash layout changed and
// that cost must be deliberate.
func TestRingGoldenPlacement(t *testing.T) {
	members := []string{"http://10.0.0.1:9377", "http://10.0.0.2:9377", "http://10.0.0.3:9377"}
	r := NewRing(members)
	golden := []struct {
		key    string
		owners []string
	}{
		{"5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03",
			[]string{"http://10.0.0.1:9377", "http://10.0.0.2:9377"}},
		{"e258d248fda94c63753607f7c4494ee0fcbe92f1a76bfdac795c9d84101eb317",
			[]string{"http://10.0.0.3:9377", "http://10.0.0.1:9377"}},
		{"4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
			[]string{"http://10.0.0.2:9377", "http://10.0.0.1:9377"}},
		{"c2356069e9d1e79ca924378153cfbbfb4d4416b1f99d41a2940bfdb66c5319db",
			[]string{"http://10.0.0.2:9377", "http://10.0.0.3:9377"}},
		{"7d1a54127b222502f5b79b5fb0803061152a44f92b37e23c6527baf665d4da9a",
			[]string{"http://10.0.0.2:9377", "http://10.0.0.1:9377"}},
	}
	for _, g := range golden {
		if got := r.Owners(g.key); !reflect.DeepEqual(got, g.owners) {
			t.Errorf("Owners(%s…) = %v, want %v", g.key[:12], got, g.owners)
		}
		if got := r.Owner(g.key); got != g.owners[0] {
			t.Errorf("Owner(%s…) = %q, want %q", g.key[:12], got, g.owners[0])
		}
	}
	// With 3 members at replication 2, every member replicates for both
	// others.
	for _, m := range members {
		want := make([]string, 0, 2)
		for _, p := range members {
			if p != m {
				want = append(want, p)
			}
		}
		if got := r.ReplicaPeersOf(m); !reflect.DeepEqual(got, want) {
			t.Errorf("ReplicaPeersOf(%s) = %v, want %v", m, got, want)
		}
	}
}

// Balance bound from the issue: at 128 vnodes the max/min primary-owned
// fraction stays ≤ 1.25 for fleet sizes 2..8, and the fractions sum to 1.
func TestRingBalance(t *testing.T) {
	for n := 2; n <= 8; n++ {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("http://10.0.0.%d:9377", i+1)
		}
		r := NewRing(members)
		min, max, sum := 1.0, 0.0, 0.0
		for _, m := range members {
			f := r.OwnedFraction(m)
			if f <= 0 {
				t.Fatalf("n=%d: member %s owns nothing", n, m)
			}
			if f < min {
				min = f
			}
			if f > max {
				max = f
			}
			sum += f
		}
		if ratio := max / min; ratio > 1.25 {
			t.Errorf("n=%d: max/min owned fraction %.3f > 1.25", n, ratio)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("n=%d: owned fractions sum to %.6f, want 1", n, sum)
		}
	}
}

// Placement is a pure function of the member *set*: shuffled order,
// duplicates, and independent rebuilds (process restarts) must agree on
// every owner list.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"w1", "w2", "w3", "w4"})
	b := NewRing([]string{"w4", "w2", "w1", "w3", "w2", ""})
	for i := 0; i < 500; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		key := hex.EncodeToString(sum[:])
		if ga, gb := a.Owners(key), b.Owners(key); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("key %d: placement differs across rebuilds: %v vs %v", i, ga, gb)
		}
	}
}

// Without is the eviction rebalance: keys not owned by the evicted
// member keep their primary, and keys it did own move to their first
// surviving replica — that is the property the kill-one-worker smoke
// relies on for byte-identical studies.
func TestRingWithout(t *testing.T) {
	full := NewRing([]string{"w1", "w2", "w3"})
	rest := full.Without("w2")
	if got := rest.Members(); !reflect.DeepEqual(got, []string{"w1", "w3"}) {
		t.Fatalf("Without members = %v", got)
	}
	moved := 0
	for i := 0; i < 500; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		key := hex.EncodeToString(sum[:])
		before := full.Owners(key)
		after := rest.Owners(key)
		if before[0] != "w2" {
			if after[0] != before[0] {
				t.Fatalf("key %d: primary moved from %s to %s though w2 didn't own it",
					i, before[0], after[0])
			}
		} else {
			moved++
			// The surviving replica becomes primary, so its bytes are
			// already there.
			if len(before) < 2 || after[0] != before[1] {
				t.Fatalf("key %d: expected replica %v to take over, got %v", i, before, after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("test keys never hit the evicted member; widen the key set")
	}
	// Evicting an unknown member is a no-op returning the same ring.
	if full.Without("nope") != full {
		t.Error("Without(unknown) should return the receiver")
	}
}

// Degenerate shapes: empty member lists, replication above the member
// count, and nil receivers must all stay total.
func TestRingEdgeCases(t *testing.T) {
	if NewRing(nil) != nil {
		t.Error("empty ring should be nil")
	}
	var nilRing *Ring
	if nilRing.Owners("k") != nil || nilRing.Owner("k") != "" || nilRing.OwnedFraction("k") != 0 {
		t.Error("nil ring lookups should be empty")
	}
	one := NewRing([]string{"solo"})
	if got := one.Owners("anything"); !reflect.DeepEqual(got, []string{"solo"}) {
		t.Errorf("single-member owners = %v", got)
	}
	if one.Replicas() != 1 {
		t.Errorf("replicas should cap at member count, got %d", one.Replicas())
	}
	if f := one.OwnedFraction("solo"); f < 0.999 || f > 1.001 {
		t.Errorf("single member owns %.4f of the space, want 1", f)
	}
	if one.ReplicaPeersOf("solo") != nil {
		t.Error("single-member ring has no replica peers")
	}
}
