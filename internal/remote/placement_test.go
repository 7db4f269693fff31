package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// sampleKey is the i-th of a fixed set of content-shaped keys.
func sampleKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

// Pinned key→owner placements for a 3-member fleet. Any change to the
// weight derivation silently reshuffles every fleet cache on upgrade (all
// peer lookups miss until the fleet is re-warmed), so placement is pinned
// byte for byte — if this test fails, the hash layout changed and that
// cost must be deliberate.
func TestOwnersGoldenPlacement(t *testing.T) {
	members := []string{"http://10.0.0.1:9377", "http://10.0.0.2:9377", "http://10.0.0.3:9377"}
	golden := []struct {
		key    string
		owners []string
	}{
		{"5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03",
			[]string{"http://10.0.0.1:9377", "http://10.0.0.3:9377"}},
		{"e258d248fda94c63753607f7c4494ee0fcbe92f1a76bfdac795c9d84101eb317",
			[]string{"http://10.0.0.2:9377", "http://10.0.0.1:9377"}},
		{"4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
			[]string{"http://10.0.0.2:9377", "http://10.0.0.1:9377"}},
		{"c2356069e9d1e79ca924378153cfbbfb4d4416b1f99d41a2940bfdb66c5319db",
			[]string{"http://10.0.0.3:9377", "http://10.0.0.2:9377"}},
		{"7d1a54127b222502f5b79b5fb0803061152a44f92b37e23c6527baf665d4da9a",
			[]string{"http://10.0.0.1:9377", "http://10.0.0.3:9377"}},
	}
	for _, g := range golden {
		if got := owners(members, g.key); !reflect.DeepEqual(got, g.owners) {
			t.Errorf("owners(%s…) = %v, want %v", g.key[:12], got, g.owners)
		}
	}
}

// Every member's share of primary ownership stays within 1.25× of every
// other's for fleets of 2 to 8 peers, over 20 000 sampled keys.
func TestOwnersBalance(t *testing.T) {
	const keys = 20000
	for n := 2; n <= 8; n++ {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("http://10.0.0.%d:9377", i+1)
		}
		primary := map[string]int{}
		for i := 0; i < keys; i++ {
			primary[owners(members, sampleKey(i))[0]]++
		}
		least, most := keys, 0
		for _, m := range members {
			least, most = min(least, primary[m]), max(most, primary[m])
		}
		if least == 0 {
			t.Fatalf("n=%d: a member is primary for no key: %v", n, primary)
		}
		if ratio := float64(most) / float64(least); ratio > 1.25 {
			t.Errorf("n=%d: max/min primary share %.3f > 1.25 (%v)", n, ratio, primary)
		}
	}
}

// Placement is a pure function of the member set: shuffled order,
// duplicates and blanks in the peer list must not move any owner.
func TestOwnersDeterminism(t *testing.T) {
	a := fleet([]string{"w1", "w2", "w3", "w4"})
	b := fleet([]string{"w4", "w2", "", "w1", "w3", "w2", ""})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet differs across spellings: %v vs %v", a, b)
	}
	for i := 0; i < 500; i++ {
		key := sampleKey(i)
		if ga, gb := owners(a, key), owners(b, key); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("key %d: placement differs across spellings: %v vs %v", i, ga, gb)
		}
	}
}

// Dropping a member is the eviction rebalance: keys it did not own keep
// their primary, and keys it did own move to their former replica — the
// property the kill-one-peer smoke relies on for byte-identical studies.
func TestOwnersDropMember(t *testing.T) {
	full := []string{"w1", "w2", "w3"}
	rest := slices.DeleteFunc(slices.Clone(full), func(m string) bool { return m == "w2" })
	moved := 0
	for i := 0; i < 500; i++ {
		key := sampleKey(i)
		before, after := owners(full, key), owners(rest, key)
		if before[0] != "w2" {
			if after[0] != before[0] {
				t.Fatalf("key %d: primary moved from %s to %s though w2 didn't own it",
					i, before[0], after[0])
			}
			continue
		}
		moved++
		// The replica becomes primary, so its bytes are already there.
		if after[0] != before[1] {
			t.Fatalf("key %d: expected replica %v to take over, got %v", i, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("test keys never hit the dropped member; widen the key set")
	}
}

// Degenerate fleets: one member owns every key alone, and no members own
// nothing.
func TestOwnersEdgeCases(t *testing.T) {
	if got := owners([]string{"solo"}, sampleKey(0)); !reflect.DeepEqual(got, []string{"solo"}) {
		t.Errorf("single-member owners = %v", got)
	}
	if got := owners(nil, sampleKey(0)); len(got) != 0 {
		t.Errorf("no-member owners = %v", got)
	}
	if got := fleet([]string{"", ""}); len(got) != 0 {
		t.Errorf("blank peers make fleet %v", got)
	}
	if NewShardClient(ShardOptions{Peers: []string{""}}) != nil {
		t.Error("a client over no peers should be nil")
	}
}
