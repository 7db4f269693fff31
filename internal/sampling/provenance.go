// Per-kernel execution provenance: the study "flight recorder". Every
// kernel task the Exec ladder resolves gets one ProvEntry — which tier
// served it (mem singleflight, disk artifact store, owner-shard peer,
// fresh sim), which peer, how long it queued and how long service took.
// Entries fold deterministically in launch order regardless of execution
// interleaving, so the recorder is a faithful account of *where* each
// outcome came from while the outcomes themselves stay byte-identical.
// The paper's accounting argument — you can show exactly which kernels
// were simulated, which were projected, and at what cost — extends here
// to outcomes other processes computed.
package sampling

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"pka/internal/obs"
)

// Tier is the Exec ladder level that satisfied a kernel task. Numeric
// values index obs.ExecMetrics and match obs.ExecTierNames.
type Tier uint8

// The four serving tiers, in ladder order.
const (
	TierMem   Tier = iota // in-memory singleflight (or waited on another caller's compute)
	TierDisk              // content-addressed artifact store
	TierShard             // owner-shard peer in the sharded fleet cache
	TierSim               // fresh local simulation
)

// String names the tier; unknown values render as "tier<N>".
func (t Tier) String() string {
	if int(t) < len(obs.ExecTierNames) {
		return obs.ExecTierNames[t]
	}
	return fmt.Sprintf("tier%d", uint8(t))
}

// MarshalJSON renders the tier by name.
func (t Tier) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the name form written by MarshalJSON.
func (t *Tier) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range obs.ExecTierNames {
		if s == name {
			*t = Tier(i)
			return nil
		}
	}
	var n uint8
	if _, err := fmt.Sscanf(s, "tier%d", &n); err != nil {
		return fmt.Errorf("unknown tier %q", s)
	}
	*t = Tier(n)
	return nil
}

// ProvEntry is one kernel task's provenance record.
type ProvEntry struct {
	// Phase is the study phase that launched the kernel ("full", "pks",
	// "pka"); Index is the launch index within that phase. Together they
	// give the deterministic fold order.
	Phase string `json:"phase"`
	Index int    `json:"index"`
	// Kernel is the launch's name (not part of the content key).
	Kernel string `json:"kernel,omitempty"`
	// Key is the task's content-addressed key.
	Key string `json:"key"`
	// Tier is the ladder level that produced the outcome.
	Tier Tier `json:"tier"`
	// Peer identifies the shard peer that held the task's cached
	// outcome (TierShard only).
	Peer string `json:"peer,omitempty"`
	// WaitNs is time from scheduler submission to execution start;
	// ServiceNs is execution time in the ladder.
	WaitNs    int64 `json:"wait_ns"`
	ServiceNs int64 `json:"service_ns"`
}

// FlightRecorder accumulates provenance entries for one study run. Safe
// for concurrent use; Entries returns records sorted in (phase, launch
// index) order so reports are deterministic however execution interleaved.
type FlightRecorder struct {
	mu      sync.Mutex
	entries []ProvEntry
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

// Record appends one entry. Nil-safe.
func (fr *FlightRecorder) Record(e ProvEntry) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.entries = append(fr.entries, e)
	fr.mu.Unlock()
}

// Len reports how many entries have been recorded.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.entries)
}

// Entries returns a copy of the records sorted by (phase, index).
func (fr *FlightRecorder) Entries() []ProvEntry {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	out := append([]ProvEntry(nil), fr.entries...)
	fr.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// TierCounts returns how many entries each tier served, keyed by tier
// name. Values always sum to Len().
func (fr *FlightRecorder) TierCounts() map[string]int {
	return fr.count(func(e *ProvEntry) string { return e.Tier.String() })
}

// PeerCounts returns how many entries each shard peer served.
func (fr *FlightRecorder) PeerCounts() map[string]int {
	return fr.count(func(e *ProvEntry) string { return e.Peer })
}

// count tallies the entries by name under the lock, skipping empty names.
// Counts need no order, so nothing is copied or sorted.
func (fr *FlightRecorder) count(name func(*ProvEntry) string) map[string]int {
	counts := map[string]int{}
	if fr == nil {
		return counts
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for i := range fr.entries {
		if n := name(&fr.entries[i]); n != "" {
			counts[n]++
		}
	}
	return counts
}

// WriteNDJSON writes one JSON object per entry in (phase, index) order —
// the flight-recorder artifact format. Unlike ProvEntry's own encoding,
// kernel and peer are written even when empty, and no HTML escaping is
// applied, so a name such as gemm<float> is written as it reads.
func (fr *FlightRecorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for _, e := range fr.Entries() {
		if err := enc.Encode(struct {
			Phase     string `json:"phase"`
			Index     int    `json:"index"`
			Kernel    string `json:"kernel"`
			Key       string `json:"key"`
			Tier      string `json:"tier"`
			Peer      string `json:"peer"`
			WaitNs    int64  `json:"wait_ns"`
			ServiceNs int64  `json:"service_ns"`
		}{e.Phase, e.Index, e.Kernel, e.Key, e.Tier.String(), e.Peer, e.WaitNs, e.ServiceNs}); err != nil {
			return err
		}
	}
	return nil
}
