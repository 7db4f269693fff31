package pks

import (
	"encoding/json"
	"io"
)

// The paper's artifact persists each workload's selection — the number of
// principal groups, the principal kernel of each group and its weight — so
// that tracing and simulation can consume it without re-profiling. This
// file provides the equivalent as a stable JSON document, write-only: what
// the program itself reads back is the artifact store's payload (codec.go).

// SelectionFile is the on-disk form of a Selection: everything a
// simulator integration needs to replay the sampled workload, without the
// profiler internals.
type SelectionFile struct {
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	Device   string `json:"device"`

	K               int  `json:"k"`
	TwoLevel        bool `json:"two_level"`
	DetailedKernels int  `json:"detailed_kernels"`
	TotalKernels    int  `json:"total_kernels"`

	SelectionErrorPct float64 `json:"selection_error_pct"`
	SiliconSpeedup    float64 `json:"silicon_speedup"`

	Groups []GroupFile `json:"groups"`
}

// GroupFile is one group's persisted form.
type GroupFile struct {
	RepKernelID int     `json:"rep_kernel_id"`
	RepName     string  `json:"rep_name"`
	RepGrid     [3]int  `json:"rep_grid"`
	RepBlock    [3]int  `json:"rep_block"`
	RepCycles   int64   `json:"rep_cycles"`
	Count       int     `json:"count"`
	Weight      float64 `json:"weight"` // count / total kernels
}

// currentVersion of the selection file format.
const currentVersion = 1

// File converts a Selection into its serializable form.
func (s *Selection) File() SelectionFile {
	f := SelectionFile{
		Version:           currentVersion,
		Workload:          s.Workload,
		Device:            s.Device,
		K:                 s.K,
		TwoLevel:          s.TwoLevel,
		DetailedKernels:   s.DetailedKernels,
		TotalKernels:      s.TotalKernels,
		SelectionErrorPct: s.SelectionErrorPct,
		SiliconSpeedup:    s.SiliconSpeedup,
	}
	for _, g := range s.Groups {
		gf := GroupFile{
			RepKernelID: g.RepIndex,
			RepName:     g.Representative.Name,
			RepGrid:     [3]int{g.Representative.Grid.X, g.Representative.Grid.Y, g.Representative.Grid.Z},
			RepBlock:    [3]int{g.Representative.Block.X, g.Representative.Block.Y, g.Representative.Block.Z},
			RepCycles:   g.Representative.Cycles,
			Count:       g.Count(),
		}
		if s.TotalKernels > 0 {
			gf.Weight = float64(g.Count()) / float64(s.TotalKernels)
		}
		f.Groups = append(f.Groups, gf)
	}
	return f
}

// WriteJSON writes the selection as indented JSON.
func (s *Selection) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.File())
}
