package pks

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The artifact store keeps whole Selections (core.Select), and this is the
// one format the program reads a selection back from; `pka -json` exports a
// summary for other tools (serialize.go) that nothing here decodes. The
// payload is fixed little-endian 64-bit words in the style of
// sampling.EncodeOutcome (floats as IEEE-754 bits, strings and slices behind
// a count, NameCounts in sorted-name order) and carries no version: the
// content key is salted with the schema. One walk (codec.selection) lays it
// out for both directions.

// AppendKey appends every option that can change a byte of a Selection, zero
// values resolved to their defaults so configurations that mean the same
// thing key the same. Audit and Metrics observe; they never enter.
func (o Options) AppendKey(b []byte) []byte {
	o = o.filled()
	c := codec{b: b}
	rep, seed := int(o.Representative), int(o.Seed)
	// The PCA variance target is a constant, but it keeps its slot so
	// that keys written by earlier builds still match.
	varTarget := pcaVarianceTarget
	for _, p := range [...]*float64{&o.TargetErrorPct, &varTarget, &o.DetailedBudgetSeconds} {
		c.f64(p)
	}
	for _, p := range [...]*int{&o.MaxK, &rep, &o.MaxDetailed, &o.ClusterSampleMax, &seed} {
		c.int(p)
	}
	c.bool(&o.DisablePCA)
	return c.b
}

// CheckFor reports why s cannot stand for a workload of n launches: the
// guard between a selection that was not just computed here — decoded from
// the store or handed in by a caller — and w.Kernel(RepIndex).
func (s *Selection) CheckFor(n int) error {
	if s.TotalKernels != n {
		return fmt.Errorf("pks: selection of %s covers %d launches, not %d", s.Workload, s.TotalKernels, n)
	}
	left := n
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.RepIndex < 0 || g.RepIndex >= n || g.DetailedCount < 0 || g.MappedCount < 0 || g.Count() > left {
			return fmt.Errorf("pks: group %d (representative %d, population %d+%d) does not fit %d launches",
				i, g.RepIndex, g.DetailedCount, g.MappedCount, n)
		}
		left -= g.Count()
	}
	if s.K != len(s.Groups) || s.K == 0 || left != 0 {
		return fmt.Errorf("pks: K=%d with %d groups covering %d of %d launches", s.K, len(s.Groups), n-left, n)
	}
	return nil
}

// EncodeSelection serializes s exactly.
func EncodeSelection(s *Selection) []byte {
	c := codec{b: make([]byte, 0, 256+320*len(s.Groups))}
	c.selection(s)
	return c.b
}

// DecodeSelection parses EncodeSelection's layout and rejects anything else:
// a count the remaining bytes cannot hold, trailing bytes, or a selection
// CheckFor refuses for the request. It never allocates more than a small
// multiple of len(b).
func DecodeSelection(b []byte, workload, device string, n int) (*Selection, error) {
	c, s := codec{b: b, dec: true}, &Selection{}
	c.selection(s)
	if c.bad || len(c.b) != 0 {
		return nil, errors.New("pks: selection payload malformed")
	}
	if s.Workload != workload || s.Device != device {
		return nil, fmt.Errorf("pks: selection is for %s on %s, not %s on %s", s.Workload, s.Device, workload, device)
	}
	if err := s.CheckFor(n); err != nil {
		return nil, err
	}
	return s, nil
}

// codec walks a value once, appending it to b or, with dec set, filling it
// from b; encoding never writes through its pointers. The first short read
// sets bad and empties b, and later reads yield zeros, so a decoder checks
// once at the end.
type codec struct {
	b        []byte
	dec, bad bool
}

func (c *codec) selection(s *Selection) {
	c.str(&s.Workload)
	c.str(&s.Device)
	c.bool(&s.TwoLevel)
	for _, p := range [...]*int{&s.K, &s.DetailedKernels, &s.TotalKernels} {
		c.int(p)
	}
	c.i64(&s.SiliconTotalCycles)
	c.i64(&s.ProjectedCycles)
	for _, p := range [...]*float64{&s.SelectionErrorPct, &s.SiliconSpeedup, &s.ProfilingSeconds, &s.ClassifierAccuracy} {
		c.f64(p)
	}
	c.f64s(&s.SweepErrors)
	n := c.count(len(s.Groups), minGroupSize)
	if c.dec {
		s.Groups = make([]Group, n)
	}
	for i := range s.Groups {
		g, r := &s.Groups[i], &s.Groups[i].Representative
		for _, p := range [...]*int{&g.RepIndex, &g.DetailedCount, &g.MappedCount, &r.KernelID,
			&r.Grid.X, &r.Grid.Y, &r.Grid.Z, &r.Block.X, &r.Block.Y, &r.Block.Z} {
			c.int(p)
		}
		c.str(&r.Name)
		c.f64s(&r.Features)
		c.i64(&r.Cycles)
		for _, p := range [...]*float64{&r.TimeSeconds, &r.DRAMUtil, &r.L2MissRate} {
			c.f64(p)
		}
		c.nameCounts(&g.NameCounts)
	}
}

// minGroupSize is the fewest bytes one encoded group takes: 17 words with an
// empty name, no features and no name counts.
const minGroupSize = 17 * 8

func (c *codec) nameCounts(m *map[string]int) {
	names := make([]string, 0, len(*m))
	for name := range *m {
		names = append(names, name)
	}
	sort.Strings(names)
	n := c.count(len(names), 16)
	if c.dec {
		*m = make(map[string]int, n)
		names = make([]string, n)
	}
	for _, name := range names {
		count := (*m)[name]
		c.str(&name)
		c.int(&count)
		if c.dec {
			(*m)[name] = count
		}
	}
}

func (c *codec) word(v uint64) uint64 {
	switch {
	case !c.dec:
		c.b = binary.LittleEndian.AppendUint64(c.b, v)
	case len(c.b) < 8:
		c.bad, c.b, v = true, nil, 0
	default:
		v, c.b = binary.LittleEndian.Uint64(c.b), c.b[8:]
	}
	return v
}

func (c *codec) int(p *int) {
	if v := c.word(uint64(int64(*p))); c.dec {
		*p = int(int64(v))
	}
}

func (c *codec) i64(p *int64) {
	if v := c.word(uint64(*p)); c.dec {
		*p = int64(v)
	}
}

func (c *codec) f64(p *float64) {
	if v := c.word(math.Float64bits(*p)); c.dec {
		*p = math.Float64frombits(v)
	}
}

func (c *codec) bool(p *bool) {
	v := uint64(0)
	if *p {
		v = 1
	}
	if v = c.word(v); c.dec {
		*p, c.bad = v == 1, c.bad || v > 1
	}
}

// count codes an element count; decoding bounds it by the bytes left, each
// element taking at least elem of them.
func (c *codec) count(n, elem int) int {
	v := c.word(uint64(n))
	if c.dec && v > uint64(len(c.b)/elem) {
		c.bad, c.b, v = true, nil, 0
	}
	return int(v)
}

func (c *codec) str(p *string) {
	n := c.count(len(*p), 1)
	if c.dec {
		*p, c.b = string(c.b[:n]), c.b[n:]
	} else {
		c.b = append(c.b, *p...)
	}
}

func (c *codec) f64s(p *[]float64) {
	n := c.count(len(*p), 8)
	if c.dec {
		*p = make([]float64, n)
	}
	for i := range *p {
		c.f64(&(*p)[i])
	}
}
