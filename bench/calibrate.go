package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"time"
)

// The reference box is a small shared VM, and what its neighbours do to the
// memory system moves the speed of everything here by 20 to 40 % for minutes
// at a time: two ten-run sets of one commit taken half an hour apart
// disagreed by 24 % on sim_cold's CPU time and by 41 % on serve_closed's
// throughput (README, "Why the host times are calibrated"). A run is 20 s
// long, so no estimator inside a run can see such a phase; a fixed reference
// computation timed beside the studies can. The calibrator is that
// computation: sequential sweeps over a buffer too large for a core's own
// caches, so that its time is the shared memory system's. Of the
// computations tried beside the studies it moved most like them (log-time
// slope 1.0 to 1.4 on three workloads); a dependent-load walk over the same
// buffer moved half as much, an arithmetic loop not at all. It belongs to
// the benchmark, not to the program, so no change to the program can move
// it.

const (
	// calBufMB is the buffer's size, four times a core's second-level
	// cache. It is resident from start to end, and peak_rss_mb is reported
	// without it.
	calBufMB = 8
	// One pass is calSweeps sweeps over the buffer, one load per calLine
	// bytes: every cache line moves, with an eighth of the instructions a
	// load per word would take. ≈ 15 ms on the reference box.
	calSweeps = 48
	calLine   = 64
	// calEvery is the least time between two passes: a pass costs ≈ 5 %
	// of the time it stands for.
	calEvery = 300 * time.Millisecond
	// calNominalUs is what a pass takes on the reference box while its
	// neighbours are quiet. Host times are divided by measured ÷ nominal,
	// so on a quiet reference box they are the times a stopwatch shows.
	calNominalUs = 15600
)

// calSink keeps the compiler from discarding the sweeps.
var calSink uint64

// calibrator times the reference computation between studies and keeps its
// own cost off the benchmark's clock. A nil *calibrator (the traced passes,
// whose per-layer numbers are not calibrated) ticks nothing and marks plain
// time.
type calibrator struct {
	// buf is mapped outside the Go heap: 8 MiB of heap would double the
	// collector's target and with it the program's own peak memory.
	buf    []byte
	passUs []float64
	last   time.Time
	// wall and cpu are what the calibrator itself has used so far.
	wall, cpu time.Duration
}

// newCalibrator maps the buffer and writes to all of it, so that every
// page is the process's own and a sweep moves real memory.
func newCalibrator() (*calibrator, error) {
	from := plainMark()
	buf, err := syscall.Mmap(-1, 0, calBufMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibrator buffer: %w", err)
	}
	for off := 0; off < len(buf); off += 8 {
		binary.LittleEndian.PutUint64(buf[off:], uint64(off))
	}
	c := &calibrator{buf: buf}
	c.book(from)
	return c, nil
}

// close unmaps the buffer.
func (c *calibrator) close() error {
	if c == nil {
		return nil
	}
	return syscall.Munmap(c.buf)
}

// book adds the time since from to the calibrator's own cost.
func (c *calibrator) book(from mark) {
	to := plainMark()
	c.wall += to.wall - from.wall
	c.cpu += to.cpu - from.cpu
}

// tick runs one pass unless the last one is less than calEvery old.
func (c *calibrator) tick() {
	if c == nil || time.Since(c.last) < calEvery {
		return
	}
	from := plainMark()
	t0 := time.Now()
	var sum uint64
	for s := 0; s < calSweeps; s++ {
		for off := 0; off < len(c.buf); off += calLine {
			sum += binary.LittleEndian.Uint64(c.buf[off:])
		}
	}
	c.passUs = append(c.passUs, us(time.Since(t0)))
	calSink += sum
	c.last = time.Now()
	c.book(from)
}

// mark is the benchmark's clock: wall and CPU time since process start,
// less what the calibrator used.
func (c *calibrator) mark() mark {
	m := plainMark()
	if c != nil {
		m.wall -= c.wall
		m.cpu -= c.cpu
	}
	return m
}

// slowdown is how much slower than nominal the host ran during this run:
// the lower quartile of the passes — the studies are read at a low
// percentile too — over the nominal pass time.
func (c *calibrator) slowdown() float64 {
	if c == nil || len(c.passUs) == 0 {
		return 1
	}
	return percentile(sortedCopy(c.passUs), 25) / calNominalUs
}
