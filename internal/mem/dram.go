package mem

// DRAM models a memory channel as a fixed access latency in series with a
// shared bandwidth pipe. Requests are serialized through the pipe at
// bytesPerCycle; completion time is the pipe drain time plus latency. The
// busy-time integral yields the DRAM utilization statistic that Table 4
// reports and that PKA projects.
type DRAM struct {
	bytesPerCycle float64
	latency       int64

	nextFree   float64 // first instant the pipe can accept a new request (fractional cycles)
	busyCycles float64
	bytesMoved int64
	requests   int64
}

// NewDRAM builds a channel with the given bandwidth (bytes per core cycle)
// and fixed access latency in cycles.
func NewDRAM(bytesPerCycle float64, latencyCycles int) *DRAM {
	if bytesPerCycle <= 0 {
		panic("mem: DRAM bandwidth must be positive")
	}
	if latencyCycles < 0 {
		latencyCycles = 0
	}
	return &DRAM{bytesPerCycle: bytesPerCycle, latency: int64(latencyCycles)}
}

// Request schedules a transfer of the given size starting no earlier than
// cycle now and returns the cycle at which the data is available. Requests
// queue behind earlier ones when the pipe is saturated, so a bandwidth-
// bound kernel sees its effective latency grow — the contention behaviour
// PKP's wave constraint exists to capture.
func (d *DRAM) Request(now int64, bytes int) int64 {
	if bytes <= 0 {
		return now + d.latency
	}
	start := float64(now)
	if d.nextFree > start {
		start = d.nextFree
	}
	transfer := float64(bytes) / d.bytesPerCycle
	d.nextFree = start + transfer
	d.busyCycles += transfer
	d.bytesMoved += int64(bytes)
	d.requests++
	done := d.nextFree + float64(d.latency)
	di := int64(done)
	if float64(di) < done {
		di++
	}
	return di
}

// Utilization returns the fraction of cycles in [0, elapsed) the pipe spent
// transferring data, clamped to [0, 1].
func (d *DRAM) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := d.busyCycles / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// BytesMoved returns the cumulative bytes transferred.
func (d *DRAM) BytesMoved() int64 { return d.bytesMoved }

// Requests returns the number of transfers serviced.
func (d *DRAM) Requests() int64 { return d.requests }

// ResetStats zeroes counters but keeps the pipe schedule, letting
// per-kernel statistics be isolated mid-simulation.
func (d *DRAM) ResetStats() {
	d.busyCycles = 0
	d.bytesMoved = 0
	d.requests = 0
}

// Rebase re-aligns the pipe schedule to a new time origin. The simulator
// calls it when a kernel launch restarts the cycle clock at zero — without
// it, requests would queue behind the previous kernel's (absolute) drain
// time.
func (d *DRAM) Rebase() { d.nextFree = 0 }
