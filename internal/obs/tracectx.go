// Cross-process trace identity: a W3C trace-context style traceparent
// header carries (trace ID, parent span ID) from an HTTP client into the
// serve tier, so the study's spans join the client's trace. IDs come from
// an IDGen that is crypto-seeded in production and deterministically
// seeded in golden tests — the ID scheme itself never influences
// execution, only labeling.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// TraceContext identifies one request's position in a distributed trace:
// the trace it belongs to and the span that is its parent. The zero value
// is "not traced" and propagates as a no-op.
type TraceContext struct {
	TraceID string // 32 lowercase hex chars, not all-zero
	SpanID  string // 16 lowercase hex chars, not all-zero
}

// Valid reports whether the context carries a well-formed, non-zero
// trace ID and span ID.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// Child returns a context in the same trace whose span ID is a fresh ID
// drawn from g — the caller's new span, to be used as the parent of
// whatever it propagates further. Invalid contexts stay invalid.
func (tc TraceContext) Child(g *IDGen) TraceContext {
	if !tc.Valid() {
		return TraceContext{}
	}
	return TraceContext{TraceID: tc.TraceID, SpanID: g.SpanID()}
}

// Traceparent renders the context as a W3C traceparent header value:
// version 00, sampled flag set. Invalid contexts render as "".
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-01"
}

// ParseTraceparent parses a version-00 traceparent header value. It
// returns the zero TraceContext and false for anything malformed — an
// unparseable header means "not traced", never an error surfaced to the
// request path.
func ParseTraceparent(s string) (TraceContext, bool) {
	// 00-<32 hex trace id>-<16 hex span id>-<2 hex flags> = 55 bytes.
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !tc.Valid() || !isHex(s[53:55]) {
		return TraceContext{}, false
	}
	return tc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func isHexID(s string, n int) bool {
	return len(s) == n && isHex(s) && strings.Trim(s, "0") != ""
}

// IDGen generates trace and span IDs. Production generators are seeded
// from crypto/rand; tests pass a fixed seed for reproducible IDs (the
// deterministic-ID mode the golden trace tests rely on). The generator is
// a splitmix64 stream — cheap, well-distributed, and safe for concurrent
// use under its mutex.
type IDGen struct {
	mu    sync.Mutex
	state uint64
}

// NewIDGen returns a generator. Seed 0 requests a crypto/rand seed;
// any other seed makes the ID stream fully deterministic.
func NewIDGen(seed uint64) *IDGen {
	if seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		if seed == 0 {
			seed = 0x9e3779b97f4a7c15
		}
	}
	return &IDGen{state: seed}
}

func (g *IDGen) next() uint64 {
	g.mu.Lock()
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	g.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TraceID returns a fresh 32-hex-char non-zero trace ID.
func (g *IDGen) TraceID() string {
	for {
		hi, lo := g.next(), g.next()
		if hi|lo != 0 {
			return fmt.Sprintf("%016x%016x", hi, lo)
		}
	}
}

// SpanID returns a fresh 16-hex-char non-zero span ID.
func (g *IDGen) SpanID() string {
	for {
		if v := g.next(); v != 0 {
			return fmt.Sprintf("%016x", v)
		}
	}
}

// NewTrace starts a fresh trace: a new trace ID with a new root span ID.
func (g *IDGen) NewTrace() TraceContext {
	return TraceContext{TraceID: g.TraceID(), SpanID: g.SpanID()}
}
