// Span tracing: named tracks of timed spans and instant events, exported
// as Chrome trace_event JSON so a study run opens directly in
// chrome://tracing or Perfetto. The clock is injectable for deterministic
// golden tests. Tracing happens strictly outside hot loops — callers open
// a span around a pipeline phase or a whole kernel simulation, never
// around a cycle.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// maxTraceEvents bounds tracer memory on very large studies; events beyond
// the cap are counted in Dropped and omitted from the export. A var only
// so tests can lower the cap without allocating millions of events.
var maxTraceEvents = 1 << 22

// Arg is one key/value annotation on a span or instant event. Values must
// be JSON-marshalable (numbers, strings, bools).
type Arg struct {
	Key string
	Val interface{}
}

type traceEvent struct {
	name string
	ph   string // "X" complete, "i" instant, "M" metadata
	ts   int64  // microseconds since tracer start
	dur  int64  // complete events only
	tid  int64
	args []Arg
}

// Tracer collects trace events. All methods are safe for concurrent use.
// A nil *Tracer is inert.
type Tracer struct {
	mu       sync.Mutex
	now      func() time.Time
	t0       time.Time
	events   []traceEvent
	tracks   map[string]int64
	nextTID  int64
	dropped  int64
	dropCtr  *Counter
	procName string
}

// NewTracer returns a tracer on the real clock.
func NewTracer() *Tracer { return NewTracerAt(time.Now) }

// NewTracerAt returns a tracer reading timestamps from now — inject a fake
// clock for deterministic traces in tests.
func NewTracerAt(now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now, t0: now(), tracks: map[string]int64{}, nextTID: 1}
}

func (t *Tracer) stamp() int64 { return t.now().Sub(t.t0).Microseconds() }

func (t *Tracer) push(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
		t.dropCtr.Add(1)
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Dropped returns how many events were discarded at the memory cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetDropCounter installs a counter that is bumped every time an event is
// discarded at the memory cap, so span loss shows up in the metrics
// exposition instead of only in a post-hoc Dropped() call.
func (t *Tracer) SetDropCounter(c *Counter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dropCtr = c
	t.mu.Unlock()
}

// SetProcessName names this tracer's process in the exported trace (a
// process_name metadata event on pid 1). Without it the trace stays in the
// legacy single-process form.
func (t *Tracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procName = name
	t.mu.Unlock()
}

// Track is a named row in the trace (a trace_event thread). Spans on one
// track should not overlap in time — give concurrent producers their own
// tracks.
type Track struct {
	t   *Tracer
	tid int64
}

// Track returns the track with the given name, creating it (and emitting
// its thread_name metadata event) on first use.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tid, ok := t.tracks[name]
	if !ok {
		tid = t.nextTID
		t.nextTID++
		t.tracks[name] = tid
		if len(t.events) < maxTraceEvents {
			t.events = append(t.events, traceEvent{
				name: "thread_name", ph: "M", tid: tid,
				args: []Arg{{Key: "name", Val: name}},
			})
		} else {
			t.dropped++
			t.dropCtr.Add(1)
		}
	}
	t.mu.Unlock()
	return &Track{t: t, tid: tid}
}

// Span is an open interval on a track. End closes it; a nil *Span is
// inert, so instrumentation can be written unconditionally.
type Span struct {
	t     *Tracer
	tid   int64
	name  string
	start int64
	args  []Arg
}

// Start opens a span on the track.
func (tk *Track) Start(name string, args ...Arg) *Span {
	if tk == nil || tk.t == nil {
		return nil
	}
	return &Span{t: tk.t, tid: tk.tid, name: name, start: tk.t.stamp(), args: args}
}

// Instant records a zero-duration event on the track.
func (tk *Track) Instant(name string, args ...Arg) {
	if tk == nil || tk.t == nil {
		return
	}
	tk.t.push(traceEvent{name: name, ph: "i", ts: tk.t.stamp(), tid: tk.tid, args: args})
}

// Arg attaches an annotation to the span and returns it for chaining.
func (s *Span) Arg(key string, val interface{}) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
	return s
}

// End closes the span, recording it as a complete event.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.stamp()
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	s.t.push(traceEvent{name: s.name, ph: "X", ts: s.start, dur: dur, tid: s.tid, args: s.args})
}

// writeArgs renders an ordered arg list as a JSON object.
func writeArgs(w io.Writer, args []Arg) error {
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, a := range args {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return err
		}
		v, err := json.Marshal(a.Val)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s:%s", k, v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

func sortEvents(events []traceEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].tid != events[j].tid {
			return events[i].tid < events[j].tid
		}
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return events[i].name < events[j].name
	})
}

// WriteChromeTrace renders the collected events (plus any extra instant
// events the caller merges in, e.g. audit records) as a Chrome trace_event
// JSON object. Events are sorted by (tid, ts, name) for a stable layout.
// A process name set with SetProcessName opens the trace as process_name
// metadata; and when any events were dropped at the memory cap, a
// trace_dropped metadata note records the count.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	procName, dropped := t.procName, t.dropped
	t.mu.Unlock()

	sortEvents(events)
	if procName != "" {
		events = append([]traceEvent{{
			name: "process_name", ph: "M",
			args: []Arg{{Key: "name", Val: procName}},
		}}, events...)
	}
	if dropped > 0 {
		events = append(events, traceEvent{
			name: "trace_dropped", ph: "M",
			args: []Arg{{Key: "dropped", Val: dropped}},
		})
	}

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		name, err := json.Marshal(ev.name)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, `{"name":%s,"ph":%q,"pid":1,"tid":%d`, name, ev.ph, ev.tid); err != nil {
			return err
		}
		if ev.ph != "M" {
			if _, err := fmt.Fprintf(w, `,"ts":%d`, ev.ts); err != nil {
				return err
			}
		}
		if ev.ph == "X" {
			if _, err := fmt.Fprintf(w, `,"dur":%d`, ev.dur); err != nil {
				return err
			}
		}
		if ev.ph == "i" {
			// Thread-scoped instant events render as ticks on the track.
			if _, err := io.WriteString(w, `,"s":"t"`); err != nil {
				return err
			}
		}
		if len(ev.args) > 0 {
			if _, err := io.WriteString(w, `,"args":`); err != nil {
				return err
			}
			if err := writeArgs(w, ev.args); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
