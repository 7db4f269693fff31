package obs

import "testing"

// TestTraceparentGolden pins the wire format: version 00, lowercase hex,
// sampled flag, 55 bytes.
func TestTraceparentGolden(t *testing.T) {
	tc := TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"}
	const want = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if got := tc.Traceparent(); got != want {
		t.Fatalf("Traceparent() = %q, want %q", got, want)
	}
	back, ok := ParseTraceparent(want)
	if !ok || back != tc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v, true", want, back, ok, tc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := map[string]string{
		"empty":         "",
		"truncated":     "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"bad version":   "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"zero trace id": "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":  "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"uppercase hex": "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"bad dash":      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"non-hex flags": "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"extra data":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
	}
	for name, s := range bad {
		if tc, ok := ParseTraceparent(s); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted as %+v", name, s, tc)
		}
	}
	// An invalid context renders as "" and its parse round-trip stays
	// invalid — "not traced" is stable under propagation.
	var zero TraceContext
	if zero.Traceparent() != "" {
		t.Errorf("zero context rendered %q", zero.Traceparent())
	}
	if zero.Child(NewIDGen(1)).Valid() {
		t.Error("child of an invalid context became valid")
	}
}

// TestIDGenDeterministic pins the deterministic-ID mode golden traces
// rely on: equal seeds yield equal streams, and every ID is well-formed.
func TestIDGenDeterministic(t *testing.T) {
	a, b := NewIDGen(42), NewIDGen(42)
	for i := 0; i < 16; i++ {
		sa, sb := a.SpanID(), b.SpanID()
		if sa != sb {
			t.Fatalf("step %d: seeded streams diverged: %s vs %s", i, sa, sb)
		}
		if !isHexID(sa, 16) {
			t.Fatalf("step %d: malformed span ID %q", i, sa)
		}
	}
	tc := NewIDGen(7).NewTrace()
	if !tc.Valid() {
		t.Fatalf("NewTrace produced invalid context %+v", tc)
	}
	if tc != (NewIDGen(7).NewTrace()) {
		t.Fatal("same seed produced different traces")
	}
	if NewIDGen(7).TraceID() == NewIDGen(8).TraceID() {
		t.Fatal("different seeds produced the same trace ID")
	}
	// Seed 0 is the crypto-seeded production mode: two generators must
	// not collide.
	if NewIDGen(0).TraceID() == NewIDGen(0).TraceID() {
		t.Fatal("crypto-seeded generators produced the same trace ID")
	}
}

func TestChildKeepsTraceID(t *testing.T) {
	g := NewIDGen(3)
	root := g.NewTrace()
	child := root.Child(g)
	if child.TraceID != root.TraceID {
		t.Fatalf("child changed trace ID: %s -> %s", root.TraceID, child.TraceID)
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child kept the parent's span ID")
	}
	if !child.Valid() {
		t.Fatalf("child invalid: %+v", child)
	}
}

// FuzzParseTraceparent: the header arrives from any client. Nothing panics;
// a rejected value yields the zero context; an accepted one is a valid
// context that renders back to the same header — flags aside, which
// Traceparent always writes as sampled — and parses to itself again.
func FuzzParseTraceparent(f *testing.F) {
	const good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add(good)
	f.Add(good[:53] + "00")
	f.Add(good[:52])
	f.Add(good + "x")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		out := tc.Traceparent()
		if !tc.Valid() || len(s) != len(out) || out[:53] != s[:53] {
			t.Fatalf("accepted %q as %+v, which renders %q", s, tc, out)
		}
		if back, ok := ParseTraceparent(out); !ok || back != tc {
			t.Fatalf("%q re-parsed as %+v, %v; want %+v", out, back, ok, tc)
		}
	})
}
