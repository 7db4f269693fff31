package serve

import (
	"strconv"
	"testing"
)

// A client that sends a fresh tenant name with every request must not
// grow the queue's memory: once a request leaves an empty queue, its
// tenant's clock goes with it.
func TestFairQueueForgetsIdleTenants(t *testing.T) {
	q := newFairQueue(map[string]int{"prod": 3})
	for i := 0; i < 10_000; i++ {
		p := &pending{req: &StudyRequest{Tenant: "t" + strconv.Itoa(i)}}
		q.push(p)
		if got := q.pop(); got != p {
			t.Fatalf("request %d: popped %v, want the one pushed", i, got)
		}
	}
	if n := len(q.tenants); n > 1 {
		t.Errorf("the queue keeps %d tenant clocks after 10 000 lone requests, want <= 1", n)
	}
}
