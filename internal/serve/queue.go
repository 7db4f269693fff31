package serve

import "container/heap"

// fairQueue is a virtual-finish-time weighted-fair queue over unit-cost
// study requests. Each tenant advances a private virtual clock by
// 1/weight per queued request; the queue always releases the pending
// request with the smallest virtual finish time (FIFO on ties). A tenant
// with weight 3 therefore drains three requests for every one of a
// weight-1 tenant under contention, while an uncontended tenant is served
// immediately — the classic start-time fair queueing construction, here
// with unit cost because admission charges per request, not per cycle.
// A tenant's clock lives only for the backlog period it joined: when the
// queue empties, every clock is dropped, so the tenants a server remembers
// are the ones it is queueing now, not every name a client ever sent.
//
// The queue is not goroutine-safe; the Server serializes access under its
// own mutex.
type fairQueue struct {
	weights map[string]float64 // static per-tenant weights; missing = 1
	tenants map[string]*tenantClock
	items   wfqHeap
	vtime   float64 // global virtual time: vstart of the last release
	seq     uint64  // FIFO tiebreak
}

type tenantClock struct {
	weight      float64
	lastVFinish float64
}

type wfqItem struct {
	p       *pending
	vstart  float64
	vfinish float64
	seq     uint64
}

func newFairQueue(weights map[string]int) *fairQueue {
	q := &fairQueue{weights: map[string]float64{}, tenants: map[string]*tenantClock{}}
	for t, w := range weights {
		if w > 0 {
			q.weights[t] = float64(w)
		}
	}
	return q
}

func (q *fairQueue) clock(tenant string) *tenantClock {
	tc := q.tenants[tenant]
	if tc == nil {
		w := q.weights[tenant]
		if w <= 0 {
			w = 1
		}
		tc = &tenantClock{weight: w}
		q.tenants[tenant] = tc
	}
	return tc
}

// push enqueues one request. A tenant that went idle restarts at the
// current global virtual time (max clause), so sitting out earns no
// credit and a returning tenant cannot starve the backlog.
func (q *fairQueue) push(p *pending) {
	tc := q.clock(p.req.Tenant)
	vstart := q.vtime
	if tc.lastVFinish > vstart {
		vstart = tc.lastVFinish
	}
	vfinish := vstart + 1/tc.weight
	tc.lastVFinish = vfinish
	q.seq++
	heap.Push(&q.items, wfqItem{p: p, vstart: vstart, vfinish: vfinish, seq: q.seq})
}

// pop releases the most-entitled pending request, or nil when empty. The
// pop that empties the queue ends the backlog period and, as start-time
// fair queueing restarts its tags there, drops every tenant clock; vtime
// stays, so tags keep growing across periods.
func (q *fairQueue) pop() *pending {
	if len(q.items) == 0 {
		return nil
	}
	it := heap.Pop(&q.items).(wfqItem)
	if it.vstart > q.vtime {
		q.vtime = it.vstart
	}
	if len(q.items) == 0 {
		clear(q.tenants)
	}
	return it.p
}

func (q *fairQueue) len() int { return len(q.items) }

type wfqHeap []wfqItem

func (h wfqHeap) Len() int { return len(h) }
func (h wfqHeap) Less(i, j int) bool {
	if h[i].vfinish != h[j].vfinish {
		return h[i].vfinish < h[j].vfinish
	}
	return h[i].seq < h[j].seq
}
func (h wfqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wfqHeap) Push(x any)   { *h = append(*h, x.(wfqItem)) }
func (h *wfqHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
