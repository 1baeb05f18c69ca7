// Package sim provides a small discrete-event simulation engine with a
// nanosecond clock and serially-reusable resources. It is the timing
// substrate shared by the memory-system, network and machine simulators:
// all throughput figures in this repository are computed from simulated
// time, never from wall-clock time.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time int64

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	case t >= 1e6:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts simulated time to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Agenda is a discrete-event agenda of value-typed payloads: the caller
// pushes payloads at absolute times and pops them back in (time, push
// order) order, dispatching each itself. Pushing at the current time
// is allowed, even while that time is being drained; pushing in the
// past panics, because it indicates a causality bug in a model.
//
// Events tie heavily in time in the network simulation, so the agenda
// is a small min-heap of the distinct pending times, each owning a FIFO
// bucket of payloads in push order. A push costs at most one map
// lookup; a pop costs none unless it empties a bucket. Buckets are
// recycled with their capacity, so a long run allocates only while the
// number of distinct pending times or the size of a bucket reaches a
// new peak. The zero value is an empty agenda with
// the clock at zero.
type Agenda[T any] struct {
	now        Time
	dispatched int64
	pending    int
	times      []slot       // min-heap on at; ats are distinct
	index      map[Time]int // pending time -> its bucket in slab
	slab       []bucket[T]
	free       []int // recycled slab entries

	// lastAt and last (its bucket's slab index + 1, or 0 for none)
	// remember the previous push: a dispatched event usually schedules
	// its successors at one common time, and the repeat skips the map.
	lastAt Time
	last   int
}

// slot is one distinct pending time and the slab index of its bucket.
type slot struct {
	at Time
	b  int
}

// bucket holds the payloads pushed at one time; items[head:] are still
// pending.
type bucket[T any] struct {
	items []T
	head  int
}

// Now returns the current simulated time: the time of the last payload
// popped.
func (a *Agenda[T]) Now() Time { return a.now }

// Pending returns the number of payloads pushed but not yet popped.
func (a *Agenda[T]) Pending() int { return a.pending }

// Dispatched returns the number of payloads popped so far.
func (a *Agenda[T]) Dispatched() int64 { return a.dispatched }

// Push schedules v at the absolute time at, after every payload already
// pending at that time.
func (a *Agenda[T]) Push(at Time, v T) {
	if at < a.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, a.now))
	}
	b := a.last - 1
	if at != a.lastAt || b < 0 {
		var ok bool
		if b, ok = a.index[at]; !ok {
			b = a.newBucket(at)
		}
		a.lastAt, a.last = at, b+1
	}
	a.slab[b].items = append(a.slab[b].items, v)
	a.pending++
}

// newBucket opens an empty bucket for the new pending time at.
func (a *Agenda[T]) newBucket(at Time) int {
	var b int
	if k := len(a.free); k > 0 {
		b = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		b = len(a.slab)
		a.slab = append(a.slab, bucket[T]{})
	}
	if a.index == nil {
		a.index = make(map[Time]int)
	}
	a.index[at] = b
	a.times = append(a.times, slot{at: at, b: b})
	a.up(len(a.times) - 1)
	return b
}

// Pop removes the earliest pending payload, advances the clock to its
// time and returns it; ok is false when nothing is pending.
func (a *Agenda[T]) Pop() (v T, ok bool) {
	if len(a.times) == 0 {
		return v, false
	}
	return a.pop(), true
}

// PopUntil is Pop restricted to payloads due at or before deadline;
// later ones stay pending and the clock does not move past them.
func (a *Agenda[T]) PopUntil(deadline Time) (v T, ok bool) {
	if len(a.times) == 0 || a.times[0].at > deadline {
		return v, false
	}
	return a.pop(), true
}

func (a *Agenda[T]) pop() T {
	top := a.times[0]
	bk := &a.slab[top.b]
	v := bk.items[bk.head]
	bk.head++
	if bk.head == len(bk.items) {
		// The time is drained: retire it and recycle its bucket. A later
		// push at the same time opens a fresh bucket, still in order.
		delete(a.index, top.at)
		if a.lastAt == top.at {
			a.last = 0
		}
		clear(bk.items)
		bk.items, bk.head = bk.items[:0], 0
		a.free = append(a.free, top.b)
		last := len(a.times) - 1
		a.times[0] = a.times[last]
		a.times = a.times[:last]
		a.down(0)
	}
	a.now = top.at
	a.dispatched++
	a.pending--
	return v
}

func (a *Agenda[T]) up(i int) {
	h := a.times
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (a *Agenda[T]) down(i int) {
	h := a.times
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].at < h[c].at {
			c = r
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
