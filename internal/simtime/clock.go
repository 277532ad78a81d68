// Package simtime provides the virtual-time core of the simulated virtual
// machine: a monotonic tick counter and a timer queue used to implement
// sleeping threads in a discrete-event style.
//
// All durations in the reproduction are expressed in ticks. One tick is the
// cost of a single shared-data operation inside a synchronized section,
// matching the paper's decision to make section execution time directly
// proportional to the number of shared-data operations performed (§4.1).
package simtime

import (
	"container/heap"
	"fmt"
)

// Ticks is a span or instant of virtual time.
type Ticks int64

// Clock is a monotonic virtual clock with an associated timer queue. It is
// not safe for concurrent use; the scheduler guarantees single ownership.
type Clock struct {
	now    Ticks
	timers timerQueue
	seq    int64 // tie-breaker so equal deadlines fire FIFO

	// limit is the running thread's fast-charge bound: the instant before
	// which a charge passes no yield point that would act. 0 closes it.
	// The scheduler owns it (see SetLimit); TryAdvance reads it.
	limit Ticks
}

// NewClock returns a clock positioned at tick zero.
func NewClock() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() Ticks { return c.now }

// Advance moves the clock forward by d ticks. It panics if d is negative:
// virtual time never runs backwards.
func (c *Clock) Advance(d Ticks) {
	if d < 0 {
		panic(negativeAdvance(d))
	}
	c.now += d
}

// SetLimit sets the fast-charge bound: TryAdvance succeeds only for
// charges that end before limit. 0 closes the bound.
func (c *Clock) SetLimit(limit Ticks) { c.limit = limit }

// Headroom returns limit − now, or 0 once the bound is closed or reached:
// TryAdvance(d) succeeds exactly for 0 <= d < Headroom().
func (c *Clock) Headroom() Ticks { return max(c.limit-c.now, 0) }

// TryAdvance advances the clock by d and reports true when
// 0 <= d < limit − now; otherwise it leaves the clock alone. It is the
// charge fast path of every barrier and yield point, so it must stay
// small enough to inline into them.
func (c *Clock) TryAdvance(d Ticks) bool {
	if 0 <= d && d < c.limit-c.now {
		c.now += d
		return true
	}
	return false
}

// negativeAdvance is Advance's panic value. Formatting it only when the
// panic is printed keeps Advance small enough to inline into every tick
// charge.
type negativeAdvance Ticks

func (d negativeAdvance) Error() string {
	return fmt.Sprintf("simtime: negative advance %d", int64(d))
}

// Timer is a scheduled wakeup. The payload is opaque to the clock.
type Timer struct {
	Deadline Ticks
	Payload  any

	seq   int64
	index int // heap index, -1 once popped or cancelled
}

// Schedule registers a wakeup at absolute time deadline. Deadlines in the
// past (or at the current instant) are legal and fire on the next Expired
// call.
func (c *Clock) Schedule(deadline Ticks, payload any) *Timer {
	t := &Timer{Deadline: deadline, Payload: payload, seq: c.seq}
	c.seq++
	heap.Push(&c.timers, t)
	return t
}

// ScheduleAfter registers a wakeup d ticks from now.
func (c *Clock) ScheduleAfter(d Ticks, payload any) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %d", d))
	}
	return c.Schedule(c.now+d, payload)
}

// Cancel removes a pending timer. Cancelling an already-fired or cancelled
// timer is a no-op and returns false.
func (c *Clock) Cancel(t *Timer) bool {
	if t == nil || t.index < 0 {
		return false
	}
	heap.Remove(&c.timers, t.index)
	t.index = -1
	return true
}

// PendingTimers reports how many timers are scheduled.
func (c *Clock) PendingTimers() int { return len(c.timers) }

// NextDeadline returns the earliest pending deadline. ok is false when no
// timers are pending.
func (c *Clock) NextDeadline() (deadline Ticks, ok bool) {
	if len(c.timers) == 0 {
		return 0, false
	}
	return c.timers[0].Deadline, true
}

// Expired pops and returns the payload of the earliest timer whose deadline
// is at or before the current time. ok is false when no timer has expired.
func (c *Clock) Expired() (payload any, ok bool) {
	if len(c.timers) == 0 || c.timers[0].Deadline > c.now {
		return nil, false
	}
	t := heap.Pop(&c.timers).(*Timer)
	t.index = -1
	return t.Payload, true
}

// AdvanceToNext jumps the clock to the earliest pending deadline, if any,
// and reports whether a jump happened. It is the discrete-event idle step:
// the scheduler calls it when every thread is sleeping.
func (c *Clock) AdvanceToNext() bool {
	d, ok := c.NextDeadline()
	if !ok {
		return false
	}
	if d > c.now {
		c.now = d
	}
	return true
}

// timerQueue implements heap.Interface ordered by (deadline, seq).
type timerQueue []*Timer

func (q timerQueue) Len() int { return len(q) }

func (q timerQueue) Less(i, j int) bool {
	if q[i].Deadline != q[j].Deadline {
		return q[i].Deadline < q[j].Deadline
	}
	return q[i].seq < q[j].seq
}

func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *timerQueue) Push(x any) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}
