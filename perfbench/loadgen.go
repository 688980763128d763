package main

import (
	"runtime"
	"syscall"
	"time"
)

// waitUntil returns at t. The runtime's timers wake up to a millisecond
// late, which would swamp sub-millisecond service times, so the wait is a
// thread-blocking nanosleep (the kernel's high-resolution timer) that stops
// short of t, then a brief yielding spin.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*spinLead {
		ts := syscall.NsecToTimespec(int64(d - spinLead))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinLead is how far ahead of a due time the sender stops sleeping.
const spinLead = 150 * time.Microsecond

// reqTiming is one request as the client saw it. due is when an open-loop
// schedule meant to send it (the send time in a closed loop).
type reqTiming struct {
	id             string
	due, sent, got time.Time
}

func (t reqTiming) latency() time.Duration { return t.got.Sub(t.due) }
func (t reqTiming) rtt() time.Duration     { return t.got.Sub(t.sent) }
func (t reqTiming) late() time.Duration    { return t.sent.Sub(t.due) }

// openLoop sends n requests on a fixed schedule of rate per second starting
// at start, one at a time from the calling goroutine; a request that is
// still running when the next falls due delays it, and that delay counts in
// the next request's latency (timed from its due time).
func openLoop(start time.Time, rate float64, n int, send func(i int) string) []reqTiming {
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]reqTiming, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		sent := time.Now()
		id := send(i)
		out[i] = reqTiming{id: id, due: due, sent: sent, got: time.Now()}
	}
	return out
}

// closedLoop sends requests back to back until end and returns their
// timings.
func closedLoop(end time.Time, send func(i int) string) []reqTiming {
	var out []reqTiming
	for i := 0; time.Now().Before(end); i++ {
		sent := time.Now()
		id := send(i)
		out = append(out, reqTiming{id: id, due: sent, sent: sent, got: time.Now()})
	}
	return out
}
