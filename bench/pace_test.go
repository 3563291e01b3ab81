package main

import (
	"testing"
	"time"
)

// TestOpenLoopCountsGeneratorStall injects a 50 ms stall into the
// generator. An open loop times every event from when it was due, so the
// ticks that fell due during the stall must show it both in their
// latency and in the generator's reported lateness.
func TestOpenLoopCountsGeneratorStall(t *testing.T) {
	const (
		tick  = time.Millisecond
		ticks = 100
		stall = 50 * time.Millisecond
	)
	lat := make([]int64, ticks)
	late := pace(now()+int64(tick), tick, ticks, func(k int, due int64) {
		if k == 10 {
			time.Sleep(stall)
		}
		lat[k] = now() - due // a handler that runs the instant the event is sent
	})
	if len(late) != ticks {
		t.Fatalf("%d lateness samples for %d ticks", len(late), ticks)
	}
	// Tick 11 fell due 1 ms into the stall and waited out the other 49.
	if got := time.Duration(lat[11]); got < 45*time.Millisecond || got > 60*time.Millisecond {
		t.Errorf("latency of the first stalled tick = %v, want about 49ms", got)
	}
	if got := time.Duration(late[11]); got < 45*time.Millisecond {
		t.Errorf("lateness of the first stalled tick = %v, want about 49ms", got)
	}
	// About fifty ticks ran late, by 49 ms down to nothing: the p99 sees it.
	if got := time.Duration(percentile(late, 0.99)); got < 40*time.Millisecond {
		t.Errorf("late p99 = %v, want the stall to show", got)
	}
	// The loop caught up: the last ticks are on time again.
	if got := time.Duration(late[ticks-1]); got > 5*time.Millisecond {
		t.Errorf("lateness of the last tick = %v: the generator never caught up", got)
	}
	// And before the stall it ran on time (a loaded test box may jitter).
	if got := time.Duration(late[5]); got > 5*time.Millisecond {
		t.Errorf("lateness before the stall = %v", got)
	}
}
