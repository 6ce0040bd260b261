package sim

// Tests for baton passing: the event loop runs on whichever goroutine
// holds control, so the cases that matter are the ones where a process —
// not Run's caller — fires callbacks, reaches the horizon, sees Stop, or
// reuses its own shell.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"cloudmcp/internal/rng"
)

// mixedWorkload drives a deterministic mix of processes, future timers
// scheduled from processes, zero-delay wake chains, resource contention
// and timer cancellation, and records the exact firing order. The rng
// stream labels are part of the pinned digest below; changing them
// changes the workload.
func mixedWorkload(t *testing.T) []string {
	t.Helper()
	env := NewEnv()
	shared := NewResource(env, "shared", 2)
	var order []string
	stream := rng.Derive(7, "lanes.workload")
	const procs = 12
	for i := 0; i < procs; i++ {
		i := i
		s := rng.Derive(7, fmt.Sprintf("lanes.p%d", i))
		env.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for step := 0; step < 40; step++ {
				p.Sleep(s.Float64() * 0.3)
				order = append(order, fmt.Sprintf("p%d.s%d@%.9f", i, step, p.Now()))
				if step%5 == 0 {
					shared.Acquire(p, 1)
					p.Sleep(0.01)
					shared.Release(1)
				}
				if step%7 == 0 {
					at := 0.06 + s.Float64()*0.2
					env.Schedule(at, func() {
						order = append(order, fmt.Sprintf("cb%d.%d@%.9f", i, step, env.Now()))
					})
				}
			}
		})
	}
	env.Go("churn", func(p *Proc) {
		for k := 0; k < 60; k++ {
			tm := env.Schedule(0.11, func() { order = append(order, fmt.Sprintf("tick@%.9f", env.Now())) })
			p.Sleep(0.03)
			if stream.Float64() < 0.5 {
				tm.Stop()
			}
			p.Sleep(0.05)
		}
	})
	end := env.Run(12)
	if env.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", env.LiveProcs())
	}
	return append(order, fmt.Sprintf("end@%.9f", end))
}

// TestMixedWorkloadOrderPinned pins the exact firing order of the mixed
// workload to the digest the kernel-goroutine design produced: handing
// the baton directly between processes must not reorder a single event.
func TestMixedWorkloadOrderPinned(t *testing.T) {
	const want = "c198c7818708841844cee00253143493aaf6354c8276732688e71edfeaa25ff4"
	order := mixedWorkload(t)
	if len(order) != 586 {
		t.Fatalf("%d records, want 586", len(order))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(order, "\n")))); got != want {
		t.Fatalf("firing order digest %s, want %s", got, want)
	}
	again := mixedWorkload(t)
	for i := range order {
		if again[i] != order[i] {
			t.Fatalf("run-to-run divergence at %d: %q vs %q", i, again[i], order[i])
		}
	}
}

// TestTimerStopFromProcess cancels a future timer from inside a process,
// while the process holds the baton, and checks it never fires and no
// event is left pending.
func TestTimerStopFromProcess(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Go("a", func(p *Proc) {
		p.Sleep(0.001)
		env.Go("b", func(q *Proc) { q.Sleep(0.001) })
		tm := env.Schedule(10, func() { fired++ })
		p.Sleep(0.002)
		if !tm.Stop() {
			t.Error("Stop returned false for a pending event")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
		if _, ok := tm.When(); ok {
			t.Error("When reports a cancelled event")
		}
	})
	env.Run(20)
	if fired != 0 {
		t.Fatalf("cancelled event fired %d times", fired)
	}
	if got := env.Pending(); got != 0 {
		t.Fatalf("pending = %d after drain", got)
	}
}

// TestHorizonEventFromProcess: an event that a process schedules exactly
// at the Run horizon fires, and the horizon check runs on the process's
// goroutine when it holds the baton.
func TestHorizonEventFromProcess(t *testing.T) {
	env := NewEnv()
	hit := false
	env.Go("a", func(p *Proc) {
		p.Sleep(0.9)
		env.Go("b", func(q *Proc) {
			q.Sleep(0.1) // lands exactly at the horizon
			hit = true
		})
	})
	if end := env.Run(1.0); end != 1.0 {
		t.Fatalf("end = %v", end)
	}
	if !hit {
		t.Fatal("event at the horizon did not fire")
	}
}

// TestRunResumesAcrossHorizons: a process that is parked when the
// horizon ends a run hands the baton back to Run's caller, and the next
// Run hands it to the process again.
func TestRunResumesAcrossHorizons(t *testing.T) {
	env := NewEnv()
	ticks := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1)
			ticks++
		}
	})
	for _, until := range []Time{2.5, 2.5, 7, Forever} {
		env.Run(until)
		want := int(until)
		if until == Forever {
			want = 10
		}
		if ticks != want {
			t.Fatalf("after Run(%v): ticks = %d, want %d", until, ticks, want)
		}
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("live procs = %d", env.LiveProcs())
	}
}

// TestStopFromProcess: Stop called by a process ends the run once the
// process yields, and a later Run picks up where it left off.
func TestStopFromProcess(t *testing.T) {
	env := NewEnv()
	var trail []string
	env.Go("a", func(p *Proc) {
		p.Sleep(1)
		env.Stop()
		trail = append(trail, "a-stopped")
		p.Sleep(1)
		trail = append(trail, "a-resumed")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(1.5)
		trail = append(trail, "b")
	})
	if end := env.Run(Forever); end != 1 {
		t.Fatalf("end = %v, want 1", end)
	}
	if strings.Join(trail, ",") != "a-stopped" {
		t.Fatalf("trail after Stop = %v", trail)
	}
	env.Run(Forever)
	if strings.Join(trail, ",") != "a-stopped,b,a-resumed" {
		t.Fatalf("trail = %v", trail)
	}
}

// TestShellReusedByOwnDispatch: a dying process's event loop fires a
// callback that spawns a new process; the spawn takes the shell just
// freed, so the next wakeup is the dying goroutine's own next life and
// it must continue without a handoff (a send to itself would deadlock).
func TestShellReusedByOwnDispatch(t *testing.T) {
	env := NewEnv()
	var trail []string
	env.Go("parent", func(p *Proc) {
		env.Schedule(0, func() {
			env.Go("child", func(q *Proc) {
				trail = append(trail, "child@"+fmt.Sprint(q.Now()))
				q.Sleep(1)
				trail = append(trail, "child-done")
			})
		})
		trail = append(trail, "parent-done")
	})
	env.Run(Forever)
	if got := strings.Join(trail, ","); got != "parent-done,child@0,child-done" {
		t.Fatalf("trail = %s", got)
	}
	if env.LiveProcs() != 0 || len(env.procFree) != 1 {
		t.Fatalf("live=%d free shells=%d, want 0 and 1", env.LiveProcs(), len(env.procFree))
	}
}
