package sim

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"
)

// The debug event trace (CLOUDMCP_DEBUG_EVENTS=1) must go to stderr:
// stdout carries the CLIs' artifacts, and enabling a diagnostic must not
// corrupt a piped or diffed run. This test runs a simulation busy enough
// to emit trace lines and asserts stdout stays clean while stderr gets
// the trace.
func TestDebugEventsLeaveStdoutClean(t *testing.T) {
	oldDebug, oldEvery := debugEvents, debugEventEvery
	debugEvents, debugEventEvery = true, 10
	defer func() { debugEvents, debugEventEvery = oldDebug, oldEvery }()

	capture := func(f **os.File) (restore func() string) {
		orig := *f
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		*f = w
		done := make(chan string, 1)
		go func() {
			var buf bytes.Buffer
			io.Copy(&buf, r)
			done <- buf.String()
		}()
		return func() string {
			w.Close()
			*f = orig
			return <-done
		}
	}
	restoreOut := capture(&os.Stdout)
	restoreErr := capture(&os.Stderr)

	env := NewEnv()
	var tick func()
	n := 0
	tick = func() {
		if n++; n < 100 {
			env.Schedule(1, tick)
		}
	}
	env.Schedule(1, tick)
	env.Run(Forever)

	stdout := restoreOut()
	stderr := restoreErr()
	if stdout != "" {
		t.Fatalf("debug event trace leaked to stdout: %q", stdout)
	}
	if stderr == "" {
		t.Fatal("expected a debug event trace on stderr, got none")
	}
}

// The kernel's steady-state scheduling paths must not allocate: events
// are pooled, wakeups carry the process on the event instead of a
// closure, and resource waiters are recycled. These guards pin the
// allocation count at zero so a regression fails loudly. The timing
// benchmarks for the same paths are the kernel/* rows of cmd/mcpbench's
// kernel suite (go test -run '^$' -bench=Kernel ./cmd/mcpbench).

func TestScheduleAllocFree(t *testing.T) {
	env := NewEnv()
	fn := func() {}
	// Warm the pool: one event is allocated on first use, then recycled.
	env.Schedule(0, fn)
	env.Run(Forever)
	allocs := testing.AllocsPerRun(100, func() {
		env.Schedule(0, fn)
		env.Run(Forever)
	})
	if allocs != 0 {
		t.Fatalf("Schedule+Run steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestSleepChainAllocFree(t *testing.T) {
	// A process sleeping in a loop is the kernel's most common block/
	// resume pattern; after warmup each iteration must be allocation-free
	// (the wakeup rides the pooled event's Proc field, not a closure).
	env := NewEnv()
	var allocs float64
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(1) // warm the event pool
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(1) })
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("Sleep steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestResourceAcquireAllocFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 2)
	// Warm up: first acquire allocates the waiter record and queue array.
	env.Go("warm", func(p *Proc) {
		res.Acquire(p, 1)
		res.Release(1)
	})
	env.Run(Forever)
	var allocs float64
	env.Go("measure", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			res.Acquire(p, 1)
			res.Release(1)
		})
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("uncontended Acquire/Release allocates %.1f/op, want 0", allocs)
	}
}

func TestQueueGetAllocFree(t *testing.T) {
	// A consumer blocked in Get and a producer feeding it: the getter
	// record is recycled and the item and getter FIFOs reuse their
	// backing arrays, so the steady-state cycle allocates nothing.
	env := NewEnv()
	q := NewQueue(env)
	var allocs float64
	env.Go("consumer", func(p *Proc) {
		for q.Get(p) != nil {
		}
	})
	env.Go("producer", func(p *Proc) {
		cycle := func() {
			q.Put(1) // wakes the blocked consumer
			q.Put(2) // buffered: the consumer has not run yet
			p.Sleep(1)
		}
		cycle() // warm the getter pool and both arrays
		allocs = testing.AllocsPerRun(100, cycle)
		q.Put(nil)
	})
	env.Run(Forever)
	if allocs != 0 {
		t.Fatalf("Queue Put/Get steady state allocates %.1f/op, want 0", allocs)
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", env.LiveProcs())
	}
}

func TestGoAllocFree(t *testing.T) {
	// Spawning a process and running it to completion reuses a finished
	// shell (Proc, resume channel and goroutine) and schedules its start
	// as a plain wake event, so a warmed Env allocates nothing.
	env := NewEnv()
	body := func(p *Proc) { p.Sleep(1) }
	env.Go("warm", body)
	env.Run(Forever)
	allocs := testing.AllocsPerRun(100, func() {
		env.Go("p", body)
		env.Run(Forever)
	})
	if allocs != 0 {
		t.Fatalf("Go+Run steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestShellsBoundGoroutines(t *testing.T) {
	// 10^4 sequential short-lived processes run on a handful of reused
	// shells, not on 10^4 goroutines.
	env := NewEnv()
	before := runtime.NumGoroutine()
	peak := 0
	env.Go("spawner", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			env.Go("child", func(q *Proc) { q.Sleep(0.5) })
			p.Sleep(1)
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	})
	env.Run(Forever)
	if grew := peak - before; grew > 4 {
		t.Fatalf("goroutines grew by %d over 10^4 sequential processes, want <= 4", grew)
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", env.LiveProcs())
	}
}

func TestGoBeforeRunStartsNoGoroutine(t *testing.T) {
	// A shell's goroutine starts when the baton first reaches it, so
	// building a model (which spawns its long-lived processes) creates
	// no goroutines before Run.
	env := NewEnv()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		env.Go("idle", func(p *Proc) {})
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("Go started %d goroutines before Run", n-before)
	}
	env.Run(Forever)
	if env.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", env.LiveProcs())
	}
}

// Same-time FIFO queue: ordering must match the heap exactly when events
// at the current instant interleave with earlier-scheduled events at the
// same timestamp, including cancellations.
func TestNowQueueInterleavesWithHeap(t *testing.T) {
	env := NewEnv()
	var got []int
	// Heap events at t=5, seq 0,1,2.
	for i := 0; i < 3; i++ {
		i := i
		env.Schedule(5, func() {
			got = append(got, i)
			// Schedule same-time events from within t=5: they must run
			// after every already-scheduled t=5 event, in FIFO order.
			env.Schedule(0, func() { got = append(got, 10+i) })
		})
	}
	env.Run(Forever)
	want := []int{0, 1, 2, 10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestNowQueueStop(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(1, func() {
		a := env.Schedule(0, func() { got = append(got, 1) })
		env.Schedule(0, func() { got = append(got, 2) })
		if !a.Stop() {
			t.Error("Stop on same-time event = false")
		}
		if a.Stop() {
			t.Error("second Stop = true")
		}
	})
	env.Run(Forever)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("got %v, want [2]", got)
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", env.Pending())
	}
}
