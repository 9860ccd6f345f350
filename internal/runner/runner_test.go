package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sleepyTask writes its ID after a delay, so completion order differs
// wildly from input order.
func sleepyTask(id string, d time.Duration) Task {
	return Task{
		ID:    id,
		Title: "task " + id,
		Run: func(w io.Writer) error {
			time.Sleep(d)
			fmt.Fprintf(w, "output of %s\n", id)
			return nil
		},
	}
}

func TestRunEmitsInInputOrder(t *testing.T) {
	// Later tasks finish first: input order must still win.
	tasks := []Task{
		sleepyTask("a", 30*time.Millisecond),
		sleepyTask("b", 20*time.Millisecond),
		sleepyTask("c", 10*time.Millisecond),
		sleepyTask("d", 0),
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		p := Pool{Workers: workers}
		results := p.Run(tasks)
		if len(results) != len(tasks) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(tasks))
		}
		for i, r := range results {
			if r.ID != tasks[i].ID {
				t.Errorf("workers=%d: result %d = %s, want %s", workers, i, r.ID, tasks[i].ID)
			}
			if want := "output of " + tasks[i].ID + "\n"; r.Output != want {
				t.Errorf("workers=%d: output %q, want %q", workers, r.Output, want)
			}
			if r.Title != "task "+tasks[i].ID {
				t.Errorf("workers=%d: title %q", workers, r.Title)
			}
			if r.Duration < 0 {
				t.Errorf("workers=%d: negative duration", workers)
			}
		}
	}
}

func TestStreamOrderedEmission(t *testing.T) {
	tasks := []Task{
		sleepyTask("z-last-alphabetically-first-input", 25*time.Millisecond),
		sleepyTask("a", 0),
		sleepyTask("m", 5*time.Millisecond),
	}
	var got []string
	p := Pool{Workers: 3}
	p.Stream(tasks, func(r Result) bool {
		got = append(got, r.ID)
		return true
	})
	want := []string{"z-last-alphabetically-first-input", "a", "m"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("emission order %v, want %v", got, want)
	}
}

func TestStreamEarlyStop(t *testing.T) {
	var ran atomic.Int32
	mk := func(id string, err error) Task {
		return Task{ID: id, Run: func(w io.Writer) error {
			ran.Add(1)
			fmt.Fprintf(w, "partial %s", id)
			return err
		}}
	}
	boom := errors.New("boom")
	tasks := []Task{mk("ok1", nil), mk("bad", boom), mk("ok2", nil)}
	var emitted []string
	p := Pool{Workers: 2}
	p.Stream(tasks, func(r Result) bool {
		emitted = append(emitted, r.ID)
		return r.Err == nil
	})
	if want := "ok1,bad"; strings.Join(emitted, ",") != want {
		t.Errorf("emitted %v, want %s", emitted, want)
	}
	// The first two tasks ran; ok2 is skipped if the stop flag beat its
	// dispatch, and runs to completion (result dropped) if not.
	if n := ran.Load(); n < 2 || n > 3 {
		t.Errorf("tasks ran %d times, want 2 or 3", n)
	}
}

// A stopped pool skips tasks still in the queue: both workers are
// parked on gates while the emitter rejects the first result, so by
// the time either worker reaches the queued task the stop flag is
// long since set and the task must never start.
func TestStreamStopSkipsQueuedTasks(t *testing.T) {
	gate := make(chan struct{})
	var skippedRan atomic.Bool
	hold := func(w io.Writer) error { <-gate; return nil }
	tasks := []Task{
		{ID: "bad", Run: func(w io.Writer) error { return errors.New("boom") }},
		{ID: "held1", Run: hold},
		{ID: "held2", Run: hold},
		{ID: "queued", Run: func(w io.Writer) error { skippedRan.Store(true); return nil }},
	}
	p := Pool{Workers: 2}
	p.Stream(tasks, func(r Result) bool {
		if r.Err != nil {
			// Release the parked workers well after Stream has set the
			// stop flag (it does so immediately after emit returns).
			go func() {
				time.Sleep(50 * time.Millisecond)
				close(gate)
			}()
			return false
		}
		return true
	})
	if skippedRan.Load() {
		t.Error("queued task ran after the pool was stopped")
	}
}

func TestResultCarriesErrorAndPartialOutput(t *testing.T) {
	boom := errors.New("kernel exploded")
	p := Pool{Workers: 1}
	results := p.Run([]Task{{ID: "x", Run: func(w io.Writer) error {
		io.WriteString(w, "half a table")
		return boom
	}}})
	r := results[0]
	if !errors.Is(r.Err, boom) {
		t.Errorf("err = %v, want %v", r.Err, boom)
	}
	if r.Output != "half a table" {
		t.Errorf("partial output %q lost", r.Output)
	}
}

func TestDispatchOrderHeaviestFirst(t *testing.T) {
	tasks := []Task{
		{ID: "light"}, // zero weight counts as 1
		{ID: "heavy", Weight: 100},
		{ID: "mid", Weight: 10},
		{ID: "light2", Weight: 1},
	}
	order := dispatchOrder(tasks)
	got := make([]string, len(order))
	for i, idx := range order {
		got[i] = tasks[idx].ID
	}
	want := "heavy,mid,light,light2" // ties keep input order
	if strings.Join(got, ",") != want {
		t.Errorf("dispatch order %v, want %s", got, want)
	}
}

// A single worker must execute in input order — LPT reordering would
// only delay the in-order emitter behind heavy tasks, buffering their
// output instead of streaming it.
func TestSingleWorkerRunsInInputOrder(t *testing.T) {
	var mu sync.Mutex
	var ranOrder []string
	mk := func(id string, weight int) Task {
		return Task{ID: id, Weight: weight, Run: func(w io.Writer) error {
			mu.Lock()
			ranOrder = append(ranOrder, id)
			mu.Unlock()
			return nil
		}}
	}
	tasks := []Task{mk("light", 1), mk("heavy", 100), mk("mid", 10)}
	p := Pool{Workers: 1}
	p.Run(tasks)
	if want := "light,heavy,mid"; strings.Join(ranOrder, ",") != want {
		t.Errorf("single worker ran %v, want input order %s", ranOrder, want)
	}
}

func TestWeightsDoNotAffectResultOrder(t *testing.T) {
	tasks := []Task{
		{ID: "first", Weight: 1, Run: func(w io.Writer) error { return nil }},
		{ID: "second", Weight: 999, Run: func(w io.Writer) error { return nil }},
	}
	p := Pool{Workers: 2}
	results := p.Run(tasks)
	if results[0].ID != "first" || results[1].ID != "second" {
		t.Errorf("result order %s,%s — weights leaked into output order",
			results[0].ID, results[1].ID)
	}
}

// A panicking task fails alone: its result carries a *PanicError that
// names it, and every other task still runs and reports.
func TestPanickingTaskIsolated(t *testing.T) {
	ok := func(id string) Task {
		return Task{ID: id, Run: func(w io.Writer) error {
			fmt.Fprint(w, id)
			return nil
		}}
	}
	tasks := []Task{ok("a"), {ID: "boom", Run: func(w io.Writer) error {
		fmt.Fprint(w, "partial")
		panic("kaboom")
	}}, ok("c"), ok("d")}
	for _, workers := range []int{1, 3} {
		p := Pool{Workers: workers}
		results := p.Run(tasks)
		if len(results) != len(tasks) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), len(tasks))
		}
		var pe *PanicError
		if !errors.As(results[1].Err, &pe) || pe.ID != "boom" || pe.Value != "kaboom" {
			t.Errorf("workers=%d: panicking task err = %v, want a PanicError for boom", workers, results[1].Err)
		}
		if msg := fmt.Sprint(results[1].Err); !strings.Contains(msg, "boom") || !strings.Contains(msg, "kaboom") {
			t.Errorf("workers=%d: error %q does not name the task and the panic", workers, msg)
		}
		for _, i := range []int{0, 2, 3} {
			if r := results[i]; r.Err != nil || r.Output != r.ID {
				t.Errorf("workers=%d: task %s = (%q, %v), want its output and no error", workers, r.ID, r.Output, r.Err)
			}
		}
	}
}

func TestRunNoTasks(t *testing.T) {
	p := Pool{Workers: 4}
	if results := p.Run(nil); len(results) != 0 {
		t.Errorf("got %d results from no tasks", len(results))
	}
}

func TestWorkersClamped(t *testing.T) {
	p := Pool{Workers: -3}
	if w := p.workers(5); w < 1 {
		t.Errorf("workers(5) with negative setting = %d", w)
	}
	p = Pool{Workers: 100}
	if w := p.workers(2); w != 2 {
		t.Errorf("workers(2) = %d, want clamp to task count", w)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	in := []Result{
		{ID: "fig1", Title: "a figure", Output: "cells & <charts>\n", Duration: 1500 * time.Millisecond},
		{ID: "fig2", Title: "broken", Output: "partial", Duration: time.Millisecond, Err: errors.New("no converge")},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round-trip lost results: %d", len(out))
	}
	if out[0].ID != "fig1" || out[0].Output != in[0].Output || out[0].Err != nil {
		t.Errorf("result 0 mangled: %+v", out[0])
	}
	if out[0].Duration != in[0].Duration {
		t.Errorf("duration %v, want %v", out[0].Duration, in[0].Duration)
	}
	if out[1].Err == nil || out[1].Err.Error() != "no converge" {
		t.Errorf("error not preserved: %v", out[1].Err)
	}
}
