// Package runner executes independent tasks on a worker pool while
// keeping output deterministic: every task renders into its own buffer
// and results are emitted in input order regardless of completion
// order. Heavier tasks (by their Weight hint) are dispatched first so
// the pool drains with minimal trailing stragglers (LPT scheduling).
package runner

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one independent unit of work. Run receives a private writer;
// nothing a task writes interleaves with any other task.
type Task struct {
	ID    string
	Title string
	// Weight is a relative cost hint used to order dispatch (heaviest
	// first). Zero means 1. It never affects output order.
	Weight int
	Run    func(w io.Writer) error
}

// Result is the structured outcome of one task.
type Result struct {
	ID       string
	Title    string
	Output   string        // everything the task wrote (possibly partial on error)
	Duration time.Duration // wall-clock of the task's Run
	Err      error
}

// Pool executes tasks concurrently.
type Pool struct {
	// Workers is the number of concurrent tasks. Values <= 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

func (p *Pool) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// dispatchOrder returns task indices sorted by descending Weight,
// ties broken by input order, so long-running tasks start first.
func dispatchOrder(tasks []Task) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := tasks[order[a]].Weight, tasks[order[b]].Weight
		if wa == 0 {
			wa = 1
		}
		if wb == 0 {
			wb = 1
		}
		return wa > wb
	})
	return order
}

// Run executes all tasks and returns their results in input order.
func (p *Pool) Run(tasks []Task) []Result {
	results := make([]Result, 0, len(tasks))
	p.Stream(tasks, func(r Result) bool {
		results = append(results, r)
		return true
	})
	return results
}

// Stream executes all tasks, calling emit for each result in input
// order as soon as it and every predecessor have completed. emit runs
// on the calling goroutine; returning false stops the pool early:
// in-flight tasks still finish (their results are dropped) and tasks
// not yet started are skipped.
func (p *Pool) Stream(tasks []Task, emit func(Result) bool) {
	n := len(tasks)
	if n == 0 {
		return
	}

	// Each task owns a 1-buffered slot so workers never block on the
	// emitter and an early emitter exit leaks no goroutines.
	slots := make([]chan Result, n)
	for i := range slots {
		slots[i] = make(chan Result, 1)
	}

	workers := p.workers(n)

	// With one worker LPT reordering cannot improve the makespan — it
	// only delays the emitter (blocked on slot 0) behind heavy tasks,
	// buffering their output. Input order keeps a single worker
	// computing and emitting each task progressively, like a plain
	// sequential loop.
	order := dispatchOrder(tasks)
	if workers == 1 {
		for i := range order {
			order[i] = i
		}
	}

	queue := make(chan int, n)
	for _, i := range order {
		queue <- i
	}
	close(queue)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if stop.Load() {
					continue
				}
				slots[i] <- Exec(tasks[i])
			}
		}()
	}

	for i := 0; i < n; i++ {
		if !emit(<-slots[i]) {
			stop.Store(true)
			break
		}
	}
	wg.Wait()
}

// PanicError is the error of a task whose Run panicked.
type PanicError struct {
	ID    string // the task that panicked
	Value any    // the panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("%s panicked: %v", e.ID, e.Value) }

// Exec runs one task into a private buffer and times it. A panic in
// Run fails that task alone: it becomes the Result's *PanicError, and
// the caller's goroutine carries on.
func Exec(t Task) Result {
	var buf bytes.Buffer
	r := ExecTo(t, &buf)
	r.Output = buf.String()
	return r
}

// ExecTo is Exec writing straight to w instead of a private buffer, so
// the output appears as the task renders it; the Result's Output stays
// empty. A panic fails the task alone, as in Exec.
func ExecTo(t Task, w io.Writer) Result {
	start := time.Now()
	err := call(t, w)
	return Result{
		ID:       t.ID,
		Title:    t.Title,
		Duration: time.Since(start),
		Err:      err,
	}
}

// call runs t, recovering a panic into a *PanicError.
func call(t Task, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{ID: t.ID, Value: r, Stack: debug.Stack()}
		}
	}()
	return t.Run(w)
}
