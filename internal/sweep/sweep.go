package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// isCancelEcho reports whether err is just the sweep's own cancellation
// reflected back by a worker: a context error returned after ctx was
// already canceled. Such echoes are racy in which point surfaces them
// first, so they are never promoted to the sweep error; a context error
// returned while ctx is still live is a genuine point failure (e.g. the
// point's own deadline) and is reported normally.
func isCancelEcho(ctx context.Context, err error) bool {
	return (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
		ctx.Err() != nil
}

// RunReduce evaluates a generated sweep in streaming-reduction mode: point
// i's parameter comes from gen(i), each completed result is handed to
// reduce, and nothing else is retained — live memory is O(workers),
// independent of n. This is the batch mode million-point studies pair with
// sim.RunSummary, where each point returns only an O(N) summary.
//
// reduce is called from worker goroutines serialized by an internal mutex,
// in completion order; use the point index to place order-sensitive
// output (a reduce that stores result i at slot i of a pre-sized slice
// yields the results in input order). The first error (including a
// recovered worker panic) cancels outstanding work, and points canceled
// before running are never reported to reduce.
//
// Error reporting is deterministic under cancellation: a point that
// merely echoes the cancellation (returns ctx.Err() after the context
// was canceled) never becomes the sweep error, so a genuine point
// failure racing the cancel is always the one reported, and a sweep
// canceled from outside reports plain ctx.Err() rather than an
// arbitrary "point N: context canceled".
func RunReduce[P, R any](ctx context.Context, n, workers int, gen func(i int) P, fn func(ctx context.Context, p P) (R, error), reduce func(i int, p P, r R)) error {
	if fn == nil {
		return errors.New("sweep: nil worker function")
	}
	if gen == nil {
		return errors.New("sweep: nil point generator")
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var errOnce sync.Once

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue
				}
				p, r, err := callGen(ctx, gen, fn, i)
				if err == nil && reduce != nil {
					err = callReduce(&mu, reduce, i, p, r)
				}
				if err != nil && !isCancelEcho(ctx, err) {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("sweep: point %d: %w", i, err)
						cancel()
					})
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}

// callReduce runs the reduction for one completed point under the mutex,
// with the same panic guard as the worker function: a panicking reduce
// cancels the sweep as an error instead of crashing the process (and the
// deferred unlock keeps the mutex usable either way).
func callReduce[P, R any](mu *sync.Mutex, reduce func(int, P, R), i int, p P, r R) (err error) {
	mu.Lock()
	defer mu.Unlock()
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("reduce panicked: %v", rec)
		}
	}()
	reduce(i, p, r)
	return nil
}

// callGen generates and evaluates point i under a panic guard, so a panic
// in either gen or fn surfaces as that point's error and cancels the
// sweep cleanly. An unguarded panic would unwind the worker's range loop,
// the unbuffered idx channel would lose a receiver, and the feeder would
// block forever once every worker had died.
func callGen[P, R any](ctx context.Context, gen func(int) P, fn func(context.Context, P) (R, error), i int) (p P, r R, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("worker panicked: %v", rec)
		}
	}()
	p = gen(i)
	r, err = fn(ctx, p)
	return
}

// Grid1 builds a float64 grid from lo to hi with n points (inclusive).
func Grid1(lo, hi float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
