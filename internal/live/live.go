// Package live executes multicast schedules on a concurrent miniature
// HNOW: one goroutine per workstation, channels as network links, and
// wall-clock sleeps standing in for sending/receiving overheads and
// network latency.
//
// This is the substitution for the paper's physical testbed: goroutines
// model the heterogeneous nodes, so a schedule's predicted completion time
// can be compared against an actual concurrent execution (experiment E8).
// The executor scales abstract time units by a configurable duration; unit
// sizes around a millisecond keep scheduling noise well below the signal
// for the instance sizes the tests use.
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
)

// Config tunes the executor.
type Config struct {
	// Unit is the wall-clock duration of one abstract time unit
	// (default 500 microseconds).
	Unit time.Duration
	// Timeout aborts a run that exceeds it (default: 30s).
	Timeout time.Duration
}

func (c *Config) fill() {
	if c.Unit <= 0 {
		c.Unit = 500 * time.Microsecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
}

// Result reports the measured execution.
type Result struct {
	// Delivery and Reception are measured times in abstract units
	// (wall-clock divided by Unit), per node.
	Delivery, Reception []float64
	// RT is the measured reception completion time in abstract units.
	RT float64
	// Wall is the total wall-clock duration of the run.
	Wall time.Duration
}

type message struct {
	deliveredAt time.Time
}

// Run executes the schedule concurrently and measures per-node timings.
// The returned measurements are in abstract units for direct comparison
// with model.ComputeTimes; expect small positive skew from goroutine
// scheduling overhead.
func Run(sch *model.Schedule, cfg Config) (*Result, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	set := sch.Set
	n := len(set.Nodes)
	inboxes := make([]chan message, n)
	for i := range inboxes {
		inboxes[i] = make(chan message, 1)
	}
	res := &Result{
		Delivery:  make([]float64, n),
		Reception: make([]float64, n),
	}
	var mu sync.Mutex
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()

	units := func(t time.Time) float64 { return float64(t.Sub(start)) / float64(cfg.Unit) }
	sleep := func(d int64) error {
		select {
		case <-time.After(time.Duration(d) * cfg.Unit):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	node := func(id model.NodeID) {
		defer wg.Done()
		var receivedAt time.Time
		if id != 0 {
			select {
			case m := <-inboxes[id]:
				receivedAt = m.deliveredAt
			case <-ctx.Done():
				errs <- fmt.Errorf("live: node %d timed out waiting for delivery", id)
				return
			}
			mu.Lock()
			res.Delivery[id] = units(receivedAt)
			mu.Unlock()
			// Receiving overhead: the node is busy absorbing the message.
			if err := sleep(set.Nodes[id].Recv); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			res.Reception[id] = units(time.Now())
			mu.Unlock()
		}
		// Forward to children in delivery order, one send at a time.
		for _, c := range sch.Children(id) {
			if err := sleep(set.Nodes[id].Send); err != nil {
				errs <- err
				return
			}
			child := c
			// Network latency happens off the sender's critical path: the
			// sender is free as soon as the send overhead elapses.
			time.AfterFunc(time.Duration(set.Latency)*cfg.Unit, func() {
				select {
				case inboxes[child] <- message{deliveredAt: time.Now()}:
				case <-ctx.Done():
				}
			})
		}
	}

	for id := 0; id < n; id++ {
		wg.Add(1)
		go node(model.NodeID(id))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Wall = time.Since(start)
	for id := 1; id < n; id++ {
		if res.Reception[id] > res.RT {
			res.RT = res.Reception[id]
		}
	}
	return res, nil
}
