package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// lateTimerCtx is a context whose deadline has passed but whose timer has
// not fired yet: Err is still nil, as it is for a real context in the
// instant after its deadline.
type lateTimerCtx struct {
	context.Context
	deadline time.Time
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestDispatchDeadlineAlreadyPast: a job whose deadline lies before the
// dispatch instant must fail with DeadlineExceeded without running, even
// when its context's timer has not fired yet.
func TestDispatchDeadlineAlreadyPast(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2, Threads: 1, Count: 1}}})
	req := Request{Tenant: "a", Edges: testEdges(1, 40, 100)}
	j := &Job{
		id:        1,
		tenant:    req.Tenant,
		req:       req,
		ctx:       lateTimerCtx{context.Background(), time.Now().Add(-time.Millisecond)},
		cancel:    func() {},
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.dispatch(s.machines[0], []*Job{j})
	rep, err, ok := j.Result()
	if !ok {
		t.Fatal("job did not finish at dispatch")
	}
	if !errors.Is(err, context.DeadlineExceeded) || rep != nil {
		t.Fatalf("dispatch past the deadline: rep=%v err=%v, want no report and DeadlineExceeded", rep != nil, err)
	}
}

// TestStatsReadStraightAfterWait: once Wait returns, the job is already
// counted — Stats read immediately afterwards must include it. Each client
// is the only submitter of its tenant, so after its i-th Wait the tenant's
// completed count is exactly i. Publishing before counting shows up here
// once clients run in parallel (GOMAXPROCS >= 2).
func TestStatsReadStraightAfterWait(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 1, Threads: 1, Count: 2}}, DefaultWeight: 1})
	edges := testEdges(3, 8, 12)
	const clients, jobs = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 1; i <= jobs; i++ {
				j, err := s.Submit(Request{Tenant: tenant, Edges: edges, NoBatch: true})
				if err != nil {
					errs <- err
					return
				}
				if _, err := j.Wait(context.Background()); err != nil {
					errs <- err
					return
				}
				for _, ts := range s.Stats().Tenants {
					if ts.Name == tenant && ts.Completed != int64(i) {
						errs <- fmt.Errorf("tenant %s: Stats counts %d completed right after job %d's Wait", tenant, ts.Completed, i)
						return
					}
				}
			}
		}(fmt.Sprintf("t%d", c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSubmitWakesMatchingShape: workers of different shapes wait on one
// queue, and a new job must reach a worker of its shape even when a worker
// of another shape has waited longer. After each job the 2-PE worker waits
// again behind the idle 4-PE worker, which is the one a single wake-up
// would pick.
func TestSubmitWakesMatchingShape(t *testing.T) {
	s := newTestServer(t, Config{Pool: []PoolShape{{PEs: 2, Threads: 1, Count: 1}, {PEs: 4, Threads: 1, Count: 1}}})
	req := Request{Tenant: "a", PEs: 2, Edges: testEdges(5, 20, 60)}
	for i := 0; i < 4; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err = j.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("job %d: %v (stranded in the queue?)", i, err)
		}
		time.Sleep(20 * time.Millisecond) // let the worker re-enter the wait
	}
}
