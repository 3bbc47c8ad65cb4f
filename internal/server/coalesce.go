package server

// The dynamic-batching coalescer: single-program submissions (POST /v1/run)
// are grouped into farm batches under a latency window, so a storm of
// independent HTTP requests amortizes worker scheduling and machine-pool
// traffic the same way an explicit /v1/batch does. The rule is the standard
// inference-serving one: the first submission opens a window; the batch is
// flushed when the window elapses or the batch reaches its size cap,
// whichever comes first. Each submission still carries its own context
// (farm.Job.Ctx), so one slow or disconnected client never holds back the
// rest of its batch.

import (
	"context"
	"sync"
	"time"

	"tangled/internal/farm"
)

// submission is one coalesced job and the channel its result goes back on.
type submission struct {
	job  farm.Job
	done chan farm.Result // buffered; receives exactly one result
}

// coalescer owns the batching loop. Submissions enter through submit;
// stop() closes the intake and waits for every accepted submission's batch
// to finish, which is the serving layer's drain barrier.
type coalescer struct {
	engine *farm.Engine
	window time.Duration
	max    int
	obs    *serverObs

	in      chan *submission
	stopped chan struct{}
	flushes sync.WaitGroup

	stopOnce sync.Once
}

func newCoalescer(engine *farm.Engine, window time.Duration, max int, so *serverObs) *coalescer {
	c := &coalescer{
		engine:  engine,
		window:  window,
		max:     max,
		obs:     so,
		in:      make(chan *submission),
		stopped: make(chan struct{}),
	}
	go c.loop()
	return c
}

// submit hands one job to the coalescer and returns the channel its result
// will arrive on. It returns false when the coalescer has been stopped.
func (c *coalescer) submit(job farm.Job) (<-chan farm.Result, bool) {
	sub := &submission{job: job, done: make(chan farm.Result, 1)}
	select {
	case c.in <- sub:
		return sub.done, true
	case <-c.stopped:
		return nil, false
	}
}

// loop is the batching state machine.
func (c *coalescer) loop() {
	var batch []*submission
	var timer *time.Timer
	var window <-chan time.Time
	flush := func() {
		if len(batch) == 0 {
			return
		}
		c.run(batch)
		batch = nil
		if timer != nil {
			timer.Stop()
			timer, window = nil, nil
		}
	}
	for {
		select {
		case sub := <-c.in:
			batch = append(batch, sub)
			if len(batch) >= c.max {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(c.window)
				window = timer.C
			}
		case <-window:
			timer, window = nil, nil
			flush()
		case <-c.stopped:
			flush()
			return
		}
	}
}

// run executes one formed batch on the engine, asynchronously so the loop
// keeps forming the next batch while this one runs.
func (c *coalescer) run(batch []*submission) {
	jobs := make([]farm.Job, len(batch))
	for i, sub := range batch {
		jobs[i] = sub.job
	}
	c.obs.batchSize.Observe(float64(len(batch)))
	c.flushes.Add(1)
	go func() {
		defer c.flushes.Done()
		// The batch context is Background: per-request deadlines and
		// disconnects ride each job's own Ctx, and drain never abandons
		// admitted work.
		results, _ := c.engine.Run(context.Background(), jobs)
		for i, sub := range batch {
			sub.done <- results[i]
		}
	}()
}

// stop closes the intake, flushes the pending batch, and waits for every
// in-flight batch to deliver its results.
func (c *coalescer) stop() {
	c.stopOnce.Do(func() { close(c.stopped) })
	c.flushes.Wait()
}
