package server

// Regression test for snapshot consistency under concurrent readers during
// drain (the audit behind it: farm.Stats/Totals are mutex-guarded, obs
// gauges and the server's admission counter are atomics, and the
// coalescer's WaitGroup gives drain a happens-before edge over every
// result delivery — this test pins those properties under -race while
// shutdown races live traffic and metric scrapes).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
)

func TestDrainUnderConcurrentReaders(t *testing.T) {
	reg := obs.NewRegistry()
	s, base := startTestServer(t, Config{
		Registry:    reg,
		BatchWindow: time.Millisecond,
		// The accounting below equates delivered responses with engine
		// jobs, so the execution cache (which answers repeats without an
		// engine run) must be off.
		MemoCap: -1,
	})

	var accepted, drained atomic.Int64
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup

	// Reader goroutines hammer every snapshot surface while traffic flows
	// and then while drain tears the server down: healthz (farm totals +
	// gauges), the Prometheus rendering (every registered metric), and the
	// in-process accessors.
	jobsDone := reg.Counter("farm_jobs_done_total", "")
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				if resp, err := http.Get(base + "/v1/healthz"); err == nil {
					var h Health
					json.NewDecoder(resp.Body).Decode(&h)
					resp.Body.Close()
					if h.QueueDepth < 0 || h.QueueDepth > h.QueueLimit {
						t.Errorf("torn queue snapshot: %+v", h)
						return
					}
					if h.Status == "draining" {
						drained.Add(1)
					}
				}
				if resp, err := http.Get(base + "/metrics"); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				_ = jobsDone.Value()
				_ = s.QueueDepth()
			}
		}()
	}

	// Writer goroutines submit single runs until drain refuses them.
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				err := postJSONErr(base+"/v1/run", RunRequest{
					Src: farmtest.Generate(farmtest.Seed((w*7 + i) % 20)), Ways: farmtest.Ways,
				})
				if err != nil {
					return // drain refused or connection closed: done
				}
				accepted.Add(1)
			}
		}()
	}

	time.Sleep(100 * time.Millisecond) // let traffic and scrapes overlap
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	writers.Wait()
	close(stopReaders)
	readers.Wait()

	// Drain's contract: every admitted job finished and was accounted.
	if depth := s.QueueDepth(); depth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", depth)
	}
	if got, want := jobsDone.Value(), uint64(accepted.Load()); got < want {
		t.Fatalf("engine completed %d jobs, but %d responses were delivered", got, want)
	}
	if accepted.Load() == 0 {
		t.Fatal("no traffic was accepted before drain; the race window never opened")
	}
}
