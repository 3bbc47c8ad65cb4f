package farm_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
)

// countdownSrc prints n..1 and halts; distinct n gives every job a distinct,
// checkable output.
func countdownSrc(n int) string {
	return fmt.Sprintf(`
	lex $2,%d
	lex $3,-1
	loop:
	lex $0,1
	copy $1,$2
	sys
	add $2,$3
	brt $2,loop
	lex $0,0
	sys
	`, n)
}

// spinSrc never halts: the timeout/cancellation test fixture.
const spinSrc = `
loop:
add $1,$2
br loop
`

func countdownWant(n int) string {
	var b strings.Builder
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "%d\n", i)
	}
	return b.String()
}

func TestRunOrderingAndModes(t *testing.T) {
	var jobs []farm.Job
	for i := 1; i <= 8; i++ {
		mode, name := farm.Functional, fmt.Sprintf("func-%d", i)
		if i%2 == 0 {
			mode, name = farm.Pipelined, fmt.Sprintf("pipe-%d", i)
		}
		jobs = append(jobs, farm.Job{
			Name: name, Src: countdownSrc(i), Mode: mode, Ways: 4,
			Pipeline: pipeline.Config{Stages: 4, Ways: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1},
		})
	}
	results, stats := farm.New(4).Run(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Job != i || res.Name != jobs[i].Name {
			t.Fatalf("result %d misordered: job %d name %q", i, res.Job, res.Name)
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
		if want := countdownWant(i + 1); res.Output != want {
			t.Fatalf("%s printed %q, want %q", res.Name, res.Output, want)
		}
		if pipelined := jobs[i].Mode == farm.Pipelined; (res.Pipe != nil) != pipelined {
			t.Fatalf("%s: Pipe stats presence = %v, want %v", res.Name, res.Pipe != nil, pipelined)
		}
	}
	if stats.Jobs != 8 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Cycles == 0 || stats.Insts == 0 {
		t.Fatalf("stats missing cycle/inst accounting: %+v", stats)
	}
}

// TestWorkerCountInvariance: the batch result must be byte-identical no
// matter how many workers execute it (determinism is part of the farm's
// contract, not a scheduling accident).
func TestWorkerCountInvariance(t *testing.T) {
	var jobs []farm.Job
	for i := 0; i < 24; i++ {
		src := farmtest.Generate(0xFA12 + int64(i))
		mode := farm.Functional
		var pcfg pipeline.Config
		if i%3 == 1 {
			mode = farm.Pipelined
			pcfg, _ = pipeConfigs(i)
		} else if i%3 == 2 {
			mode = farm.Pipelined
			_, pcfg = pipeConfigs(i)
		}
		jobs = append(jobs, farm.Job{Name: fmt.Sprintf("j%d", i), Src: src, Mode: mode, Ways: diffWays, Pipeline: pcfg})
	}
	normalize := func(rs []farm.Result) []farm.Result {
		out := make([]farm.Result, len(rs))
		copy(out, rs)
		for i := range out {
			out[i].Duration = 0
			if out[i].Pipe != nil {
				p := *out[i].Pipe
				out[i].Pipe = &p
			}
		}
		return out
	}
	serial, _ := farm.New(1).Run(context.Background(), jobs)
	wide, _ := farm.New(max(4, runtime.NumCPU())).Run(context.Background(), jobs)
	s, w := normalize(serial), normalize(wide)
	for i := range s {
		if !reflect.DeepEqual(s[i], w[i]) {
			t.Fatalf("job %d differs between 1 worker and many:\n  1: %+v\n  N: %+v", i, s[i], w[i])
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestTimeoutAndBudget: a job that exceeds its wall-clock deadline reports a
// deadline error, a job that exceeds its step budget reports ErrNoHalt, and
// neither poisons the pooled machine for the next tenant.
func TestTimeoutAndBudget(t *testing.T) {
	engine := farm.New(1) // one worker forces every job through the same pool
	jobs := []farm.Job{
		{Name: "deadline", Src: spinSrc, Mode: farm.Functional, Ways: 4, Timeout: 20 * time.Millisecond},
		{Name: "budget", Src: spinSrc, Mode: farm.Functional, Ways: 4, MaxSteps: 10_000},
		{Name: "budget-pipe", Src: spinSrc, Mode: farm.Pipelined,
			Pipeline: pipeline.Config{Stages: 5, Ways: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1},
			MaxSteps: 10_000},
		{Name: "after", Src: countdownSrc(3), Mode: farm.Functional, Ways: 4},
	}
	results, stats := engine.Run(context.Background(), jobs)
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("deadline job: err = %v, want DeadlineExceeded", results[0].Err)
	}
	if !errors.Is(results[1].Err, cpu.ErrNoHalt) {
		t.Fatalf("budget job: err = %v, want cpu.ErrNoHalt", results[1].Err)
	}
	if !errors.Is(results[2].Err, pipeline.ErrNoHalt) {
		t.Fatalf("pipelined budget job: err = %v, want pipeline.ErrNoHalt", results[2].Err)
	}
	if results[3].Err != nil || results[3].Output != countdownWant(3) {
		t.Fatalf("job after failures got dirty state: %+v", results[3])
	}
	if stats.Errors != 3 {
		t.Fatalf("stats.Errors = %d, want 3", stats.Errors)
	}
}

// TestCancelDrains: cancelling the batch context stops in-flight spins and
// marks unstarted jobs, and Run returns with every slot filled.
func TestCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]farm.Job, 16)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("spin-%d", i), Src: spinSrc, Mode: farm.Functional, Ways: 4}
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, stats := farm.New(2).Run(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run took %v after cancellation", elapsed)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want Canceled", i, res.Err)
		}
	}
	if stats.Errors != uint64(len(jobs)) {
		t.Fatalf("stats.Errors = %d, want %d", stats.Errors, len(jobs))
	}
}

// TestCancelledBeforeStart: on a context that is already done no job
// starts, every slot reports ctx.Err(), and the queue accounting still
// drains to zero with one done and one error per job.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]farm.Job, 5)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("spin-%d", i), Src: spinSrc, Ways: 4}
	}
	engine := farm.New(2)
	fo := farm.NewObs(obs.NewRegistry())
	engine.SetObs(fo)
	results, stats := engine.Run(ctx, jobs)
	for i, res := range results {
		if res.Job != i || res.Name != jobs[i].Name || !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("slot %d: job=%d name=%q err=%v, want %d %q Canceled", i, res.Job, res.Name, res.Err, i, jobs[i].Name)
		}
	}
	n := uint64(len(jobs))
	if stats.Errors != n || fo.JobsDone.Value() != n || fo.JobErrors.Value() != n {
		t.Fatalf("errors %d, jobs done %d, job errors %d; want %d each",
			stats.Errors, fo.JobsDone.Value(), fo.JobErrors.Value(), n)
	}
	if fo.JobSeconds.Count() != 0 || fo.QueueDepth.Value() != 0 || fo.InFlight.Value() != 0 {
		t.Fatalf("latency samples %d, queue depth %d, in flight %d; want 0 each",
			fo.JobSeconds.Count(), fo.QueueDepth.Value(), fo.InFlight.Value())
	}
}

// TestPoolReuse: at steady state the pool serves every job without
// allocating new machine state.
func TestPoolReuse(t *testing.T) {
	engine := farm.New(1)
	jobs := make([]farm.Job, 10)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("j%d", i), Src: countdownSrc(2), Mode: farm.Functional, Ways: 4}
	}
	results, stats := engine.Run(context.Background(), jobs)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if stats.PoolHits+stats.PoolMisses != uint64(len(jobs)) {
		t.Fatalf("pool accounting %d+%d != %d jobs", stats.PoolHits, stats.PoolMisses, len(jobs))
	}
	// One worker and one machine class: only the very first job can miss
	// (GC may in principle drop a pooled machine, so allow a little slack,
	// but steady state must be dominated by hits). The race detector
	// randomizes sync.Pool retention on purpose, so the strict bound only
	// holds without it.
	if !raceEnabled && stats.PoolMisses > 2 {
		t.Fatalf("pool misses = %d, want <= 2 (hit rate %.0f%%)", stats.PoolMisses, 100*stats.PoolHitRate())
	}
	// The pools outlive a batch.
	if _, st2 := engine.Run(context.Background(), jobs); !raceEnabled && st2.PoolMisses > 1 {
		t.Fatalf("second batch should be all hits, got %d misses", st2.PoolMisses)
	}
}

// TestBackToBackProgramsOnPooledMachine is the reuse-hazard regression: a
// first program dirties host memory, Tangled registers and Qat registers;
// the second program, executed on the recycled machine, must observe
// factory-clean state.
func TestBackToBackProgramsOnPooledMachine(t *testing.T) {
	// Program A: store a sentinel at 0x7F05, saturate @5, leave garbage in
	// registers.
	progA := `
	lex $3,0x55
	lex $4,5
	lhi $4,0x7F
	store $3,$4
	one @5
	had @6,2
	lex $7,99
	lex $0,0
	sys
	`
	// Program B: read back 0x7F05, measure @5 and @6, and print all three
	// (expect zeros on a clean machine).
	progB := `
	lex $4,5
	lhi $4,0x7F
	load $1,$4
	lex $0,1
	sys
	lex $1,0
	meas $1,@5
	sys
	lex $1,0
	pop $1,@6
	meas $2,@6
	add $1,$2
	sys
	lex $0,0
	sys
	`
	engine := farm.New(1)
	jobs := []farm.Job{
		{Name: "dirty", Src: progA, Mode: farm.Functional, Ways: 4},
		{Name: "probe", Src: progB, Mode: farm.Functional, Ways: 4},
	}
	results, _ := engine.Run(context.Background(), jobs)
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Name, res.Err)
		}
	}
	if want := "0\n0\n0\n"; results[1].Output != want {
		t.Fatalf("probe on recycled machine printed %q, want %q (pooled state leaked)", results[1].Output, want)
	}
	// Same probe on both pipeline organizations, after a dirty pipelined run.
	for _, stages := range []int{4, 5} {
		cfg := pipeline.Config{Stages: stages, Ways: 4, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
		jobs := []farm.Job{
			{Name: "dirty", Src: progA, Mode: farm.Pipelined, Pipeline: cfg},
			{Name: "probe", Src: progB, Mode: farm.Pipelined, Pipeline: cfg},
		}
		results, _ := engine.Run(context.Background(), jobs)
		if results[1].Err != nil {
			t.Fatal(results[1].Err)
		}
		if want := "0\n0\n0\n"; results[1].Output != want {
			t.Fatalf("%d-stage probe printed %q, want %q", stages, results[1].Output, want)
		}
	}
}

// TestJobErrors: malformed jobs fail individually without disturbing their
// neighbors.
func TestJobErrors(t *testing.T) {
	jobs := []farm.Job{
		{Name: "empty"},
		{Name: "badasm", Src: "frobnicate $1,$2\n"},
		{Name: "badways", Src: countdownSrc(1), Ways: 99},
		{Name: "badcfg", Src: countdownSrc(1), Mode: farm.Pipelined,
			Pipeline: pipeline.Config{Stages: 7, Ways: 4, MulLatency: 1, QatNextLatency: 1}},
		{Name: "badpipeways", Src: countdownSrc(1), Mode: farm.Pipelined,
			Pipeline: pipeline.Config{Stages: 5, Ways: 99, MulLatency: 1, QatNextLatency: 1}},
		{Name: "good", Src: countdownSrc(2), Ways: 4},
	}
	results, stats := farm.New(2).Run(context.Background(), jobs)
	if !errors.Is(results[0].Err, farm.ErrNoProgram) {
		t.Fatalf("empty job: %v", results[0].Err)
	}
	for i := 1; i <= 4; i++ {
		if results[i].Err == nil {
			t.Fatalf("job %s should have failed", results[i].Name)
		}
	}
	if results[5].Err != nil || results[5].Output != countdownWant(2) {
		t.Fatalf("good job: %+v", results[5])
	}
	if stats.Errors != 5 {
		t.Fatalf("stats.Errors = %d, want 5", stats.Errors)
	}
}

// TestSharedProgramAcrossJobs: many jobs sharing one *asm.Program must not
// interfere (the program is read-only to the machines).
func TestSharedProgramAcrossJobs(t *testing.T) {
	prog, err := asm.Assemble(countdownSrc(4))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]farm.Job, 12)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("shared-%d", i), Prog: prog, Mode: farm.Functional, Ways: 4}
	}
	results, _ := farm.New(4).Run(context.Background(), jobs)
	for _, res := range results {
		if res.Err != nil || res.Output != countdownWant(4) {
			t.Fatalf("%s: %+v", res.Name, res)
		}
	}
}

// TestPerJobContext: Job.Ctx bounds one job without poisoning the batch —
// the serving layer's per-request deadline/disconnect propagation path.
func TestPerJobContext(t *testing.T) {
	// A program that never halts within the budget: a tight infinite loop.
	spin := "lex $1,1\nL:\nbrt $1,L\n"
	fine := "lex $1,7\nlex $0,0\nsys\n"

	expired, cancelExpired := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelExpired()
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()

	jobs := []farm.Job{
		{Name: "deadline", Src: spin, Ways: diffWays, Ctx: expired},
		{Name: "cancelled", Src: spin, Ways: diffWays, Ctx: cancelled},
		{Name: "fine", Src: fine, Ways: diffWays},
	}
	results, stats := farm.New(2).Run(context.Background(), jobs)
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("deadline job: err = %v, want DeadlineExceeded", results[0].Err)
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("cancelled job: err = %v, want Canceled", results[1].Err)
	}
	if results[2].Err != nil || results[2].Regs[1] != 7 {
		t.Errorf("fine job poisoned by neighbors: err=%v regs=%v", results[2].Err, results[2].Regs)
	}
	if stats.Errors != 2 {
		t.Errorf("stats.Errors = %d, want 2", stats.Errors)
	}
}
