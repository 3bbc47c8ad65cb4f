// Command-line tool tests: build each cmd/ binary and drive it the way a
// user would, checking the documented contracts (exit codes, outputs,
// cross-tool composition).
package tangled_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/server"
)

// buildTool compiles one command into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, stdin string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

func TestToolchainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	asmBin := buildTool(t, dir, "tangled-asm")
	runBin := buildTool(t, dir, "tangled-run")
	disBin := buildTool(t, dir, "tangled-dis")
	recodeBin := buildTool(t, dir, "tangled-recode")

	src := filepath.Join(dir, "prog.asm")
	if err := os.WriteFile(src, []byte(`
	had @123,4
	lex $8,42
	next $8,@123
	copy $1,$8
	lex $0,1
	sys
	lex $0,0
	sys
	`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Assemble to a hex image.
	hex := filepath.Join(dir, "prog.hex")
	if _, stderr, err := runTool(t, asmBin, "", "-o", hex, src); err != nil {
		t.Fatalf("tangled-asm: %v\n%s", err, stderr)
	}

	// Run the source directly (functional).
	out, _, err := runTool(t, runBin, "", src)
	if err != nil || out != "48\n" {
		t.Fatalf("tangled-run source: %q %v", out, err)
	}
	// Run the hex image on the pipeline with stats.
	out, stderr, err := runTool(t, runBin, "", "-pipeline", "-stats", hex)
	if err != nil || out != "48\n" {
		t.Fatalf("tangled-run pipeline: %q %v", out, err)
	}
	if !strings.Contains(stderr, "CPI=") {
		t.Errorf("missing stats: %q", stderr)
	}

	// Disassemble and check the worked example survives.
	out, _, err = runTool(t, disBin, "", hex)
	if err != nil || !strings.Contains(out, "had @123,4") || !strings.Contains(out, "next $8,@123") {
		t.Fatalf("tangled-dis: %q %v", out, err)
	}

	// Transcode to the student encoding and run under -enc student.
	stHex := filepath.Join(dir, "prog-student.hex")
	out, _, err = runTool(t, recodeBin, "", hex)
	if err != nil {
		t.Fatalf("tangled-recode: %v", err)
	}
	if err := os.WriteFile(stHex, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err = runTool(t, runBin, "", "-enc", "student", stHex)
	if err != nil || out != "48\n" {
		t.Fatalf("student-encoded run: %q %v", out, err)
	}
	// The student image must NOT run under the primary decoder.
	if _, _, err = runTool(t, runBin, "", stHex); err == nil {
		t.Fatal("cross-encoding image ran without error")
	}
}

// TestTangledRunAutoWide: at a width past the dense wall the auto planner
// decides on the width alone and computes no profile; the tool must still
// run the program on RE and say why it chose it.
func TestTangledRunAutoWide(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	runBin := buildTool(t, dir, "tangled-run")
	src := filepath.Join(dir, "wide.asm")
	if err := os.WriteFile(src, []byte("\thad @1,4\n\tpop $1,@1\n\tlex $0,0\n\tsys\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ways, want string }{
		{"20", "auto backend: re (width-forced)"},
		{"6", "auto backend: dense (degree bound 1,"},
	} {
		_, stderr, err := runTool(t, runBin, "", "-backend", "auto", "-ways", tc.ways, src)
		if err != nil || !strings.Contains(stderr, tc.want) {
			t.Fatalf("tangled-run -backend auto -ways %s: err %v, stderr %q, want %q", tc.ways, err, stderr, tc.want)
		}
	}
}

func TestQatFactorTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "qatfactor")
	out, _, err := runTool(t, bin, "", "15")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "15 = 5 x 3") {
		t.Errorf("qatfactor 15: %q", out)
	}
	out, _, err = runTool(t, bin, "", "-reuse", "221")
	if err != nil || !strings.Contains(out, "221 = 17 x 13") {
		t.Errorf("qatfactor 221: %q %v", out, err)
	}
	// -asm emits assembly that reassembles.
	out, _, err = runTool(t, bin, "", "-asm", "15")
	if err != nil || !strings.Contains(out, "had @0,0") {
		t.Errorf("qatfactor -asm: %v", err)
	}
	// A prime fails with a diagnostic.
	if _, _, err = runTool(t, bin, "", "13"); err == nil {
		t.Error("factoring a prime succeeded")
	}
}

func TestQatSubsetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "qatsubset")
	out, _, err := runTool(t, bin, "", "10", "2", "3", "5", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "solutions: 2 of 16") {
		t.Errorf("qatsubset: %q", out)
	}
	if !strings.Contains(out, "(sum 10)") {
		t.Errorf("first solution line missing: %q", out)
	}
}

// promSample matches one Prometheus text-format sample line:
// name{optional labels} value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// checkPromFile asserts the file is parseable Prometheus text exposition
// format and returns its contents.
func checkPromFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("unparseable Prometheus line: %q", line)
		}
	}
	return string(data)
}

// checkTraceFile asserts the file is a valid versioned JSONL cycle trace
// and returns its events.
func checkTraceFile(t *testing.T, path string) []obs.TraceEvent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	if len(events) == 0 {
		t.Fatalf("trace %s has no events", path)
	}
	return events
}

func TestObservabilityFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	farmBin := buildTool(t, dir, "qatfarm")
	runBin := buildTool(t, dir, "tangled-run")

	// qatfarm -metrics/-trace: factor three semiprimes and check both exports.
	metrics := filepath.Join(dir, "farm.prom")
	trace := filepath.Join(dir, "farm.jsonl")
	out, stderr, err := runTool(t, farmBin, "", "-metrics", metrics, "-trace", trace, "15", "21", "35")
	if err != nil {
		t.Fatalf("qatfarm: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, "15 = 5 x 3") {
		t.Errorf("qatfarm output: %q", out)
	}
	text := checkPromFile(t, metrics)
	for _, frag := range []string{
		"farm_jobs_done_total 3",
		"farm_job_errors_total 0",
		"# TYPE cpu_op_retired_total counter",
		"# TYPE pipeline_cycles_total counter",
		"# TYPE farm_job_seconds histogram",
		`farm_job_seconds_bucket{le="+Inf"} 3`,
		"qat_aob_word_ops_total",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("qatfarm metrics missing %q", frag)
		}
	}
	for _, ev := range checkTraceFile(t, trace) {
		if len(ev.Stages) == 0 && ev.Event == "" {
			t.Errorf("pipeline trace event with neither stages nor event: %+v", ev)
			break
		}
	}

	// tangled-run, functional and pipelined, same flags.
	src := filepath.Join(dir, "prog.asm")
	if err := os.WriteFile(src, []byte(`
	had @3,4
	lex $8,42
	next $8,@3
	copy $1,$8
	lex $0,1
	sys
	lex $0,0
	sys
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"functional", "pipeline"} {
		metrics := filepath.Join(dir, mode+".prom")
		trace := filepath.Join(dir, mode+".jsonl")
		args := []string{"-metrics", metrics, "-trace", trace}
		if mode == "pipeline" {
			args = append(args, "-pipeline")
		}
		out, stderr, err := runTool(t, runBin, "", append(args, src)...)
		if err != nil || out != "48\n" {
			t.Fatalf("tangled-run %s: %q %v\n%s", mode, out, err, stderr)
		}
		text := checkPromFile(t, metrics)
		for _, frag := range []string{
			"# TYPE cpu_op_retired_total counter",
			`cpu_op_retired_total{op="sys"} 2`,
			`qat_op_executed_total{op="had"} 1`,
			"qat_energy_switched_bits",
		} {
			if !strings.Contains(text, frag) {
				t.Errorf("tangled-run %s metrics missing %q", mode, frag)
			}
		}
		events := checkTraceFile(t, trace)
		if mode == "functional" {
			// One retire event per executed instruction, in program order.
			if events[0].Event != "retire" || events[0].Inst == "" {
				t.Errorf("functional trace head: %+v", events[0])
			}
			if len(events) != 8 {
				t.Errorf("functional trace: %d events, want 8", len(events))
			}
		}
	}
}

func TestExperimentsToolRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "experiments")
	out, _, err := runTool(t, bin, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"pint_measure(f) prints: [0 1 3 5 15]",
		"$8 = 48 (paper: 48)",
		"factors measured:           5 and 3",
		"221 = 17 x 13",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("experiments output missing %q", frag)
		}
	}
}

// TestQatServerClientEndToEnd drives the serving pair the way an operator
// would: start qatserver on an ephemeral port (127.0.0.1:0 + -port-file, so
// parallel test runs never collide), run a program and a load burst through
// qatclient, then SIGTERM the server and check the graceful drain flushed
// its observability artifacts.
func TestQatServerClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	serverBin := buildTool(t, dir, "qatserver")
	clientBin := buildTool(t, dir, "qatclient")

	portFile := filepath.Join(dir, "port.txt")
	metricsFile := filepath.Join(dir, "metrics.prom")
	traceFile := filepath.Join(dir, "trace.jsonl")
	srv := exec.Command(serverBin,
		"-addr", "127.0.0.1:0", "-port-file", portFile,
		"-metrics", metricsFile, "-trace", traceFile)
	var srvLog strings.Builder
	srv.Stderr = &srvLog
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The port file appearing is the "listening" signal.
	var addr string
	for i := 0; i < 100; i++ {
		if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never wrote its port file\n%s", srvLog.String())
	}
	base := "http://" + addr

	// One pipelined program through the run subcommand (stdin form).
	out, stderr, err := runTool(t, clientBin,
		"had @9,3\nlex $8,5\nnext $8,@9\ncopy $1,$8\nlex $0,0\nsys\n",
		"-server", base, "-mode", "pipelined", "run", "-")
	if err != nil {
		t.Fatalf("qatclient run: %v\n%s", err, stderr)
	}
	if !strings.Contains(out, `"insts"`) || strings.Contains(out, `"error"`) {
		t.Fatalf("run output: %s", out)
	}

	// Health via the client.
	out, stderr, err = runTool(t, clientBin, "", "-server", base, "health")
	if err != nil || !strings.Contains(out, `"status": "ok"`) {
		t.Fatalf("qatclient health: %v %s\n%s", err, out, stderr)
	}

	// A load burst, with the saturation phase, writing the bench report.
	benchFile := filepath.Join(dir, "BENCH_server.json")
	_, stderr, err = runTool(t, clientBin, "",
		"-server", base, "-load", "40", "-concurrency", "8", "-saturate", "-out", benchFile)
	if err != nil {
		t.Fatalf("qatclient -load: %v\n%s", err, stderr)
	}
	bench, err := os.ReadFile(benchFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"ok": 40`, `"failed": 0`, `"req_per_sec"`} {
		if !strings.Contains(string(bench), frag) {
			t.Fatalf("bench report missing %s:\n%s", frag, bench)
		}
	}

	// Graceful drain: SIGTERM, clean exit, artifacts flushed.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server exit after SIGTERM: %v\n%s", err, srvLog.String())
	}
	metrics, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("metrics not flushed on drain: %v", err)
	}
	if !strings.Contains(string(metrics), "server_requests_total") {
		t.Fatal("flushed metrics lack the serving counter set")
	}
	trace, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace not flushed on drain: %v", err)
	}
	header := strings.SplitN(string(trace), "\n", 2)[0]
	want := fmt.Sprintf(`{"schema":%q,"version":%d}`, obs.TraceSchema, obs.TraceSchemaVersion)
	if header != want {
		t.Fatalf("trace header %q, want %q", header, want)
	}
	if !strings.Contains(srvLog.String(), "drained cleanly") {
		t.Fatalf("server log lacks drain confirmation:\n%s", srvLog.String())
	}
}

// TestJobsCrashResumeEndToEnd is the durability proof against real
// processes: submit async jobs through qatclient, SIGKILL qatserver while
// some are queued behind a long-running job, restart it on the same store
// directory, and verify the WAL replay contract — queued jobs re-run
// exactly once to completion (marked resumed, results byte-identical to a
// synchronous run of the same program), the job that was mid-execution is
// failed with the resume reason, and the event stream carries the resumed
// transitions.
func TestJobsCrashResumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	serverBin := buildTool(t, dir, "qatserver")
	clientBin := buildTool(t, dir, "qatclient")
	jobsDir := filepath.Join(dir, "jobs")

	startServer := func(portFile string) (*exec.Cmd, string) {
		srv := exec.Command(serverBin,
			"-addr", "127.0.0.1:0", "-port-file", portFile,
			"-jobs-dir", jobsDir, "-jobs-workers", "1", "-quiet")
		var srvLog strings.Builder
		srv.Stderr = &srvLog
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		var addr string
		for i := 0; i < 100; i++ {
			if b, err := os.ReadFile(portFile); err == nil && len(b) > 0 {
				addr = strings.TrimSpace(string(b))
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if addr == "" {
			srv.Process.Kill()
			t.Fatalf("server never wrote its port file\n%s", srvLog.String())
		}
		return srv, "http://" + addr
	}

	srv1, base1 := startServer(filepath.Join(dir, "port1.txt"))
	defer srv1.Process.Kill()

	// The holder occupies the single job worker (a spin bounded only by its
	// generous timeout), so everything submitted after it stays queued.
	const spin = "lex $1,1\nL:\nbrt $1,L\n"
	if _, stderr, err := runTool(t, clientBin, spin,
		"-server", base1, "-id", "holder", "-timeout", "30s", "submit", "-"); err != nil {
		t.Fatalf("submit holder: %v\n%s", err, stderr)
	}
	const queued = 4
	srcs := make([]string, queued)
	for i := 0; i < queued; i++ {
		srcs[i] = farmtest.Generate(farmtest.Seed(100 + i))
		if _, stderr, err := runTool(t, clientBin, srcs[i],
			"-server", base1, "-id", fmt.Sprintf("q%d", i), "-ways", fmt.Sprint(farmtest.Ways),
			"submit", "-"); err != nil {
			t.Fatalf("submit q%d: %v\n%s", i, err, stderr)
		}
	}

	// SIGKILL: no drain, no compaction — the WAL alone carries the state.
	if err := srv1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv1.Wait()

	srv2, base2 := startServer(filepath.Join(dir, "port2.txt"))
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()

	// The mid-execution holder was conservatively failed, never re-run.
	out, stderr, err := runTool(t, clientBin, "", "-server", base2, "status", "holder")
	if err != nil {
		t.Fatalf("status holder: %v\n%s", err, stderr)
	}
	var holder server.JobStatus
	if err := json.Unmarshal([]byte(out), &holder); err != nil {
		t.Fatalf("holder status decode: %v\n%s", err, out)
	}
	if holder.State != "failed" || !strings.Contains(holder.Reason, "restarted") || !holder.Resumed {
		t.Fatalf("holder after restart: %+v", holder)
	}

	// Every queued job re-runs to completion, marked resumed, its result
	// byte-identical to a synchronous run of the same program.
	for i := 0; i < queued; i++ {
		id := fmt.Sprintf("q%d", i)
		out, stderr, err := runTool(t, clientBin, "", "-server", base2, "wait", id)
		if err != nil {
			t.Fatalf("wait %s: %v\n%s", id, err, stderr)
		}
		var st server.JobStatus
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatalf("wait %s decode: %v\n%s", id, err, out)
		}
		if st.State != "completed" || !st.Resumed || st.Result == nil {
			t.Fatalf("resumed job %s: %+v", id, st)
		}
		out, stderr, err = runTool(t, clientBin, srcs[i],
			"-server", base2, "-id", id+"-sync", "-ways", fmt.Sprint(farmtest.Ways), "run", "-")
		if err != nil {
			t.Fatalf("sync run %s: %v\n%s", id, err, stderr)
		}
		var sync server.RunResult
		if err := json.Unmarshal([]byte(out), &sync); err != nil {
			t.Fatalf("sync run %s decode: %v\n%s", id, err, out)
		}
		if sync.Regs != st.Result.Regs || sync.Output != st.Result.Output || sync.Insts != st.Result.Insts {
			t.Fatalf("job %s result diverged from sync run:\nasync: %+v\nsync:  %+v", id, st.Result, sync)
		}
	}

	// The restarted server's event stream replays the resume transitions.
	out, stderr, err = runTool(t, clientBin, "", "-server", base2, "-follow=false", "events")
	if err != nil {
		t.Fatalf("events: %v\n%s", err, stderr)
	}
	for _, frag := range []string{`"type":"resumed"`, `"type":"completed"`, `"job":"q0"`} {
		if !strings.Contains(out, frag) {
			t.Fatalf("event replay missing %s:\n%s", frag, out)
		}
	}
}
