// Command realbench is the repository's real-cost benchmark. It deploys an
// LCM-protected key-value store in-process — a simulated TEE platform that
// charges no modelled latency, the trusted LCM program, file-backed stable
// storage and the untrusted host serving loopback TCP — drives it with two
// closed-loop client sessions, checks the outputs, and prints one JSON
// result line. Every figure is real CPU, memory and I/O cost; the
// modelled paper-figure series stays with cmd/lcm-bench.
//
// Usage (from the repository root; realbench/run.sh builds and runs it):
//
//	realbench -workload ycsb-a -seed 1 -seconds 10 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 runs an untraced and a
// traced deployment and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"lcm/internal/consistency"
	"lcm/internal/kvs"
	"lcm/internal/latency"
)

const (
	// A run deploys, bootstraps and loads at least minSetups times, and
	// goes on while the set-ups took less than setupBudget in all, up to
	// maxSetups. It reports the median and measures on the last
	// deployment.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
	// runDeadline keeps a wedged run from outliving its caller's limit.
	runDeadline = 170 * time.Second
	// historyVisits bounds the consistency check's cost: its stability
	// rule scans every recorded event of every client for each event that
	// reports a stable prefix, so the recorded window shrinks as the
	// loaded history grows.
	historyVisits = 5e7
	// procs is the Go processor count of every run. The clients, the host
	// and the enclave share one process, so with one processor per vCPU
	// each hand-off between them wakes an OS thread on another vCPU. On a
	// 2-vCPU VM that costs ~30 % more CPU per op than one processor, and
	// under a neighbour's load the deployment flips between latency
	// regimes (q2 get p50 145 → 106 us, stable p50 350 → 1 900 us), so no
	// figure repeats. With one processor every hand-off stays on one
	// thread and the figures move with the CPU the run gets.
	procs = 1
)

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "realbench:", err)
	var f *checkFailure
	if errors.As(err, &f) {
		printResult(false, f.attempted, f.failed, nil)
	}
	os.Exit(1)
}

// checkFailure is a run whose outputs failed a check: it reports the
// failure and the op counts, never numbers.
type checkFailure struct {
	attempted, failed int
	err               error
}

func (f *checkFailure) Error() string { return "check failed: " + f.err.Error() }
func (f *checkFailure) Unwrap() error { return f.err }

func run() error {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		dir     = flag.String("dir", filepath.Join(".bench_build", "realbench"), "data directory for the deployments")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1")
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "realbench: run exceeded %v\n", runDeadline)
		os.Exit(1)
	})

	// No modelled time may leak into a figure: every charge of the model
	// must be zero.
	model := latency.None()
	if *model != (latency.Model{}) {
		return fmt.Errorf("latency model charges time: %+v", *model)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	fmt.Printf("realbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("stamp nproc=%d gomaxprocs=%d go=%s fs=%s latency_model=none(all charges 0)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(*dir))
	fmt.Printf("workload %s: %d records, %d sessions, batch %d, snapshot reads %v, replicas %d, quorum %d — %s\n",
		w.name, w.records, sessions, batchSize, w.snapReads, w.replicas, w.quorum, w.why)

	length := time.Duration(*seconds) * time.Second
	const warmup = 2 * time.Second
	if *trace == 1 {
		return runTraced(w, *dir, *seed, model, warmup, length)
	}
	return runUntraced(w, *dir, *seed, model, warmup, length)
}

func runUntraced(w workload, dir string, seed int64, model *latency.Model, warmup, length time.Duration) error {
	var setupS []float64
	var total time.Duration
	var d *deployment
	for len(setupS) < minSetups || (total < setupBudget && len(setupS) < maxSetups) {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = deploy(w, filepath.Join(dir, "deploy"), seed, model, nil, nil)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		total += took
		setupS = append(setupS, took.Seconds())
		fmt.Printf("setup %d: %.3f s\n", len(setupS), took.Seconds())
	}
	defer d.close()

	win := d.measure(seed, warmup, length)
	if err := d.check(win, nil); err != nil {
		return err
	}
	ms := endToEnd(win)
	ms = append(ms, metric{name: "setup_s", unit: "s", value: median(setupS), samples: len(setupS)})
	report(ms)
	attempted, failed := win.counts()
	printResult(true, attempted, failed, ms)
	return nil
}

// runTraced measures an untraced deployment as the overhead reference,
// then a traced one whose consistency history it also checks, and
// reports the per-layer metrics of the traced window.
func runTraced(w workload, dir string, seed int64, model *latency.Model, warmup, length time.Duration) error {
	d, err := deploy(w, filepath.Join(dir, "deploy"), seed, model, nil, nil)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	base := d.measure(seed, warmup, length)
	err = d.check(base, nil)
	d.close()
	if err != nil {
		return err
	}

	tr := newTracer()
	hist := &history{log: consistency.NewLog()}
	hist.left.Store(int64(w.records) + max(200, min(5000, int64(historyVisits)/int64(w.records))))
	runtime.GC()
	d, err = deploy(w, filepath.Join(dir, "deploy"), seed, model, tr, hist)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	win := d.measure(seed, warmup, length)
	if err := d.check(win, hist); err != nil {
		return err
	}

	spans := tr.snapshot()
	ms := layerMetrics(spans, tr, win, w.quorum)
	plain, traced := endToEnd(base), endToEnd(win)
	thr0, thr1 := find(plain, "throughput_ops_s"), find(traced, "throughput_ops_s")
	cpu0, cpu1 := find(plain, "cpu_us_per_op"), find(traced, "cpu_us_per_op")
	fmt.Printf("tracing overhead: throughput %.0f → %.0f ops/s, cpu %.2f → %.2f us/op (untraced → traced)\n",
		thr0, thr1, cpu0, cpu1)
	ms = append(ms,
		metric{name: "trace.throughput_ratio", unit: "ratio", value: ratio(thr1, thr0)},
		metric{name: "trace.cpu_ratio", unit: "ratio", value: ratio(cpu1, cpu0)},
	)
	report(ms)
	path := filepath.Join(dir, w.name+"-spans.csv")
	if err := tr.writeCSV(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s; history: %d verified ops checked\n", len(spans), path, hist.log.Len())
	attempted, failed := win.counts()
	printResult(true, attempted, failed, ms)
	return nil
}

// check runs every output check on a measured window, outside it: no
// session failed, stability advanced, every key reads back as its last
// acknowledged write and, with a history, the recorded views are
// fork-linearizable.
func (d *deployment) check(win *window, hist *history) error {
	attempted, failed := win.counts()
	fail := func(err error) error {
		return &checkFailure{attempted: attempted, failed: failed, err: err}
	}
	var errs []error
	stable := 0
	for _, st := range win.sessions {
		errs = append(errs, st.err)
		stable += st.stable.seen
	}
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}
	if win.completed == 0 {
		return fail(errors.New("no op completed in the window"))
	}
	if stable == 0 {
		return fail(errors.New("stability never advanced: no stable_p50_us samples"))
	}
	if err := d.readBack(mergeAcked(d.loaded, win)); err != nil {
		return fail(err)
	}
	if hist != nil {
		if err := hist.log.Check(kvs.Factory()); err != nil {
			return fail(fmt.Errorf("consistency: %w", err))
		}
	}
	return nil
}

func (win *window) counts() (attempted, failed int) {
	for _, st := range win.sessions {
		attempted += st.attempted
		failed += st.failed
	}
	return attempted, failed
}

// endToEnd derives the user-visible metrics of a window, each over the
// whole window: a rate or a per-op cost from the process counters at its
// two ends, a latency median from the sessions' sampled latencies.
func endToEnd(win *window) []metric {
	var gets, puts, stable []float64
	var nGets, nPuts, nStable int
	for _, ss := range win.sessions {
		gets, nGets = append(gets, ss.gets.vals...), nGets+ss.gets.seen
		puts, nPuts = append(puts, ss.puts.vals...), nPuts+ss.puts.seen
		stable, nStable = append(stable, ss.stable.vals...), nStable+ss.stable.seen
	}
	n := float64(win.completed)
	attempted, failed := win.counts()
	return []metric{
		{name: "throughput_ops_s", unit: "ops/s", value: n / win.seconds()},
		{name: "get_p50_us", unit: "us", value: percentile(gets, 0.5), samples: nGets},
		{name: "put_p50_us", unit: "us", value: percentile(puts, 0.5), samples: nPuts},
		{name: "stable_p50_us", unit: "us", value: percentile(stable, 0.5), samples: nStable},
		{name: "success_rate", unit: "frac", value: 1 - ratio(float64(failed), float64(attempted))},
		{name: "cpu_us_per_op", unit: "us", value: ratio(win.end.cpuUs-win.start.cpuUs, n)},
		{name: "allocs_per_op", unit: "count", value: ratio(float64(win.end.mallocs-win.start.mallocs), n)},
		{name: "peak_rss_mb", unit: "MB", value: win.peakRSSMB},
	}
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// report prints one human-readable line per metric.
func report(ms []metric) {
	for _, m := range ms {
		if m.samples > 0 {
			fmt.Printf("%-34s %14.3f %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Printf("%-34s %14.3f %s\n", m.name, m.value, m.unit)
		}
	}
}

// printResult prints the result object as the last line of stdout.
func printResult(correct bool, attempted, failed int, ms []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// fsType names the filesystem holding dir, for the result stamp.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	t := int64(st.Type)
	if n, ok := names[t]; ok {
		return fmt.Sprintf("%s(0x%x)", n, t)
	}
	return fmt.Sprintf("0x%x", t)
}
