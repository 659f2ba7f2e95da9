// Command perfbench is the repository's benchmark. It builds a
// provenance store the way the program ships, drives it over loopback
// SOAP with two closed-loop clients for a fixed time, checks every
// answer against the generator's ground truth, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as
// the last line of its output, in JSON.
//
//	bash perfbench/run.sh --workload usecase --seed 1 --seconds 10 --trace 0
//
// The seed is the only source of input: the program sees generated
// sessions and nothing else. METRICS.md describes the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is where the run's stores and journals live; it is removed
	// when the run ends.
	dir string
	// sessions is the usecase data set size; window is how many
	// complete sessions churn keeps live.
	sessions int
	window   int
	// setups is how many times, at least, the system is set up;
	// setup_s is the median and the last one is measured. While the
	// set-ups so far took less than setupSeconds in all, more are made,
	// up to maxSetups, so that a quick set-up is still the median of
	// enough samples to be steady.
	setups       int
	setupSeconds float64
	// serial, if not all zero, replaces the timed window by a pass
	// of a single goroutine that makes serial[i] calls as client i,
	// alternating between the clients while both have calls left, so
	// two runs of one seed do exactly the same work.
	serial [2]int
}

func defaultConfig() config {
	return config{seconds: 40, sessions: 16, window: 8, setups: 4, setupSeconds: 4}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a run's result plus what tests compare between runs.
type outcome struct {
	result
	errs []string
	// answers digests every answer the clients received, in order.
	answers string
	// counters are the program's own counters over the window.
	counters map[string]float64
	// elapsed is the window's length in seconds.
	elapsed float64
	// named are the workload's own end-to-end numbers (namedMetrics).
	named map[string]metric
	// shares describes each client's mix (timeShares).
	shares []string
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: record, usecase or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured window, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := flag.String("dir", ".bench_build", "directory for run data")
	flag.Parse()
	cfg.trace = *trace == 1

	// A run must end within 180 s; past that, something is stuck.
	time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 175 s")
		os.Exit(3)
	})
	if err := os.MkdirAll(*root, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*root, "run-"+cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.dir = dir
	out, err := run(&cfg)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer or failure:", e)
	}
	for _, l := range out.shares {
		fmt.Println(l)
	}
	fmt.Println()
	for _, ms := range []map[string]metric{out.named, out.Metrics} {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
		fmt.Println()
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// maxSetups caps the set-ups config.setupSeconds asks for.
const maxSetups = 12

// run sets the workload up as config.setups and setupSeconds ask,
// measures the last set-up system, and computes the metrics.
func run(cfg *config) (*outcome, error) {
	var w workload
	var e *env
	var setupS []float64
	for i, total := 0, 0.0; i < cfg.setups || (total < cfg.setupSeconds && i < maxSetups); i++ {
		if e != nil {
			e.close()
			os.RemoveAll(e.dir)
		}
		// Each set-up and the window start with no dirty pages
		// pending, so writeback left by an earlier phase or run does
		// not land in the one being measured.
		syscall.Sync()
		var err error
		if w, err = newWorkload(cfg.workload); err != nil {
			return nil, err
		}
		e = newEnv(cfg, filepath.Join(cfg.dir, fmt.Sprint(i)))
		t0 := time.Now()
		err = w.setup(e)
		d := time.Since(t0).Seconds()
		setupS = append(setupS, d)
		total += d
		if err != nil {
			e.close()
			return nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
	}
	defer e.close()
	fmt.Fprintf(os.Stderr, "perfbench: %s set up in %.3v s\n", cfg.workload, setupS)
	cs := w.clients()
	for _, c := range cs {
		c.st = newOpStats()
	}
	e.resetTrace(cs)

	syscall.Sync()
	runtime.GC()
	before := e.counters()
	heap := startHeapSampler()
	space := e.startSpaceSampler()
	t0 := time.Now()
	if cfg.serial != [2]int{} {
		for r := 0; r < max(cfg.serial[0], cfg.serial[1]); r++ {
			for i, n := range cfg.serial {
				if r < n {
					w.step(i)
				}
			}
		}
	} else {
		deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for i := range cs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					w.step(i)
				}
			}(i)
		}
		wg.Wait()
	}
	// The window ends when both clients stop. What finish does after
	// that (a last flush, closing, the final count check) is checked for
	// errors but counts in no rate or latency: its length varies from
	// run to run and the count check is not the program's work.
	window := time.Since(t0).Seconds()
	inWindow := newOpStats()
	for _, c := range cs {
		inWindow.merge(c.st)
	}
	finishErr := w.finish()
	elapsed := time.Since(t0).Seconds()
	heapPeak := heap.stop()
	if err := space.stop(); err != nil {
		return nil, err
	}
	after := e.counters()

	win := newOpStats()
	for _, c := range cs {
		win.merge(c.st)
	}
	if finishErr != nil {
		win.attempted++
		win.failed++
		win.errs = append(win.errs, finishErr.Error())
	}
	disk, err := e.diskBytes()
	if err != nil {
		return nil, err
	}
	liveRecs, liveBytes, err := e.liveRecordBytes()
	if err != nil {
		return nil, err
	}
	spaceAmp := space.amplification(disk, liveRecs, liveBytes)
	opsPerS := float64(inWindow.ops()) / window
	out := &outcome{counters: delta(before, after), elapsed: window}
	out.answers = fmt.Sprintf("%016x-%016x", cs[0].answers.Sum64(), cs[1].answers.Sum64())
	out.named = namedMetrics(inWindow, window)
	out.named["heap_peak_mb"] = metric{heapPeak / (1 << 20), "MB"}
	e2e, err := endToEnd(w.headline(), out.named, median(setupS), opsPerS, spaceAmp, heapPeak/1024/float64(liveRecs))
	if err != nil {
		win.attempted++
		win.failed++
		win.errs = append(win.errs, err.Error())
	}
	if cfg.trace {
		out.Metrics = e.layerMetrics(win, cs, before, after, elapsed, opsPerS, disk, liveRecs)
	} else {
		out.Metrics = e2e
	}
	out.shares = timeShares(cs)
	out.Attempted, out.Failed, out.errs = win.attempted, win.failed, win.errs
	out.Correct = win.failed == 0 && win.attempted > 0
	return out, nil
}

// namedMetrics are the user-visible numbers of the operations the
// window's mix contains, under the names the workloads are described
// with: per-call latencies, records acknowledged per second (ingest),
// and records walked per second of walking. The rates are totals over
// the window, not medians of per-second or per-call rates: on a shared
// VM the CPU's speed can swing between two levels for seconds at a
// time, and a median of such values jumps with the share of time spent
// at each level, where a total moves with it smoothly.
func namedMetrics(win *opStats, window float64) map[string]metric {
	m := map[string]metric{}
	for _, kind := range []string{opRecord, opLineage, opFlush, opCompare, opSemval, opDelete} {
		if ms := win.ms[kind]; len(ms) > 0 {
			m[kind+"_p50_ms"] = metric{percentile(ms, 50), "ms"}
			m[kind+"_p99_ms"] = metric{percentile(ms, 99), "ms"}
		}
	}
	if acked := win.recs[opRecord] + win.recs[opFlush]; acked > 0 {
		m["ingest_rec_per_s"] = metric{float64(acked) / window, "1/s"}
	}
	if len(win.ms[opWalk]) > 0 {
		m["walk_rec_per_s"] = metric{float64(win.recs[opWalk]) / win.busy[opWalk].Seconds(), "1/s"}
	}
	return m
}

// timeShares describes each client's mix in the window: per call kind,
// the share of the client's completed calls and of its busy time.
func timeShares(cs [2]*bclient) []string {
	var out []string
	for i, c := range cs {
		var busy time.Duration
		kinds := make([]string, 0, len(c.st.busy))
		for k, d := range c.st.busy {
			busy += d
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		line := fmt.Sprintf("client %d:", i+1)
		for _, k := range kinds {
			line += fmt.Sprintf(" %s %d calls (%.1f%% of calls, %.1f%% of time);", k, len(c.st.ms[k]),
				100*float64(len(c.st.ms[k]))/float64(c.st.ops()), 100*c.st.busy[k].Seconds()/busy.Seconds())
		}
		out = append(out, line)
	}
	return out
}

// endToEnd computes the metrics every workload reports. call_p50_ms and
// call_p99_ms time the workload's most frequent call, rec_per_s is its
// bulk record rate and heavy_p50_ms times its heaviest call; headline
// names which of the workload's own metrics each one is.
// heap_kb_per_rec is the peak live heap per record the store holds at the
// window's end: on record the heap grows with the records stored, and
// how many a window stores follows the machine's speed, so the peak
// alone would too. A headline
// metric with no successful sample in the window is an error, not a
// zero: a zero would read as a large gain.
func endToEnd(headline map[string]string, named map[string]metric, setupS, opsPerS, spaceAmp, heapKBPerRec float64) (map[string]metric, error) {
	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {opsPerS, "1/s"},
		"space_amp":       {spaceAmp, "ratio"},
		"heap_kb_per_rec": {heapKBPerRec, "KB/record"},
	}
	var missing []string
	for _, g := range []struct{ name, from, unit string }{
		{"call_p50_ms", headline["call"] + "_p50_ms", "ms"},
		{"call_p99_ms", headline["call"] + "_p99_ms", "ms"},
		{"rec_per_s", headline["rec_per_s"], "1/s"},
		{"heavy_p50_ms", headline["heavy"], "ms"},
	} {
		v, ok := named[g.from]
		if !ok {
			missing = append(missing, fmt.Sprintf("%s (%s)", g.name, g.from))
			v = metric{0, g.unit}
		}
		m[g.name] = v
	}
	if len(missing) > 0 {
		return m, fmt.Errorf("no successful call in the window behind %v", missing)
	}
	return m, nil
}
