// Command fleetbench is the repository's end-to-end benchmark: it drives
// internal/fleet through its public producer API (New, Register,
// PushWords, Detach) on a fixed set of workloads, checks every verdict,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on its last output line. README.md
// describes the workloads, the metrics and how to run it.
//
// Usage:
//
//	fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Exit codes: 0 when every check passed, 1 on a correctness failure (the
// JSON line is still printed, with "correct": false), 2 on a usage or
// operational error (nothing is printed on standard output's last line).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// warmup is how long each phase runs before its measured window opens,
// so pooled monitors, lane groups and the heap reach their steady state.
const warmup = time.Second

// traceDir receives the spans of a traced run, relative to the working
// directory.
const traceDir = ".bench_build/trace"

// setupReps is the number of fresh pools a run times for setup_s.
const setupReps = 31

// maxShownErrors bounds the correctness failures a run prints.
const maxShownErrors = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	in     *inputs
	clk    clock
	nextID int32
	out    io.Writer
}

// newSession plans the next session of a slot under a fresh trace id.
func (b *bench) newSession(slot, gen, runs int) *session {
	b.nextID++
	return b.in.newSession(b.w, b.nextID, slot, gen, runs)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "workload seed: every input word derives from it")
	seconds := fs.Int("seconds", 10, "length of each measured window, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "fleetbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	b := &bench{w: w, in: newInputs(*seed), clk: clock{base: time.Now()}, out: stdout}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	var res *result
	if *trace == 1 {
		res, err = b.traced(time.Duration(*seconds) * time.Second)
	} else {
		res, err = b.endToEnd(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	for _, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintln(stderr, "fleetbench: a metric has no finite value")
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tally folds one phase's correctness into the run's counts.
type tally struct {
	offered, delivered int64
	errs               []error
}

func (t *tally) add(b *bench, r *phaseResult) {
	t.offered += r.offered
	t.delivered += r.v.delivered
	t.errs = append(t.errs, r.v.errs...)
	failed, errs := replayCheck(b.w, b.in, r.v.samples)
	t.delivered -= failed
	t.errs = append(t.errs, errs...)
	if !r.v.biasedSample {
		t.errs = append(t.errs, errors.New("no biased session was checked against the serial replay"))
	}
	fmt.Fprintf(b.out, "checked %d sessions; %d replayed serially, verdict for verdict\n", r.v.sessions, len(r.v.samples))
}

func (t *tally) result(metrics map[string]metric) *result {
	return &result{
		Correct:   len(t.errs) == 0 && t.delivered == t.offered,
		Attempted: t.offered,
		Failed:    t.offered - t.delivered,
		Metrics:   metrics,
	}
}

func (t *tally) report(out io.Writer) {
	for i, err := range t.errs {
		if i == maxShownErrors {
			fmt.Fprintf(out, "FAIL ... %d more\n", len(t.errs)-i)
			break
		}
		fmt.Fprintln(out, "FAIL", err)
	}
}

// setup times the workload's cold start setupReps times and returns the
// median in seconds.
func (b *bench) setup(log *spanLog) (float64, error) {
	xs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		d, err := b.setupOnce(log)
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	q1, q2, q3 := quartiles(xs)
	fmt.Fprintf(b.out, "setup: %d fresh pools, median %.4f s, quartiles %.4f–%.4f s\n", len(xs), q2, q1, q3)
	return q2, nil
}

// measure runs one pool through one phase of the workload's loop.
func (b *bench) measure(dur time.Duration, traced bool) (*phaseResult, error) {
	p, err := newPhase(b, traced)
	if err != nil {
		return nil, err
	}
	r, err := p.closedLoop(warmup, dur)
	if err != nil {
		return nil, err
	}
	label := "untraced"
	if traced {
		label = "traced"
	}
	fmt.Fprintf(b.out, "phase (%s): %d sessions detached, %.1f Mbit in %.3f s; per-slice Mbit/s %s\n",
		label, r.v.sessions, float64(r.words*64)/1e6, float64(r.window)/1e9, list(r.sliceRates()))
	return r, nil
}

// endToEnd is the untraced run: setup_s plus one measured phase.
func (b *bench) endToEnd(dur time.Duration) (*result, error) {
	setup, err := b.setup(nil)
	if err != nil {
		return nil, err
	}
	r, err := b.measure(dur, false)
	if err != nil {
		return nil, err
	}
	var t tally
	t.add(b, r)
	s50, n := r.latency(50)
	s90, _ := r.latency(90)
	s99, _ := r.latency(99)
	p50, p90 := median(append([]float64(nil), s50...)), p90Latency(s90)
	if n == 0 {
		return nil, errors.New("no session finished inside the measured window; raise --seconds")
	}
	fmt.Fprintf(b.out, "verdict latency: %d samples; per-slice p50 %s ms, p90 %s ms, p99 %s ms (p99 is not a metric)\n",
		n, list(s50), list(s90), list(s99))
	bits := float64(r.words * 64)
	m := map[string]metric{
		"setup_s":                {setup, "s"},
		"ingest_mbit_per_s":      {r.mbitPerS(), "Mbit/s"},
		"verdict_latency_p50_ms": {p50, "ms"},
		"verdict_latency_p90_ms": {p90, "ms"},
		"cpu_ns_per_word":        {r.cpuPerWord(), "ns"},
		"alloc_bytes_per_kbit":   {float64(r.alloc) / (bits / 1000), "B"},
		"max_rss_mb":             {maxRSSMB(), "MB"},
		"delivered_ops_share":    {float64(t.delivered) / float64(t.offered), "ratio"},
	}
	printMetrics(b.out, m)
	t.report(b.out)
	return t.result(m), nil
}

// traced is the traced run: cold Register spans from traced setups, an
// untraced and a traced phase of half the measured time each, then the
// single-threaded layer replay.
func (b *bench) traced(dur time.Duration) (*result, error) {
	setupLog := &spanLog{}
	if _, err := b.setup(setupLog); err != nil {
		return nil, err
	}
	plain, err := b.measure(dur/2, false)
	if err != nil {
		return nil, err
	}
	tr, err := b.measure(dur/2, true)
	if err != nil {
		return nil, err
	}
	var t tally
	t.add(b, plain)
	t.add(b, tr)

	from, to := tr.measureStart, tr.measureStart+tr.pushWindow
	pushes := durations(tr.logs, spanPushWords, from, to)
	var blocked int64
	for _, d := range pushes {
		blocked += d
	}
	m := map[string]metric{
		"fleet.register_us_p50":        {percentile(nanos(durations([]*spanLog{setupLog}, spanRegister, 0, math.MaxInt64), 1e3), 50), "us"},
		"fleet.push_call_us_p50":       {percentile(nanos(pushes, 1e3), 50), "us"},
		"fleet.producer_blocked_share": {float64(blocked) / float64(tr.pushWindow), "ratio"},
		"fleet.detach_ms_p50":          {percentile(nanos(durations(tr.logs, spanDetach, from, to), 1e6), 50), "ms"},
		"trace.overhead_mbit_per_s":    {tr.mbitPerS() - plain.mbitPerS(), "Mbit/s"},
	}
	if err := b.layerMetrics(m); err != nil {
		return nil, err
	}
	// The fleet's own cost per word beyond the single-threaded monitor feed.
	handoff := plain.cpuPerWord() - m["core.feedword_ns_per_word"].Value
	m["fleet.handoff_ns_per_word"] = metric{handoff, "ns"}
	printMetrics(b.out, m)

	path := filepath.Join(traceDir, b.w.name+".spans.tsv.gz")
	n, err := writeSpans(path, append([]*spanLog{setupLog}, tr.logs...))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", n, path)
	t.report(b.out)
	return t.result(m), nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// list formats figures for a diagnostic line.
func list(xs []float64) string {
	var sb strings.Builder
	for i, x := range xs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.4g", x)
	}
	return sb.String()
}
