// Command perfbench is the repository benchmark. One run boots a
// fresh cmd/serve on a generated corpus, drives one named workload at
// it for a fixed window, checks every answer, and prints its metrics;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones (what a client of
// the service sees). With -trace 1 they are the per-layer ones: the
// server's own counters scraped at the window's edges, plus self times
// from an in-process replay of the same op stream that times each call
// into a layer's public functions. Workloads, their reasons and the
// layer predictions are recorded in perfbench/README.md.
//
// Build and run it through perfbench/run.sh, which builds cmd/serve
// from the same checkout:
//
//	bash perfbench/run.sh --workload read_steady --seed 42 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bioenrich/internal/state"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errIncorrect marks a run whose outputs failed a check; it still
// prints a result line, with no metrics.
var errIncorrect = errors.New("output check failed")

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload: read_steady | ingest_churn | enrich_jobs")
	seed := flag.Int64("seed", 42, "seed for the corpus, the op stream and the payloads")
	seconds := flag.Int("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from scrapes and a traced replay")
	serveBin := flag.String("serve", "", "path to the cmd/serve binary under test")
	work := flag.String("work", "", "scratch directory for corpora, server state and traces")
	flag.Parse()

	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *serveBin == "" || *work == "":
		fmt.Fprintln(os.Stderr, "perfbench: -serve and -work are required")
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	// Every run must end well inside three minutes, whatever the server
	// does.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &runner{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, serveBin: *serveBin, work: *work, dir: dir,
		client: newClient(), metrics: map[string]metric{},
	}
	err := r.run(ctx)
	res := result{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	switch {
	case errors.Is(err, errIncorrect):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Metrics = map[string]metric{}
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	r.printDetails()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runner holds one run's state.
type runner struct {
	w                   workload
	seed                int64
	window              time.Duration
	trace               bool
	serveBin, work, dir string
	client              *http.Client

	corpusPath, ontPath string
	meshSeed            int64           // seed the corpus, op stream and payloads derive from
	snap                *state.Snapshot // boot snapshot, loaded in-process on first use

	attempted, failed int
	metrics           map[string]metric
	details           []string // human-readable lines printed before the result
}

func (r *runner) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) note(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

func (r *runner) printDetails() {
	for _, d := range r.details {
		fmt.Println("#", d)
	}
}

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

// cpuSelf is the benchmark process's own user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeTrace writes the replay's spans next to the run directory, so
// they survive the run.
func (r *runner) writeTrace(spans []span) error {
	dir := filepath.Join(r.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	r.note("spans: %d written to %s", len(spans), path)
	return os.WriteFile(path, b, 0o644)
}

// joinKV renders a sorted "k=v" list for detail lines.
func joinKV(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.4g", k, m[k])
	}
	return strings.Join(parts, " ")
}
