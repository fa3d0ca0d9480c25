package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"bioenrich/internal/batch"
	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/registry"
	"bioenrich/internal/state"
	"bioenrich/internal/storage"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Times are offsets from the
// tracer's start.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 at the root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which
// is how the untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// rename relabels a closed span (a classify call becomes a hit or a
// miss once the cache counters say which).
func (t *tracer) rename(i int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Name = name
}

// layerStat aggregates spans of one name.
type layerStat struct {
	Calls          int
	SelfMS, WallMS float64 // means per call
}

// selfTimes reports, per span name, the mean wall time and the mean
// self time (the span minus the time its child spans cover).
func (t *tracer) selfTimes() map[string]layerStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	wall := map[string]float64{}
	calls := map[string]int{}
	for i, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += ms(d - child[i])
		wall[s.Name] += ms(d)
		calls[s.Name]++
	}
	out := map[string]layerStat{}
	for name, n := range calls {
		out[name] = layerStat{Calls: n, SelfMS: self[name] / float64(n), WallMS: wall[name] / float64(n)}
	}
	return out
}

// timedDurable wraps the disk backend's publish hook in a span, so the
// WAL append and fsync show up as the storage layer's time inside each
// ingest.
type timedDurable struct {
	inner state.Durable
	tr    *tracer
	op    *int // id of the op being replayed
}

func (d *timedDurable) BeforePublish(next *state.Snapshot, delta *state.Delta) error {
	i := d.tr.begin("storage.before_publish", *d.op)
	defer d.tr.end(i)
	return d.inner.BeforePublish(next, delta)
}

// replay runs ops in order, in-process and on one goroutine, against a
// fresh store built from the same corpus files, calling the public
// functions the handlers call and encoding each response with
// encoding/json. tr, when not nil, records a span around every call.
func replay(ctx context.Context, c *corpus.Corpus, o *ontology.Ontology, ops []*op, durableDir string, tr *tracer) (time.Duration, error) {
	st := state.NewStore(c, o)
	opID := -1
	if durableDir != "" {
		disk, err := storage.OpenDisk(storage.DiskOptions{Dir: durableDir})
		if err != nil {
			return 0, err
		}
		defer disk.Close()
		if err := disk.Checkpoint(st.Load()); err != nil {
			return 0, err
		}
		if tr != nil {
			st.SetDurable(&timedDurable{inner: disk, tr: tr, op: &opID})
		} else {
			st.SetDurable(disk)
		}
	}
	reg, err := registry.NewWithBatch("default", st, batch.Options{})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	entry := reg.Default()
	lib := newLibrary()

	start := time.Now()
	for _, op := range ops {
		opID = op.id
		root := tr.begin("op."+string(op.kind), op.id)
		i := tr.begin("registry.snapshot", op.id)
		snap := entry.Snapshot()
		tr.end(i)
		var resp any
		if op.kind == loadtest.OpIngest {
			i = tr.begin("batch.ingest", op.id)
			next, err := entry.Ingest(ctx, op.docs)
			tr.end(i)
			if err != nil {
				return 0, fmt.Errorf("replay op %d: %w", op.id, err)
			}
			resp = map[string]any{"docs": next.Corpus.NumDocs(), "epoch": next.Epoch}
		} else if resp, err = lib.answer(ctx, snap, op, tr); err != nil {
			return 0, fmt.Errorf("replay op %d: %w", op.id, err)
		}
		i = tr.begin("server.encode", op.id)
		_, err = encode(resp)
		tr.end(i)
		if err != nil {
			return 0, err
		}
		tr.end(root)
	}
	return time.Since(start), nil
}

// enrichReplay runs one enrichment in-process with the server's job
// configuration and returns the job result the server would report,
// encoded, plus the enricher's own per-step busy seconds.
func enrichReplay(ctx context.Context, c *corpus.Corpus, o *ontology.Ontology, top int, tr *tracer) (json.RawMessage, map[string]float64, time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.TopCandidates = top
	cfg.Workers = jobWorkers
	reg := obs.New()
	cfg.Obs = reg
	start := time.Now()
	i := tr.begin("core.run", 0)
	report, err := core.NewEnricher(c, o, cfg).RunContext(ctx)
	tr.end(i)
	wall := time.Since(start)
	if err != nil {
		return nil, nil, 0, err
	}
	if report.Candidates == nil {
		report.Candidates = []core.Candidate{}
	}
	raw, err := json.Marshal(map[string]any{"report": report, "epoch": uint64(1)})
	if err != nil {
		return nil, nil, 0, err
	}
	steps := map[string]float64{}
	for _, s := range reg.SpanSummaries() {
		steps[s.Name] = s.Total.Seconds()
	}
	return raw, steps, wall, nil
}

// sortedSpanNames lists the names in a self-time table in order, for
// stable output.
func sortedSpanNames(m map[string]layerStat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
