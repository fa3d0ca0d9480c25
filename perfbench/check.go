package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"bioenrich/internal/classify"
	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/obs"
	"bioenrich/internal/recommend"
	"bioenrich/internal/sparse"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// checkShape verifies one successful response against the invariants
// of its route: status, required fields, bounds, and rankings sorted
// by score descending then by ID.
func checkShape(o *op, s *sample) error {
	switch o.kind {
	case loadtest.OpSearch:
		var hits []corpus.SearchHit
		if err := strictJSON(s.body, &hits); err != nil {
			return err
		}
		if len(hits) > o.top {
			return fmt.Errorf("search returned %d hits, asked for %d", len(hits), o.top)
		}
		for i, h := range hits {
			if !(h.Score > 0) || math.IsInf(h.Score, 0) || h.ID == "" {
				return fmt.Errorf("search hit %d: bad score %v or empty id", i, h.Score)
			}
			if i > 0 && !ranked(hits[i-1].Score, h.Score, hits[i-1].ID, h.ID) {
				return fmt.Errorf("search hits %d,%d out of order", i-1, i)
			}
		}
	case loadtest.OpClassify:
		var r struct {
			Ontology  string                  `json:"ontology"`
			Epoch     uint64                  `json:"epoch"`
			Lang      string                  `json:"lang"`
			DocTokens int                     `json:"doc_tokens"`
			Concepts  []classify.ConceptScore `json:"concepts"`
		}
		if err := strictJSON(s.body, &r); err != nil {
			return err
		}
		if r.Ontology != "default" || r.Lang == "" || r.DocTokens <= 0 || r.Concepts == nil {
			return fmt.Errorf("classify: bad envelope %s", s.body)
		}
		if strconv.FormatUint(r.Epoch, 10) != s.epoch {
			return fmt.Errorf("classify: body epoch %d, X-Epoch %q", r.Epoch, s.epoch)
		}
		if len(r.Concepts) > o.top {
			return fmt.Errorf("classify returned %d concepts, asked for %d", len(r.Concepts), o.top)
		}
		for i, c := range r.Concepts {
			if !(c.Score > 0 && c.Score <= 1+1e-9) || c.ID == "" {
				return fmt.Errorf("classify concept %d: score %v out of (0,1] or empty id", i, c.Score)
			}
			if i > 0 && !ranked(r.Concepts[i-1].Score, c.Score, string(r.Concepts[i-1].ID), string(c.ID)) {
				return fmt.Errorf("classify concepts %d,%d out of order", i-1, i)
			}
		}
	case loadtest.OpRecommend:
		var r struct {
			Rankings []recommend.Score `json:"rankings"`
		}
		if err := strictJSON(s.body, &r); err != nil {
			return err
		}
		if len(r.Rankings) == 0 || len(r.Rankings) > o.top {
			return fmt.Errorf("recommend returned %d rankings, asked for 1..%d", len(r.Rankings), o.top)
		}
		for i, sc := range r.Rankings {
			if !(sc.Score >= 0 && sc.Score <= 1) || sc.Ontology == "" {
				return fmt.Errorf("recommend ranking %d: score %v out of [0,1] or empty ontology", i, sc.Score)
			}
			if i > 0 && !ranked(r.Rankings[i-1].Score, sc.Score, r.Rankings[i-1].Ontology, sc.Ontology) {
				return fmt.Errorf("recommend rankings %d,%d out of order", i-1, i)
			}
		}
	case loadtest.OpIngest:
		var r ingestAck
		if err := strictJSON(s.body, &r); err != nil {
			return err
		}
		if r.Docs <= 0 || r.Epoch < 2 {
			return fmt.Errorf("ingest ack %s: want docs > 0 and epoch >= 2", s.body)
		}
	}
	return nil
}

// ingestAck is the POST /v1/documents response.
type ingestAck struct {
	Docs  int    `json:"docs"`
	Epoch uint64 `json:"epoch"`
}

// ranked reports whether (s1,id1) may precede (s2,id2): score
// descending, ties by ascending ID.
func ranked(s1, s2 float64, id1, id2 string) bool {
	return s1 > s2 || (s1 == s2 && id1 < id2)
}

// strictJSON decodes exactly one JSON value with no unknown fields.
func strictJSON(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode %q: %w", truncate(b), err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after %q", truncate(b))
	}
	return nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// library answers read ops in-process through the public functions
// the handlers call, with the handlers' defaults, and encodes them as
// the handlers do.
type library struct {
	cl           *classify.Classifier
	hits, misses *obs.Counter // the classifier's own cache counters
}

func newLibrary() *library {
	reg := obs.New()
	return &library{
		cl:     classify.New(classify.Options{Obs: reg}),
		hits:   reg.Counter(classify.CacheHitsMetric),
		misses: reg.Counter(classify.CacheMissesMetric),
	}
}

// answer computes the response value for a read op on snap (default
// entry), recording a span around each library call in tr.
func (l *library) answer(ctx context.Context, snap *state.Snapshot, o *op, tr *tracer) (any, error) {
	switch o.kind {
	case loadtest.OpSearch:
		i := tr.begin("corpus.search", o.id)
		hits := snap.Corpus.Search(o.query, o.top)
		tr.end(i)
		if hits == nil {
			hits = []corpus.SearchHit{}
		}
		return hits, nil
	case loadtest.OpClassify:
		// Classify tokenizes internally; the same tokenization is timed
		// on its own so its share of a classify call is visible.
		i := tr.begin("classify.tokenize", o.id)
		_ = sparse.FromCounts(textutil.ContentWords(o.text, snap.Corpus.Lang()))
		tr.end(i)
		h0, m0 := l.hits.Value(), l.misses.Value()
		i = tr.begin("classify.call", o.id)
		res, err := l.cl.Classify(ctx, "default", snap, o.text, o.top)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		switch {
		case l.misses.Value() > m0:
			tr.rename(i, "classify.miss")
		case l.hits.Value() > h0:
			tr.rename(i, "classify.hit")
		}
		return map[string]any{
			"ontology": "default", "epoch": res.Epoch, "lang": res.Lang,
			"doc_tokens": res.DocTokens, "concepts": res.Concepts,
		}, nil
	case loadtest.OpRecommend:
		i := tr.begin("recommend.rank", o.id)
		scores, err := recommend.Rank(ctx, []recommend.Input{{Name: "default", Snap: snap}}, o.text, recommend.Options{})
		tr.end(i)
		if err != nil {
			return nil, err
		}
		if o.top > 0 && o.top < len(scores) {
			scores = scores[:o.top]
		}
		return map[string]any{"rankings": scores}, nil
	}
	return nil, fmt.Errorf("no in-process read form for %q", o.kind)
}

// encode renders a response value exactly as the server writes it.
func encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkIngestChurn verifies the write path's acknowledgements against
// the final state: each connection's acknowledged epochs strictly
// increase, acknowledgements never go back in epoch or size, the
// final document count is the initial count plus every acknowledged
// document, and every epoch past the first was published by an
// acknowledged ingest group.
func checkIngestChurn(ops []*op, samples []sample, initialDocs int, final loadtest.Health) error {
	var acks []ingestAck
	lastByConn := map[int]uint64{}
	ackedDocs := 0
	epochs := map[uint64]bool{}
	for i, o := range ops {
		s := &samples[i]
		if o.kind != loadtest.OpIngest || !s.ok() {
			continue
		}
		var a ingestAck
		if err := json.Unmarshal(s.body, &a); err != nil {
			return err
		}
		if a.Epoch <= lastByConn[s.conn] {
			return fmt.Errorf("connection %d: acknowledged epoch %d after %d", s.conn, a.Epoch, lastByConn[s.conn])
		}
		lastByConn[s.conn] = a.Epoch
		acks = append(acks, a)
		ackedDocs += len(o.docs)
		epochs[a.Epoch] = true
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].Epoch < acks[j].Epoch })
	for i := 1; i < len(acks); i++ {
		if acks[i].Docs < acks[i-1].Docs || (acks[i].Epoch == acks[i-1].Epoch && acks[i].Docs != acks[i-1].Docs) {
			return fmt.Errorf("acks disagree: epoch %d docs %d vs epoch %d docs %d",
				acks[i-1].Epoch, acks[i-1].Docs, acks[i].Epoch, acks[i].Docs)
		}
	}
	if want := initialDocs + ackedDocs; final.Docs != want {
		return fmt.Errorf("health reports %d docs, want %d initial + %d acknowledged", final.Docs, initialDocs, ackedDocs)
	}
	if want := uint64(1 + len(epochs)); final.Epoch != want {
		return fmt.Errorf("health reports epoch %d, want %d (1 + %d acknowledged groups)", final.Epoch, want, len(epochs))
	}
	if len(acks) > 0 && acks[len(acks)-1].Docs != final.Docs {
		return fmt.Errorf("last ack reports %d docs, health %d", acks[len(acks)-1].Docs, final.Docs)
	}
	return nil
}

// checkJobs verifies that every job that reached done carries a
// result and that those results are byte-identical (apply:false jobs
// on one snapshot do identical work). Jobs that did not reach done are
// failures, not wrong answers; jobMetrics counts them.
func checkJobs(jobs []job) error {
	if len(jobs) == 0 {
		return fmt.Errorf("no enrichment job was submitted")
	}
	var first *job
	for i := range jobs {
		j := &jobs[i]
		if j.final.Status != "done" {
			continue
		}
		if len(j.result) == 0 || string(j.result) == "null" {
			return fmt.Errorf("job %s done without a result", j.final.ID)
		}
		if first == nil {
			first = j
		} else if !bytes.Equal(first.result, j.result) {
			return fmt.Errorf("job %s report differs from job %s", j.final.ID, first.final.ID)
		}
	}
	return nil
}
