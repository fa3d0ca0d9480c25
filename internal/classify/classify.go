// Package classify assigns documents to ontology concepts — the
// MeSH-based document classification task of Elberrichi et al.
// (arXiv:1206.4883): a document is represented by its content-word
// vector and compared, by cosine, against a distributional profile of
// every ontology concept. A concept's profile is the aggregated
// corpus context vector of its terms (preferred term plus synonyms),
// the same context-vector machinery step IV's semantic linkage uses.
//
// Building the per-concept profiles is O(corpus) — one context scan
// per ontology term — so the Classifier caches a scoring index per
// key (the registry entry name), tagged with the snapshot epoch it was
// built from. The index keeps each profile's norm, computed once at
// build, and an inverted index term → [(concept, weight)] in place of
// the profiles. A cached classification is O(document postings):
// tokenize, walk the postings of the document's terms, and finish one
// cosine per concept the document shares a term with. Every other
// concept has dot product 0, so it is never touched.
//
// Builds are single-flight per key: concurrent misses on one key build
// once, while a rebuild on one key never blocks another. The cache is
// epoch-monotone: an index replaces the cached one only if it is
// newer, so a request holding an older snapshot scores against its own
// build without evicting the newer index. An index is immutable once
// built; readers grab it with one atomic load.
//
// Classification is deterministic byte-for-byte across worker counts
// (workers only parallelize the build, writing pre-sized slots). Each
// score equals the document vector's sparse.Vector.Cosine against the
// concept profile bit for bit: the same products, summed in the same
// ascending order, divided by the same norms.
package classify

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/sparse"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// Metric names the classifier registers, exported so the server's
// exposition tests can pin them.
const (
	// CacheHitsMetric counts classifications served from a cached
	// concept-profile index.
	CacheHitsMetric = "bioenrich_classify_cache_hits_total"
	// CacheMissesMetric counts profile-index (re)builds — one per
	// (ontology, epoch) however many classifications follow.
	CacheMissesMetric = "bioenrich_classify_cache_misses_total"
	// RequestsMetric counts classify requests by ontology label (the
	// server increments it per request).
	RequestsMetric = "bioenrich_classify_requests_total"
	// SecondsMetric is the per-ontology classify latency histogram
	// (the server observes it per request).
	SecondsMetric = "bioenrich_classify_seconds"
)

// Options configures a Classifier. The zero value classifies with the
// paper's context window on one worker.
type Options struct {
	// Window is the context window used to build per-concept profile
	// vectors (default 8 — the linkage step's ContextWindow).
	Window int
	// Workers bounds the goroutines used for profile builds. 0 or 1
	// is sequential; results are byte-identical at any value.
	Workers int
	// Obs, when non-nil, receives the concept-cache hit/miss counters.
	// nil disables them at zero cost.
	Obs *obs.Registry
}

// WithDefaults fills unset fields: Window 8, Workers 1.
func (o Options) WithDefaults() Options {
	if o.Window == 0 {
		o.Window = 8
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// ConceptScore is one ranked assignment: the document resembles this
// concept's corpus contexts with the given cosine.
type ConceptScore struct {
	ID        ontology.ConceptID `json:"id"`
	Preferred string             `json:"preferred"`
	Score     float64            `json:"score"`
}

// Result is one document's classification.
type Result struct {
	// Epoch is the snapshot version the classification was served
	// from — the value a client pins for read-decide-apply flows.
	Epoch uint64 `json:"epoch"`
	// Lang is the corpus language the document was tokenized with.
	Lang string `json:"lang"`
	// DocTokens counts the content words the document vector was built
	// from.
	DocTokens int `json:"doc_tokens"`
	// Concepts are the top assignments, best first. Never nil: zero
	// matches encode as [].
	Concepts []ConceptScore `json:"concepts"`
}

// index is the immutable per-epoch scoring index. ids are sorted and
// ids, prefs and norms are parallel slices, indexed by concept slot.
// The profiles themselves are not kept: postings holds every
// profile weight, inverted by term.
type index struct {
	epoch uint64
	ids   []ontology.ConceptID
	prefs []string
	// norms[i] is profile i's Norm() after Normalize, the value Cosine
	// would recompute on every call.
	norms []float64
	// postings maps each term to the concepts whose profile holds it,
	// in ascending slot order.
	postings map[string][]posting
}

// posting is one concept's weight for one term in the concept's
// unit-normalized profile.
type posting struct {
	slot   int32
	weight float64
}

// cache is one key's slot: the newest index built for the key, and
// the lock that makes the key's builds single-flight.
type cache struct {
	buildMu sync.Mutex
	cur     atomic.Pointer[index]
}

// Classifier classifies documents against snapshot-backed ontologies,
// caching one profile index per key. Safe for concurrent use: index
// pointers swap atomically, and builds serialize per key, so
// concurrent first classifications after a publish build once while
// other keys build and serve undisturbed.
type Classifier struct {
	opts Options
	// caches maps key → *cache. Entries are created on first use and
	// never removed (registry entries are never removed either).
	caches sync.Map

	hits, misses *obs.Counter
}

// New builds a classifier. Zero-valued Options fields get defaults.
func New(opts Options) *Classifier {
	opts = opts.WithDefaults()
	return &Classifier{
		opts:   opts,
		hits:   opts.Obs.Counter(CacheHitsMetric),
		misses: opts.Obs.Counter(CacheMissesMetric),
	}
}

// Classify assigns text to the topN most similar concepts of the
// snapshot's ontology. key namespaces the profile cache (use the
// registry entry name; any fixed string works for single-ontology
// use). A document with no content words is an input error.
func (cl *Classifier) Classify(ctx context.Context, key string, snap *state.Snapshot, text string, topN int) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("classify: nil snapshot")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	lang := snap.Corpus.Lang()
	docVec := sparse.FromCounts(textutil.ContentWords(text, lang))
	if len(docVec) == 0 {
		return nil, fmt.Errorf("classify: document has no content words (lang %s)", lang)
	}
	idx, err := cl.index(ctx, key, snap)
	if err != nil {
		return nil, err
	}
	out := idx.score(docVec)
	sortScores(out)
	if topN > 0 && topN < len(out) {
		out = out[:topN]
	}
	return &Result{
		Epoch:     snap.Epoch,
		Lang:      lang.String(),
		DocTokens: len(docVec),
		Concepts:  out,
	}, nil
}

// score returns every concept with a positive cosine against doc, in
// slot order. Only the postings of doc's terms are walked: a concept
// sharing no term with doc has dot product 0 and is never touched.
// Each score equals doc.Cosine(profile) bit for bit — the same
// products, summed in the same order, divided by the same norms.
func (idx *index) score(doc sparse.Vector) []ConceptScore {
	type run struct {
		w  float64
		ps []posting
	}
	runs := make([]run, 0, len(doc))
	n := 0
	for t, w := range doc {
		if ps := idx.postings[t]; len(ps) > 0 {
			runs = append(runs, run{w: w, ps: ps})
			n += len(ps)
		}
	}
	// Counting sort of the products w_doc·w_profile by slot: after the
	// fill, slot i's products are prods[at[i]:at[i+1]].
	at := make([]int, len(idx.ids)+1)
	for _, r := range runs {
		for _, p := range r.ps {
			at[p.slot]++
		}
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	prods := make([]float64, n)
	for _, r := range runs {
		for _, p := range r.ps {
			at[p.slot]--
			prods[at[p.slot]] = r.w * p.weight
		}
	}
	nv := doc.Norm()
	out := make([]ConceptScore, 0, 16)
	for i := range idx.ids {
		lo, hi := at[i], at[i+1]
		if lo == hi {
			continue
		}
		if s := cosine(prods[lo:hi], nv, idx.norms[i]); s > 0 {
			out = append(out, ConceptScore{ID: idx.ids[i], Preferred: idx.prefs[i], Score: s})
		}
	}
	return out
}

// cosine finishes sparse.Vector.Cosine for one pair of vectors from
// their shared-feature products and their norms, with Cosine's exact
// arithmetic: the products summed in ascending order (sparse's
// detSum), divided by nv·no, clamped to [-1, 1]. prods is sorted in
// place.
func cosine(prods []float64, nv, no float64) float64 {
	if nv == 0 || no == 0 {
		return 0
	}
	sort.Float64s(prods)
	var dot float64
	for _, x := range prods {
		dot += x
	}
	c := dot / (nv * no)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// index returns the profile index for (key, snap.Epoch), building it
// on first use after a publish. Concurrent callers on one key build at
// most once; builds on other keys proceed in parallel. The cache is
// epoch-monotone: a request holding a snapshot older than the cached
// index scores against its own build, which is never installed.
func (cl *Classifier) index(ctx context.Context, key string, snap *state.Snapshot) (*index, error) {
	slotAny, ok := cl.caches.Load(key)
	if !ok {
		slotAny, _ = cl.caches.LoadOrStore(key, &cache{})
	}
	slot := slotAny.(*cache)
	if idx := slot.cur.Load(); idx != nil && idx.epoch == snap.Epoch {
		cl.hits.Inc()
		return idx, nil
	}
	slot.buildMu.Lock()
	defer slot.buildMu.Unlock()
	cur := slot.cur.Load()
	if cur != nil && cur.epoch == snap.Epoch {
		// Built by whoever held the lock first; that build already
		// counted the miss.
		cl.hits.Inc()
		return cur, nil
	}
	cl.misses.Inc()
	idx, err := cl.build(ctx, snap)
	if err != nil {
		return nil, err
	}
	// Only builds store, and they hold buildMu, so cur is still the
	// cached index.
	if cur == nil || cur.epoch < idx.epoch {
		slot.cur.Store(idx)
	}
	return idx, nil
}

// build computes the per-concept profiles — for each concept, in
// sorted id order, the sum of the corpus context vectors of its terms,
// unit-normalized — and keeps their norms and term postings. Concepts
// absent from the corpus have an empty profile, no postings, and score
// 0 against everything.
func (cl *Classifier) build(ctx context.Context, snap *state.Snapshot) (*index, error) {
	o, c := snap.Ontology, snap.Corpus
	ids := o.ConceptIDs()
	idx := &index{
		epoch: snap.Epoch,
		ids:   ids,
		prefs: make([]string, len(ids)),
		norms: make([]float64, len(ids)),
	}
	profiles := make([]sparse.Vector, len(ids))
	if err := cl.parallel(ctx, len(ids), func(i int) {
		concept := o.Concept(ids[i])
		idx.prefs[i] = concept.Preferred
		// Summing counts is exact, so accumulating into the first
		// term's fresh vector gives the same profile as a new one.
		terms := concept.Terms()
		v := c.ContextVector(terms[0], cl.opts.Window)
		for _, t := range terms[1:] {
			v.Add(c.ContextVector(t, cl.opts.Window))
		}
		v.Normalize()
		profiles[i] = v
		idx.norms[i] = v.Norm()
	}); err != nil {
		return nil, fmt.Errorf("classify: build concept profiles: %w", err)
	}
	idx.postings = invert(profiles, c.Vocabulary())
	return idx, nil
}

// invert turns per-slot profiles into term postings. The runs share
// one backing array laid out in sorted term order, and each is filled
// in ascending slot order, so the layout does not depend on map
// iteration order. vocab bounds the number of distinct terms.
func invert(profiles []sparse.Vector, vocab int) map[string][]posting {
	// runs[t] counts t's postings, then holds t's run number.
	runs := make(map[string]int, vocab)
	for _, v := range profiles {
		for t := range v {
			runs[t]++
		}
	}
	terms := make([]string, 0, len(runs))
	for t := range runs {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	// next[k] is run k's fill cursor, starting at the run's offset.
	next := make([]int, len(terms)+1)
	for k, t := range terms {
		next[k+1] = next[k] + runs[t]
		runs[t] = k
	}
	flat := make([]posting, next[len(terms)])
	for slot, v := range profiles {
		for t, w := range v {
			k := runs[t]
			flat[next[k]] = posting{slot: int32(slot), weight: w}
			next[k]++
		}
	}
	// Each cursor now sits at its run's end, the next run's start.
	postings := make(map[string][]posting, len(terms))
	lo := 0
	for k, t := range terms {
		postings[t] = flat[lo:next[k]:next[k]]
		lo = next[k]
	}
	return postings
}

// parallel runs fn(i) for i in [0, n) across opts.Workers goroutines,
// partitioning the range into contiguous chunks. fn must only write
// state owned by slot i. The context is checked per iteration; a
// cancelled run returns ctx's error after all workers stop.
func (cl *Classifier) parallel(ctx context.Context, n int, fn func(i int)) error {
	workers := cl.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return ctx.Err()
}

// sortScores orders scores descending, ties broken by ascending
// concept id — the deterministic ranking contract.
func sortScores(out []ConceptScore) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
}
