package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"bioenrich/internal/corpus"
	"bioenrich/internal/loadtest"
	"bioenrich/internal/synth"
)

// workload is one named traffic shape. Why each exists, and which
// layer numbers it should move, is recorded in perfbench/README.md.
type workload struct {
	name string
	// Corpus shape, as cmd/gencorpus's -branches/-depth/-docs, and
	// what the shape gives at the reference seed 42: the concept count
	// and the corpus occurrences of all ontology terms.
	branches, depth, docs int
	concepts, termOcc     int
	// durable serves from a -data-dir with the default -wal-sync, so
	// every ingest is WAL-appended and fsynced before it is acked.
	durable bool
	// mix and rate describe the open-loop schedule: every block of
	// ops holds exactly mix's counts, spread evenly in a fixed order,
	// and ops are due at rate per second. rate 0 selects the
	// closed-loop enrichment-job client instead.
	mix  []share
	rate float64
	// enrichTop is the "top" of each submitted enrichment job.
	enrichTop int
	// replayOps bounds the traced in-process replay to a prefix of the
	// schedule, sized so one replay takes a few seconds.
	replayOps int
}

// Open-loop connections: at most one per CPU of the two-CPU reference
// host, so the generator never outnumbers the server's cores.
const conns = 2

// Request shapes match internal/loadtest's defaults; the rest are
// run parameters.
const (
	searchN       = 10
	classifyTop   = 5
	recommendTop  = 3
	ingestDocs    = 4
	ingestWords   = 40
	bodyWords     = 30
	vocabSize     = 400
	pollInterval  = 20 * time.Millisecond
	requestLimit  = 30 * time.Second
	setupsPerRun  = 5
	probesPerKind = 12
	// jobWorkers is the "workers" of each enrichment job. One worker
	// keeps a job on one CPU, so its time does not depend on how much
	// of the host's second CPU the job happens to get; the report is
	// the same for any worker count.
	jobWorkers = 1
)

// share is one op kind's count per schedule block.
type share struct {
	op loadtest.Op
	n  int
}

// The mixes are fixed 20-op blocks rather than drawn op by op, so
// every run offers the same composition and interleaving, and a seed
// changes only the corpus and the payloads. On ingest_churn every
// classify follows an ingest, so each one rebuilds the profile index,
// and the shares place the 50th percentile among ingests and the 95th
// among classifies.
var workloads = map[string]workload{
	"read_steady": {
		name: "read_steady", branches: 4, depth: 4, docs: 8, concepts: 793, termOcc: 61025,
		mix:  []share{{loadtest.OpSearch, 12}, {loadtest.OpClassify, 5}, {loadtest.OpRecommend, 3}},
		rate: 100, replayOps: 800,
	},
	"ingest_churn": {
		name: "ingest_churn", branches: 4, depth: 3, docs: 8, concepts: 222, termOcc: 16743, durable: true,
		mix:  []share{{loadtest.OpSearch, 5}, {loadtest.OpClassify, 4}, {loadtest.OpRecommend, 2}, {loadtest.OpIngest, 9}},
		rate: 16, replayOps: 80,
	},
	"enrich_jobs": {
		name: "enrich_jobs", branches: 3, depth: 3, docs: 4, concepts: 151, termOcc: 5723,
		enrichTop: 1,
	},
}

// op is one scheduled request: what to send, when, and the decoded
// inputs the checks and the traced replay need.
type op struct {
	id   int
	kind loadtest.Op
	due  time.Duration // offset from the window start
	// method, path and body are the wire request.
	method, path string
	body         []byte
	// Decoded inputs.
	query string
	text  string
	top   int
	docs  []corpus.Document
}

// meshSeedStep separates the candidate mesh seeds tried for one run
// seed.
const meshSeedStep = 100003

// generateCorpus writes the workload's corpus and ontology under dir,
// seeded like cmd/gencorpus (mesh at s, corpus at s+1), and returns
// the mesh seed s it used.
//
// One shape spans a wide range of input sizes across seeds: the
// synthetic MeSH draws 3 or 4 children per concept (about ±15% in
// concepts and documents), and some seeds mention ontology terms far
// more often (up to +60% term occurrences, which is what classify's
// profile builds scan). The run seed therefore picks s as the first of
// seed, seed+step, seed+2·step, ... whose mesh is within 1% of the
// shape's reference concept count and whose corpus is within 3% of its
// reference term occurrences. Contents still change with every seed;
// the input size does not, so runs on different seeds stay comparable.
func generateCorpus(dir string, seed int64, w workload) (corpusPath, ontPath string, meshSeed int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", 0, err
	}
	var mesh *synth.Mesh
	var corp *corpus.Corpus
	for k := int64(0); ; k++ {
		if k == 1000 {
			return "", "", 0, fmt.Errorf("no mesh seed near %d gives the %s input size", seed, w.name)
		}
		mopts := synth.DefaultMeshOptions()
		mopts.Seed = seed + k*meshSeedStep
		mopts.Branches = w.branches
		mopts.Depth = w.depth
		mesh = synth.GenerateMesh(mopts)
		if n := mesh.Ontology.NumConcepts(); 100*abs(n-w.concepts) > w.concepts {
			continue
		}
		copts := synth.DefaultCorpusOptions()
		copts.Seed = mopts.Seed + 1
		copts.DocsPerConcept = w.docs
		corp = synth.GenerateMeshCorpus(mesh, copts)
		occ := 0
		for _, t := range mesh.Ontology.Terms() {
			occ += len(corp.Occurrences(t))
		}
		if 100*abs(occ-w.termOcc) <= 3*w.termOcc {
			meshSeed = mopts.Seed
			break
		}
	}

	ontPath = filepath.Join(dir, "ontology.json")
	if err := mesh.Ontology.Save(ontPath); err != nil {
		return "", "", 0, err
	}
	corpusPath = filepath.Join(dir, "corpus.json")
	if err := corp.Save(corpusPath); err != nil {
		return "", "", 0, err
	}
	return corpusPath, ontPath, meshSeed, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// schedule builds the open-loop op stream: evenly spaced due times at
// w.rate for the window, op kinds repeating the interleaved mix block,
// and payloads from internal/loadtest's generator over the corpus
// seed's vocabulary. The same (workload, seed, window) always yields
// the same stream.
func schedule(w workload, seed int64, window time.Duration) ([]*op, error) {
	block := interleave(w.mix)
	gen := loadtest.NewGen(seed, vocabSize, 0)
	n := int(w.rate * window.Seconds())
	interval := time.Duration(float64(time.Second) / w.rate)
	ops := make([]*op, n)
	for i := range ops {
		o, err := newOp(gen, block[i%len(block)])
		if err != nil {
			return nil, err
		}
		o.id = i
		o.due = time.Duration(i) * interval
		ops[i] = o
	}
	return ops, nil
}

// interleave orders one block by smooth weighted round-robin, which
// spreads each kind's ops evenly through the block.
func interleave(mix []share) []loadtest.Op {
	total := 0
	for _, s := range mix {
		total += s.n
	}
	credit := make([]int, len(mix))
	block := make([]loadtest.Op, 0, total)
	for len(block) < total {
		best := 0
		for j, s := range mix {
			credit[j] += s.n
			if credit[j] > credit[best] {
				best = j
			}
		}
		credit[best] -= total
		block = append(block, mix[best].op)
	}
	return block
}

// newOp draws one request of the given kind from gen.
func newOp(gen *loadtest.Gen, kind loadtest.Op) (*op, error) {
	o := &op{kind: kind}
	var body any
	switch kind {
	case loadtest.OpSearch:
		o.query, o.top = gen.Query(), searchN
		o.method = "GET"
		o.path = fmt.Sprintf("/v1/search?q=%s&n=%d", url.QueryEscape(o.query), searchN)
	case loadtest.OpClassify:
		o.text, o.top = gen.Text(bodyWords), classifyTop
		o.method, o.path = "POST", "/v1/classify"
		body = map[string]any{"text": o.text, "top": o.top}
	case loadtest.OpRecommend:
		o.text, o.top = gen.Text(bodyWords), recommendTop
		o.method, o.path = "POST", "/v1/recommend"
		body = map[string]any{"text": o.text, "top": o.top}
	case loadtest.OpIngest:
		o.docs = gen.Documents(ingestDocs, ingestWords)
		o.method, o.path = "POST", "/v1/documents"
		body = o.docs
	default:
		return nil, fmt.Errorf("op kind %q has no open-loop form", kind)
	}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		o.body = b
	}
	return o, nil
}

// probes is the fixed read set sent after the window and compared
// byte for byte against in-process answers. It draws from its own
// generator stream (worker slot 1) so it is independent of the window.
func probes(seed int64) ([]*op, error) {
	gen := loadtest.NewGen(seed, vocabSize, 1)
	var out []*op
	for _, kind := range []loadtest.Op{loadtest.OpSearch, loadtest.OpClassify, loadtest.OpRecommend} {
		for i := 0; i < probesPerKind; i++ {
			o, err := newOp(gen, kind)
			if err != nil {
				return nil, err
			}
			o.id = len(out)
			out = append(out, o)
		}
	}
	return out, nil
}
