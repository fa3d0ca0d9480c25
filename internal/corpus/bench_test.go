package corpus_test

import (
	"testing"

	"bioenrich/internal/sparse"
	"bioenrich/internal/synth"
)

// contextVectorSink keeps the benchmarked call from being optimized
// away.
var contextVectorSink sparse.Vector

// BenchmarkContextVector times the postings/contexts layer: one op
// builds the context vector of every ontology term of the default
// synthetic mesh over its fixed corpus, the scan a classify profile
// build makes.
func BenchmarkContextVector(b *testing.B) {
	mesh := synth.GenerateMesh(synth.DefaultMeshOptions())
	copts := synth.DefaultCorpusOptions()
	copts.DocsPerConcept = 3
	c := synth.GenerateMeshCorpus(mesh, copts)
	var terms []string
	for _, id := range mesh.Ontology.ConceptIDs() {
		terms = append(terms, mesh.Ontology.Concept(id).Terms()...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range terms {
			contextVectorSink = c.ContextVector(t, 8)
		}
	}
}
