package textutil

import "testing"

// Native fuzz targets: `go test` exercises the seed corpus; `go test
// -fuzz` explores further. The invariants are crash-freedom plus the
// offset/ordering guarantees the indexer depends on.

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "corneal injury", "l'hôpital X-ray 3.14", "…—🧬 ADN",
		"a-b-c d'e f", "\x00\xff invalid utf8 \x80", "ＡＢＣ　ｄｅｆ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		prev := -1
		for _, tok := range Tokenize(s) {
			if tok.Start < 0 || tok.End > len(s) || tok.Start >= tok.End {
				t.Fatalf("bad span %+v for %q", tok, s)
			}
			if tok.Start <= prev {
				t.Fatalf("tokens out of order for %q", s)
			}
			prev = tok.Start
			if s[tok.Start:tok.End] != tok.Text {
				t.Fatalf("offset mismatch %q vs %q", tok.Text, s[tok.Start:tok.End])
			}
		}
	})
}

func FuzzSentences(f *testing.F) {
	for _, seed := range []string{
		"", "One. Two! Three?", "e.g. i.e. 3.14 Dr. Smith.",
		"no terminator", "!!!", "a;b;c", "¿Qué? ¡Sí!",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, sent := range Sentences(s) {
			if sent == "" {
				t.Fatalf("empty sentence for %q", s)
			}
		}
	})
}

func FuzzNormalizeStem(f *testing.F) {
	for _, seed := range []string{
		"Injuries", "MALADIES", "enfermedades", "œdème", "", "a",
		"x-linked", "βλα", "12345",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := Normalize(s)
		if Normalize(n) != n {
			t.Fatalf("Normalize not idempotent on %q", s)
		}
		for _, lang := range []Lang{English, French, Spanish} {
			stem := Stem(n, lang)
			if len(stem) > len(n) {
				t.Fatalf("stem grew: %q -> %q (%v)", n, stem, lang)
			}
		}
	})
}

// FuzzNormalizeIdempotent pins the assumption behind stored corpus
// tokens: each is Normalize(w) for a w from Words, and the corpus
// context scans look those tokens up with IsNormalizedStopword, which
// skips the second Normalize pass IsStopword would make.
func FuzzNormalizeIdempotent(f *testing.F) {
	for _, seed := range []string{
		"Kératite cornéenne ÉTUDE", "œdème Æther ﬁbrose", "Straße STRASSE ẞ",
		"İstanbul ıi", "ǅemal ǈubljana ǋ", "Ñandú ÇA Ü", "", "x-linked Δ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, w := range Words(s) {
			n := Normalize(w)
			if nn := Normalize(n); nn != n {
				t.Fatalf("Normalize not idempotent on %q: %q -> %q", w, n, nn)
			}
			for _, lang := range []Lang{English, French, Spanish} {
				if IsStopword(n, lang) != IsNormalizedStopword(n, lang) {
					t.Fatalf("IsStopword and IsNormalizedStopword disagree on %q (%v)", n, lang)
				}
			}
		}
	})
}
