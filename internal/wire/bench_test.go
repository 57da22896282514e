package wire

import (
	"testing"

	"repro/internal/policy"
)

// sink keeps benchmarked results live against dead-code elimination.
var sink int

func BenchmarkWireLSAMarshal(b *testing.B) {
	lsa := &LSA{
		Origin: 7, Seq: 3,
		Links: []LSALink{{Neighbor: 1, Cost: 2, Up: true}, {Neighbor: 5, Cost: 1, Up: true}},
		Terms: []policy.Term{policy.OpenTerm(7, 1), policy.OpenTerm(7, 2)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += len(Marshal(lsa))
	}
}

func BenchmarkWireLSAUnmarshal(b *testing.B) {
	lsa := &LSA{
		Origin: 7, Seq: 3,
		Links: []LSALink{{Neighbor: 1, Cost: 2, Up: true}},
		Terms: []policy.Term{policy.OpenTerm(7, 1)},
	}
	buf := Marshal(lsa)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(buf)
		if err != nil {
			b.Fatal(err)
		}
		sink += int(m.Type())
	}
}
