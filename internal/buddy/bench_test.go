package buddy

import (
	"testing"

	"repro/internal/sim"
)

// fragmented returns a 2^17-frame allocator (one memfs region) carved
// into seeded runs of 1–64 frames with every other run freed again, so
// free and allocated blocks interleave across the whole range.
func fragmented(b *testing.B) *Allocator {
	b.Helper()
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	a, err := New(clock, &params, 0, 1<<17)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	var runs []Run
	for {
		r, err := a.AllocRun(uint64(1 + rng.Intn(64)))
		if err != nil {
			break
		}
		runs = append(runs, r)
	}
	for i := 0; i < len(runs); i += 2 {
		if err := a.FreeRun(runs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return a
}

func BenchmarkCheckInvariants(b *testing.B) {
	a := fragmented(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFree is one single-frame allocation and its free on the
// fragmented allocator: the baseline vm's per-fault path.
func BenchmarkAllocFree(b *testing.B) {
	a := fragmented(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(f); err != nil {
			b.Fatal(err)
		}
	}
}
