package sim

import "testing"

// BenchmarkSimStep is the dispatch-cost benchmark the CI smoke test guards:
// ns reported per Step, 8 simulated threads. The cost mix mirrors the memory
// model — mostly cheap (cache-hit) steps with occasional expensive
// (NVM/coherence-miss) ones — which is what gives the run-ahead fast path its
// hits: after a thread pays a big step, the minimum thread issues a run of
// cheap steps without a single handoff.
func BenchmarkSimStep(b *testing.B) {
	const threads = 8
	b.ReportAllocs()
	for iter := 0; iter < b.N; iter += threads * 1000 {
		b.StopTimer()
		s := New(1)
		for i := 0; i < threads; i++ {
			s.Spawn("w", i%2, 0, func(t *Thread) {
				rng := t.Rand()
				for j := 0; j < 1000; j++ {
					c := uint64(rng.Intn(4)) + 1
					if rng.Intn(16) == 0 {
						c = 300 // an NVM fence / remote-coherence-scale step
					}
					t.Step(c)
				}
			})
		}
		b.StartTimer()
		s.Run()
	}
}

// BenchmarkSimPingPong is the pattern the serve path lives on — ring producer
// and consumer, worker and combiner: two threads, every Step a forced
// handoff, so ns reported per Step is the cost of one baton transfer.
func BenchmarkSimPingPong(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	for i := 0; i < 2; i++ {
		s.Spawn("w", i, 0, func(t *Thread) {
			for j := 0; j < b.N; j += 2 {
				t.Step(1)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}
