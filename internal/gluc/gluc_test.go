package gluc

import (
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/seq"
	"prepuc/internal/sim"
	"prepuc/internal/uc"
)

func build(t *testing.T, cfg Config, seed int64) (*nvm.System, *GL) {
	t.Helper()
	sch := sim.New(seed)
	sys := nvm.NewSystem(sch, nvm.Config{Costs: sim.UnitCosts()})
	var g *GL
	sch.Spawn("boot", 0, 0, func(th *sim.Thread) {
		g = New(th, sys, cfg)
	})
	sch.Run()
	return sys, g
}

func TestSequential(t *testing.T) {
	sys, g := build(t, Config{Object: seq.HashMapType(16), HeapWords: 1 << 16}, 1)
	sch := sim.New(2)
	sys.SetScheduler(sch)
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		for k := uint64(0); k < 40; k++ {
			if got := g.Execute(th, 0, uc.Insert(k, k+1)); got != 1 {
				t.Errorf("insert = %d", got)
			}
		}
		for k := uint64(0); k < 40; k++ {
			if got := g.Execute(th, 0, uc.Get(k)); got != k+1 {
				t.Errorf("get(%d) = %d", k, got)
			}
		}
	})
	sch.Run()
}

func TestConcurrentCounterExact(t *testing.T) {
	// Read-modify-write through the lock must never lose updates.
	sys, g := build(t, Config{Object: seq.HashMapType(16), HeapWords: 1 << 16}, 3)
	sch := sim.New(4)
	sys.SetScheduler(sch)
	const workers, per = 8, 30
	for w := 0; w < workers; w++ {
		w := w
		sch.Spawn("w", w%2, 0, func(th *sim.Thread) {
			for i := 0; i < per; i++ {
				k := uint64(w)*100 + uint64(i)
				if got := g.Execute(th, w, uc.Insert(k, k)); got != 1 {
					t.Errorf("insert = %d", got)
				}
			}
		})
	}
	sch.Run()
	sch2 := sim.New(5)
	sys.SetScheduler(sch2)
	sch2.Spawn("check", 0, 0, func(th *sim.Thread) {
		if got := g.Execute(th, 0, uc.Size()); got != workers*per {
			t.Errorf("size = %d, want %d", got, workers*per)
		}
	})
	sch2.Run()
}

func TestPrefill(t *testing.T) {
	sys, g := build(t, Config{Object: seq.HashMapType(16), HeapWords: 1 << 16}, 6)
	sch := sim.New(7)
	sys.SetScheduler(sch)
	sch.Spawn("w", 0, 0, func(th *sim.Thread) {
		g.Prefill(th, []uc.Op{{Code: uc.OpInsert, A0: 1, A1: 2}})
		if got := g.Execute(th, 0, uc.Get(1)); got != 2 {
			t.Errorf("get = %d", got)
		}
	})
	sch.Run()
}
