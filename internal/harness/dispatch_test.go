package harness

import (
	"reflect"
	"testing"

	"prepuc/internal/nvm"
	"prepuc/internal/sim"
	"prepuc/internal/workload"
)

// The benchmark's closed_read cell — PREP-Durable at ε=2048 on the small
// scale, 8 workers, reads only — at a fixed short duration and seed. Its
// events and operations are the definition schedule's; its handoffs and
// coroutine switches are what the dispatch rule made of it, so they move
// with any change to who runs ahead, and they are the count behind the
// cell's host time.
func TestClosedReadDispatchPinned(t *testing.T) {
	sc := SmallScale()
	sc.Threads = []int{8}
	sc.DurationNS = 400_000
	var algo AlgoSpec
	for _, a := range Catalog(sc)["fig2a"].Algos {
		if a.Name == "PREP-Durable(e=2048)" {
			algo = a
		}
	}
	if algo.Build == nil {
		t.Fatal("fig2a has no PREP-Durable(e=2048) curve")
	}
	var sys *nvm.System
	build := algo.Build
	algo.Build = func(th *sim.Thread, s *nvm.System, sc Scale, workers int) (System, error) {
		sys = s
		return build(th, s, sc, workers)
	}
	fig := Figure{ID: "closed_read", Workload: workload.SetSpec(100, sc.KeyRange), Algos: []AlgoSpec{algo}}
	pt, err := runPoint(fig, sc, algo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch := sys.Scheduler()
	v := reflect.ValueOf(sch).Elem()
	events, handoffs, switches := sch.Events(), v.FieldByName("handoffs").Uint(), v.FieldByName("switches").Uint()
	t.Logf("%d ops, %d events, %d handoffs, %d switches", pt.Ops, events, handoffs, switches)
	if pt.Ops != 12_304 || events != 167_753 {
		t.Errorf("%d ops, %d events; the definition schedule has 12 304 and 167 753", pt.Ops, events)
	}
	// With every load of a replica heap a dispatch decision, the cell took
	// 167 727 handoffs and 282 269 switches; with the heap frozen under its
	// readers and private to its writer, 102 824 and 156 571.
	const wantHandoffs, wantSwitches = 102_824, 156_571
	if handoffs != wantHandoffs || switches != wantSwitches {
		t.Errorf("%d handoffs, %d switches; pinned at %d and %d", handoffs, switches, wantHandoffs, wantSwitches)
	}
}
