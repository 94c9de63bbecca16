package harness

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"prepuc/internal/openloop"
	"prepuc/internal/shard"
)

// splitCopy is the reference partition of a materialized schedule: bucket
// b's arrivals in schedule order, one fresh slice per bucket.
func splitCopy(arrivals []openloop.Arrival, n int, bucket func(*openloop.Arrival) int) [][]openloop.Arrival {
	out := make([][]openloop.Arrival, n)
	for i := range arrivals {
		b := bucket(&arrivals[i])
		out[b] = append(out[b], arrivals[i])
	}
	return out
}

// streamCase is one machine's share of a schedule: its bucket function and
// the reference split of its rings.
type streamCase struct {
	name string
	open openloop.Config
	ring func(*openloop.Arrival) int
	want [][]openloop.Arrival
}

// checkWindows draws c's schedule through a machine's ring windows in two
// orders and holds every ring's sequence to the reference split: in
// schedule order, as injectors sharing a clock reach it, retiring each ring
// lag arrivals behind its reader — so the windows stay small and their
// blocks recycle — and ring after ring, retiring as it reads, so the first
// ring's reader draws the whole schedule into the others' windows.
func checkWindows(t *testing.T, c streamCase) {
	t.Helper()
	const lag = blockLen + 44
	total := 0
	for _, w := range c.want {
		total += len(w)
	}
	for _, inOrder := range []bool{true, false} {
		calls := 0
		sc, err := newSchedule(c.open, len(c.want), func(a *openloop.Arrival) int { calls++; return c.ring(a) })
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]openloop.Arrival, len(c.want))
		for r := range got {
			got[r] = make([]openloop.Arrival, 0, len(c.want[r]))
		}
		read := func(r int) bool {
			a := sc.at(r, len(got[r]))
			if a != nil {
				got[r] = append(got[r], *a)
			}
			return a != nil
		}
		if inOrder {
			order := ringsByTime(c.want)
			bytes := allocated(func() {
				for _, r := range order {
					if !read(r) {
						t.Fatalf("%s: ring %d ran dry after %d arrivals", c.name, r, len(got[r]))
					}
					if len(got[r]) > lag {
						sc.retire(r)
					}
				}
				for r := range got {
					if read(r) {
						t.Fatalf("%s: ring %d drew past its share", c.name, r)
					}
				}
			})
			// Each window spans at most lag/blockLen + 2 blocks; the block
			// tables and the free list are a few pointers each.
			if bound := uint64(len(c.want)*(lag/blockLen+2))*uint64(unsafe.Sizeof(block{})) + 4096; bytes > bound {
				t.Errorf("%s: drawing with windows of %d live arrivals allocated %d B; bound %d", c.name, lag, bytes, bound)
			}
		} else {
			for r := range got {
				for read(r) {
					sc.retire(r)
				}
			}
		}
		for r := range c.want {
			if !slices.Equal(got[r], c.want[r]) {
				t.Fatalf("%s (in order %v): ring %d handed out %d arrivals differing from its %d in the reference split",
					c.name, inOrder, r, len(got[r]), len(c.want[r]))
			}
		}
		if sc.drawn != uint64(total) {
			t.Errorf("%s: drew %d arrivals, share %d", c.name, sc.drawn, total)
		}
		if !inOrder && sc.live() {
			t.Errorf("%s: drained schedule still live", c.name)
		}
		if all, _ := openloop.Generate(c.open); calls != len(all) {
			t.Errorf("%s: bucket called %d times for %d arrivals", c.name, calls, len(all))
		}
	}
}

// allocated is the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ringsByTime is the ring of each of a machine's arrivals, in schedule
// order (no two arrivals share an instant).
func ringsByTime(rings [][]openloop.Arrival) []int {
	type tagged struct {
		at   uint64
		ring int
	}
	var all []tagged
	for r, arr := range rings {
		for _, a := range arr {
			all = append(all, tagged{a.At, r})
		}
	}
	slices.SortFunc(all, func(a, b tagged) int { return cmp.Compare(a.at, b.at) })
	out := make([]int, len(all))
	for i, a := range all {
		out[i] = a.ring
	}
	return out
}

// TestStreamMatchesSplit: the per-ring sequences a machine's windows hand
// out, drawn from its stream, equal the stable split of the materialized
// schedule — at several ring counts bucketed by client, under the sharded
// harness's (machine, ring) bucket (each machine drawing the whole stream
// and dropping the others' arrivals), for an empty schedule and with every
// arrival in one ring.
func TestStreamMatchesSplit(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		open := openloop.Config{
			Clients: 100_000, Keys: 1 << 16, KeySkew: 1.2, ReadPct: 80,
			Rate: 5e6, DurationNS: 2_000_000, ThinkNS: 50_000,
			BurstEveryNS: 500_000, BurstLenNS: 100_000, BurstFactor: 4,
			Seed: seed,
		}
		arr, err := openloop.Generate(open)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 5, 7} {
			byClient := func(a *openloop.Arrival) int { return int(a.Client) % n }
			checkWindows(t, streamCase{fmt.Sprintf("seed %d, %d by client", seed, n), open,
				machineRings(nil, 0, n), splitCopy(arr, n, byClient)})
		}
		checkWindows(t, streamCase{fmt.Sprintf("seed %d, all in the last ring", seed), open,
			func(*openloop.Arrival) int { return 3 }, splitCopy(arr, 4, func(*openloop.Arrival) int { return 3 })})

		const machines, rings = 4, 3
		router, err := shard.NewRouter(shard.Hash, machines, open.Keys)
		if err != nil {
			t.Fatal(err)
		}
		split := splitCopy(arr, machines*rings, func(a *openloop.Arrival) int {
			return router.RouteOp(a.Op())*rings + int(a.Client)%rings
		})
		for m := 0; m < machines; m++ {
			checkWindows(t, streamCase{fmt.Sprintf("seed %d, machine %d of %d", seed, m, machines), open,
				machineRings(router, m, rings), split[m*rings : (m+1)*rings]})
		}
	}

	empty := openloop.Config{Clients: 10, Keys: 10, Rate: 1, DurationNS: 1}
	for _, n := range []int{1, 2, 7} {
		checkWindows(t, streamCase{fmt.Sprintf("empty, %d", n), empty,
			func(*openloop.Arrival) int { panic("no arrival to route") }, make([][]openloop.Arrival, n)})
	}
	sc, err := newSchedule(empty, 2, machineRings(nil, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sc.live() || sc.at(1, 0) != nil {
		t.Fatal("an empty schedule has load")
	}
}
