package shard

import (
	"math"
	"testing"

	"prepuc/internal/openloop"
	"prepuc/internal/uc"
)

func TestRouteInRange(t *testing.T) {
	for _, pol := range []Policy{Hash, Range} {
		r, err := NewRouter(pol, 5, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 2048; k++ { // include keys beyond the key space
			s := r.Route(k)
			if s < 0 || s >= 5 {
				t.Fatalf("%v: Route(%d) = %d out of range", pol, k, s)
			}
		}
	}
}

func TestRangeIntervals(t *testing.T) {
	r, err := NewRouter(Range, 4, 1000) // per = 250
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key  uint64
		want int
	}{{0, 0}, {249, 0}, {250, 1}, {499, 1}, {500, 2}, {750, 3}, {999, 3}, {5000, 3}}
	for _, c := range cases {
		if got := r.Route(c.key); got != c.want {
			t.Errorf("Range Route(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestHashSpreadsAdjacentKeys(t *testing.T) {
	r, _ := NewRouter(Hash, 8, 1<<16)
	counts := make([]int, 8)
	for k := uint64(0); k < 1<<16; k++ {
		counts[r.Route(k)]++
	}
	per := float64(1<<16) / 8
	for s, n := range counts {
		if math.Abs(float64(n)-per)/per > 0.05 {
			t.Errorf("hash shard %d holds %d keys, want ~%.0f", s, n, per)
		}
	}
}

func TestRouteOpUsesKeyOperand(t *testing.T) {
	r, _ := NewRouter(Hash, 4, 1024)
	for k := uint64(0); k < 64; k++ {
		want := r.Route(k)
		for _, op := range []uc.Op{uc.Get(k), uc.Insert(k, 7), uc.Delete(k)} {
			if got := r.RouteOp(op); got != want {
				t.Fatalf("RouteOp(%v) = %d, want Route(%d) = %d", op, got, k, want)
			}
		}
	}
}

func TestPartitionConservesAndOrders(t *testing.T) {
	arr, err := openloop.Generate(openloop.Config{
		Clients: 1000, Keys: 1 << 10, KeySkew: 1.2, ReadPct: 50,
		Rate: 1e6, DurationNS: 2_000_000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRouter(Hash, 4, 1<<10)
	per := openloop.Split(arr, 4, func(a *openloop.Arrival) int { return r.RouteOp(a.Op()) })
	total := 0
	for s, lst := range per {
		total += len(lst)
		last := uint64(0)
		for _, a := range lst {
			if r.RouteOp(a.Op()) != s {
				t.Fatalf("arrival for key %d landed on shard %d, routes to %d",
					a.A0, s, r.RouteOp(a.Op()))
			}
			if a.At < last {
				t.Fatalf("shard %d schedule not time-sorted", s)
			}
			last = a.At
		}
	}
	if total != len(arr) {
		t.Fatalf("partition lost arrivals: %d in, %d out", len(arr), total)
	}
	// One shard owns everything: the schedule itself, not a copy.
	r1, _ := NewRouter(Hash, 1, 1<<10)
	if one := openloop.Split(arr, 1, func(a *openloop.Arrival) int { return r1.RouteOp(a.Op()) }); len(one) != 1 || len(one[0]) != len(arr) || &one[0][0] != &arr[0] {
		t.Fatal("single-shard partition copied the schedule")
	}
}

func TestParseSet(t *testing.T) {
	cases := []struct {
		spec   string
		shards int
		want   []int
		err    bool
	}{
		{"", 4, nil, false},
		{"0", 4, []int{0}, false},
		{"2,0", 4, []int{0, 2}, false},
		{" 1 , 3 ", 4, []int{1, 3}, false},
		{"4", 4, nil, true},
		{"-1", 4, nil, true},
		{"1,1", 4, nil, true},
		{"x", 4, nil, true},
	}
	for _, c := range cases {
		got, err := ParseSet(c.spec, c.shards)
		if (err != nil) != c.err {
			t.Errorf("ParseSet(%q): err = %v, want err=%v", c.spec, err, c.err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("ParseSet(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseSet(%q) = %v, want %v", c.spec, got, c.want)
				break
			}
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range []Policy{Hash, Range} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("ParsePolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParsePolicy("rendezvous"); err == nil {
		t.Error("ParsePolicy accepted unknown policy")
	}
}

// zipfMass returns the analytic probability mass of each shard's key
// partition under the generator's Zipf law: openloop draws keys with
// P(k) ∝ (1+k)^(−s) over [0, Keys) (math/rand.NewZipf with v=1), so a
// shard's expected share of the op stream is the sum of the pmf over the
// keys it owns.
func zipfMass(r *Router, keys uint64, skew float64) []float64 {
	mass := make([]float64, r.shards)
	total := 0.0
	for k := uint64(0); k < keys; k++ {
		p := math.Pow(float64(1+k), -skew)
		mass[r.Route(k)] += p
		total += p
	}
	for s := range mass {
		mass[s] /= total
	}
	return mass
}

// TestRoutingMatchesZipfMass is the KeySkew×routing interaction check: the
// router's observed per-shard op counts over a skewed open-loop schedule
// must match the analytic Zipf mass of each shard's key partition, for both
// policies at two seeds. Range routing concentrates the hot head keys on
// shard 0 (the measurable hot-shard imbalance); hash routing spreads them —
// both are predicted by the same partition-mass computation.
func TestRoutingMatchesZipfMass(t *testing.T) {
	const (
		keys = uint64(1 << 10)
		skew = 1.3
	)
	for _, pol := range []Policy{Hash, Range} {
		for _, seed := range []int64{11, 12} {
			arr, err := openloop.Generate(openloop.Config{
				Clients: 5000, Keys: keys, KeySkew: skew, ReadPct: 50,
				Rate: 4e6, DurationNS: 10_000_000, ThinkNS: 10_000, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, _ := NewRouter(pol, 4, keys)
			counts := make([]uint64, 4)
			for _, a := range arr {
				counts[r.RouteOp(a.Op())]++
			}
			want := zipfMass(r, keys, skew)
			for s := range counts {
				obs := float64(counts[s]) / float64(len(arr))
				if math.Abs(obs-want[s]) > 0.02 {
					t.Errorf("%v seed %d: shard %d observed share %.4f, Zipf partition mass %.4f",
						pol, seed, s, obs, want[s])
				}
			}
			if pol == Range {
				// Sanity: the skew is real — the head-key shard dominates.
				if counts[0] < 2*counts[3] {
					t.Errorf("range seed %d: expected hot shard 0 (%v)", seed, counts)
				}
			}
		}
	}
}
