package fault

import (
	"reflect"
	"testing"
)

func decisions(p Policy, pending int) []bool {
	p.BeginCrash(pending)
	out := make([]bool, pending)
	for i := range out {
		out[i] = p.PersistPending(i)
	}
	return out
}

func TestExtremePolicies(t *testing.T) {
	for _, ok := range decisions(DropAll(), 9) {
		if ok {
			t.Fatal("DropAll persisted a line")
		}
	}
	for _, ok := range decisions(PersistAll(), 9) {
		if !ok {
			t.Fatal("PersistAll dropped a line")
		}
	}
}

func TestCoinFlipDeterministicAndBiased(t *testing.T) {
	a := CoinFlip(0.5, 42)
	b := CoinFlip(0.5, 42)
	const n = 4096
	da, db := decisions(a, n), decisions(b, n)
	persisted := 0
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("same seed, different decisions")
		}
		if da[i] {
			persisted++
		}
	}
	if persisted < n/3 || persisted > 2*n/3 {
		t.Errorf("fair coin persisted %d of %d", persisted, n)
	}
	for i, ok := range decisions(CoinFlip(0, 7), 64) {
		if ok {
			t.Errorf("p=0 persisted line %d", i)
		}
	}
	for i, ok := range decisions(CoinFlip(1, 7), 64) {
		if !ok {
			t.Errorf("p=1 dropped line %d", i)
		}
	}
}

func TestTargetedSweepsDropIndex(t *testing.T) {
	p := Targeted(0)
	const n = 5
	for crash := 0; crash < 2*n; crash++ {
		d := decisions(p, n)
		dropped := -1
		for i, ok := range d {
			if !ok {
				if dropped >= 0 {
					t.Fatalf("crash %d dropped more than one line", crash)
				}
				dropped = i
			}
		}
		if dropped != crash%n {
			t.Errorf("crash %d dropped index %d, want %d", crash, dropped, crash%n)
		}
	}
	// Zero pending lines must not panic and must still advance the sweep.
	p.BeginCrash(0)
	if got := decisions(p, 3); !got[0] || !got[1] {
		t.Error("post-empty crash decisions wrong")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Policy
	}{
		{"dropall", DropAll()},
		{"persistall", PersistAll()},
		{"coinflip", CoinFlip(0.5, 1)},
		{"coinflip=0.25", CoinFlip(0.25, 1)},
		{"targeted", Targeted(0)},
		{"targeted=3", Targeted(3)},
	}
	for _, tc := range cases {
		p, err := Parse(tc.spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(p, tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.spec, p, tc.want)
		}
	}
	if p, err := Parse("", 1); p != nil || err != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil, nil", p, err)
	}
	for _, bad := range []string{"nope", "coinflip=2", "coinflip=x", "targeted=-1"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// targeted=3 must start its sweep at index 3.
	p, _ := Parse("targeted=3", 1)
	for i, ok := range decisions(p, 5) {
		if ok == (i == 3) {
			t.Errorf("targeted=3 first crash: index %d persisted=%v", i, ok)
		}
	}
}

// TestTargetedEdgeCases pins the Targeted policy's behaviour at the edges
// the exhaustive explorer leans on: a starting index far beyond the pending
// set (crash point beyond the trace end), crashes with zero pending lines,
// and sweep-state advancement across BeginCrash(0) no-op recoveries.
func TestTargetedEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		first    int
		pendings []int // successive crashes' pending counts
		want     []int // dropped index per crash; -1 = nothing dropped
	}{
		{
			// Start index beyond the pending set wraps modulo n instead of
			// running off the end.
			name: "first-beyond-pending", first: 100,
			pendings: []int{4, 4}, want: []int{0, 1},
		},
		{
			// A crash with zero pending lines drops nothing and must not
			// panic (there is no index to drop).
			name: "zero-line-crash", first: 0,
			pendings: []int{0}, want: []int{-1},
		},
		{
			// No-op recoveries (BeginCrash(0)) still advance the sweep:
			// crash k drops (first+k) mod n counting the empty crashes.
			name: "state-across-empty-crashes", first: 0,
			pendings: []int{5, 0, 0, 5}, want: []int{0, -1, -1, 3},
		},
		{
			// Single pending line: always index 0, never out of range.
			name: "single-line", first: 3,
			pendings: []int{1, 1}, want: []int{0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Targeted(tc.first)
			for crash, pending := range tc.pendings {
				d := decisions(p, pending)
				dropped := -1
				for i, ok := range d {
					if !ok {
						if dropped >= 0 {
							t.Fatalf("crash %d dropped more than one line", crash)
						}
						dropped = i
					}
				}
				if dropped != tc.want[crash] {
					t.Errorf("crash %d (pending=%d): dropped %d, want %d",
						crash, pending, dropped, tc.want[crash])
				}
			}
		})
	}
}

// TestSubsetPolicy: the mask decides each pending index exactly, the policy
// is stateless across crashes, and oversized pending sets are rejected.
func TestSubsetPolicy(t *testing.T) {
	p := Subset(0b1011)
	for crash := 0; crash < 2; crash++ { // identical decisions every crash
		d := decisions(p, 4)
		want := []bool{true, true, false, true}
		for i := range want {
			if d[i] != want[i] {
				t.Errorf("crash %d: index %d persisted=%v, want %v", crash, i, d[i], want[i])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BeginCrash(65) did not panic")
		}
	}()
	Subset(0).BeginCrash(65)
}

// TestParseSubset covers the subset=M CLI spellings.
func TestParseSubset(t *testing.T) {
	p, err := Parse("subset=0x5", 1)
	if err != nil {
		t.Fatalf("Parse(subset=0x5): %v", err)
	}
	if got := decisions(p, 3); !got[0] || got[1] || !got[2] {
		t.Errorf("subset=0x5 decisions = %v", got)
	}
	if p, err := Parse("subset=9", 1); err != nil || p != Subset(9) {
		t.Errorf("Parse(subset=9) = %v, %v", p, err)
	}
	for _, bad := range []string{"subset", "subset=", "subset=zz", "subset=-1"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
