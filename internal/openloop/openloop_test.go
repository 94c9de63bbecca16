package openloop

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"prepuc/internal/uc"
)

func testConfig() Config {
	return Config{
		Clients:      100_000,
		Keys:         1 << 16,
		KeySkew:      1.2,
		ReadPct:      80,
		Rate:         5e6,
		DurationNS:   2_000_000,
		ThinkNS:      50_000,
		BurstEveryNS: 500_000,
		BurstLenNS:   100_000,
		BurstFactor:  4,
		Seed:         42,
	}
}

// TestGenerateDeterministic: the schedule is a pure function of the config.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config produced different schedules")
	}
	cfg := testConfig()
	cfg.Seed++
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestGenerateShape: arrivals are sorted, in-horizon, respect think times,
// honour the read mix roughly, and bursts lift the in-window rate.
func TestGenerateShape(t *testing.T) {
	cfg := testConfig()
	arr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nextFree := make(map[uint32]uint64)
	reads := 0
	var inBurst, outBurst int
	for i, a := range arr {
		if i > 0 && a.At < arr[i-1].At {
			t.Fatalf("arrival %d out of order", i)
		}
		if a.At >= cfg.DurationNS {
			t.Fatalf("arrival %d beyond horizon", i)
		}
		if free, ok := nextFree[a.Client]; ok && a.At < free {
			t.Fatalf("arrival %d violates client %d's think time", i, a.Client)
		}
		nextFree[a.Client] = a.At + cfg.ThinkNS
		if a.Op().Code == uc.OpGet {
			reads++
		}
		if a.At%cfg.BurstEveryNS < cfg.BurstLenNS {
			inBurst++
		} else {
			outBurst++
		}
	}
	frac := float64(reads) / float64(len(arr))
	if frac < 0.75 || frac > 0.85 {
		t.Fatalf("read fraction %f far from configured 0.80", frac)
	}
	// Burst windows are 1/5 of the time at 4x rate: expect roughly half the
	// arrivals inside them (4 / (4+4) of the mass).
	burstFrac := float64(inBurst) / float64(len(arr))
	if burstFrac < 0.35 || burstFrac > 0.65 {
		t.Fatalf("burst-window arrival fraction %f; bursts not visible", burstFrac)
	}
}

// TestGenerateZipfSkew: with skew on, the hottest key should dominate far
// beyond its uniform share.
func TestGenerateZipfSkew(t *testing.T) {
	cfg := testConfig()
	cfg.KeySkew = 1.5
	arr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for _, a := range arr {
		counts[a.Op().A0]++
	}
	top := 0
	for _, n := range counts {
		if n > top {
			top = n
		}
	}
	uniformShare := float64(len(arr)) / float64(cfg.Keys)
	if float64(top) < 20*uniformShare {
		t.Fatalf("hottest key %d arrivals, expected ≫ uniform share %f", top, uniformShare)
	}
}

// TestHistogramExactQuantiles compares every quantile against a sorted
// reference using the histogram's own rank rule: Quantile(q) must equal the
// upper bound of the bucket containing the ⌈q·n⌉-th smallest sample.
func TestHistogramExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	var ref []uint64
	for i := 0; i < 50_000; i++ {
		// Mix of magnitudes: exact-range values, mid-range, heavy tail.
		var v uint64
		switch rng.Intn(3) {
		case 0:
			v = uint64(rng.Intn(64))
		case 1:
			v = uint64(rng.Intn(100_000))
		default:
			v = uint64(rng.Int63n(1 << 40))
		}
		h.Record(v)
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		rank := uint64(q * float64(len(ref)))
		if float64(rank) < q*float64(len(ref)) {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		want := bucketUpper(bucketOf(ref[rank-1]))
		if m := ref[len(ref)-1]; want > m {
			want = m // Quantile clamps to the recorded max
		}
		if got := h.Quantile(q); got != want {
			t.Fatalf("Quantile(%g) = %d, sorted reference bucket upper = %d", q, got, want)
		}
		// Error bound: the reported value is within 1/64 above the true one.
		exact := ref[rank-1]
		if got := h.Quantile(q); got < exact || float64(got-exact) > float64(exact)/64+1 {
			t.Fatalf("Quantile(%g) = %d outside error bound of exact %d", q, got, exact)
		}
	}
	if h.Max() != ref[len(ref)-1] {
		t.Fatalf("Max %d != %d", h.Max(), ref[len(ref)-1])
	}
	if h.count != uint64(len(ref)) {
		t.Fatalf("Count %d != %d", h.count, len(ref))
	}
}

// TestHistogramSmallValuesExact: values under 64 land in unit buckets.
func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 64; v++ {
		h.Record(v)
	}
	for i := 1; i <= 64; i++ {
		q := float64(i) / 64
		if got := h.Quantile(q); got != uint64(i-1) {
			t.Fatalf("Quantile(%g) = %d, want %d", q, got, i-1)
		}
	}
}

// TestHistogramMerge: merging shards equals recording everything into one.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, all Histogram
	for i := 0; i < 10_000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from directly recorded one")
	}
}

// TestGenerateStreamPinned pins the arrival stream itself: an FNV-1a digest
// over every field of every arrival, for a uniform schedule, a Zipf 1.2 one
// (both without think time, where Generate keeps no per-client table) and a
// bursty one with think time. The digests were recorded before Generate
// presized its result and elided the think-time table, so they prove both
// changes draw the same random stream.
func TestGenerateStreamPinned(t *testing.T) {
	base := Config{Clients: 50_000, Keys: 1 << 14, ReadPct: 60, Rate: 8e6, DurationNS: 1_000_000, Seed: 7}
	zipf := base
	zipf.KeySkew = 1.2
	bursty := testConfig()
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		want uint64
	}{
		{"uniform", base, 7927, 0x5295172953b614d4},
		{"zipf1.2", zipf, 7929, 0x28013ec3831b4b96},
		{"bursts+think", bursty, 16085, 0x3f412f531b7caa57},
	} {
		arr, err := Generate(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, a := range arr {
			for _, w := range [...]uint64{a.At, uint64(a.Client), a.Op().Code, a.Op().A0, a.Op().A1} {
				binary.LittleEndian.PutUint64(b[:], w)
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); len(arr) != tc.n || got != tc.want {
			t.Errorf("%s: %d arrivals, digest %#x; want %d, %#x", tc.name, len(arr), got, tc.n, tc.want)
		}
		if hint := expectedArrivals(tc.cfg); cap(arr) != hint || hint > len(arr)+len(arr)/10 {
			t.Errorf("%s: %d arrivals in capacity %d, hint %d: result regrown or oversized", tc.name, len(arr), cap(arr), hint)
		}
	}
}

// TestValidateRejects: every out-of-range field is an error from Validate
// (and so from Generate) — including the two widths the schedule cannot
// represent: client ids past 32 bits, which Arrival.Client would alias, and
// key spaces past int64, which the uniform draw would panic on.
func TestValidateRejects(t *testing.T) {
	ok := testConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	edge := ok
	edge.Keys = math.MaxInt64
	if err := edge.Validate(); err != nil {
		t.Fatalf("Keys = MaxInt64 rejected: %v", err)
	}
	for _, pct := range []int{0, 100} {
		edge.ReadPct = pct
		if err := edge.Validate(); err != nil {
			t.Fatalf("ReadPct = %d rejected: %v", pct, err)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"no clients", func(c *Config) { c.Clients = 0 }},
		{"clients past uint32", func(c *Config) { c.Clients = math.MaxUint32 + 1 }},
		{"no keys", func(c *Config) { c.Keys = 0 }},
		{"keys past int64", func(c *Config) { c.Keys = math.MaxInt64 + 1 }},
		{"keys past int64, zipf", func(c *Config) { c.Keys, c.KeySkew = math.MaxUint64, 1.2 }},
		{"no rate", func(c *Config) { c.Rate = 0 }},
		{"more than every operation a read", func(c *Config) { c.ReadPct = 101 }},
		{"negative read share", func(c *Config) { c.ReadPct = -1 }},
		{"no duration", func(c *Config) { c.DurationNS = 0 }},
		{"burst longer than its window", func(c *Config) { c.BurstLenNS = c.BurstEveryNS + 1 }},
		{"burst factor zero", func(c *Config) { c.BurstFactor = 0 }},
	} {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s: Generate accepted", tc.name)
		}
	}
}

// TestArrivalSize pins the schedule's record at 32 bytes: a serve machine
// holds every arrival from its draw to its completion, a whole backlog of
// them under overload.
func TestArrivalSize(t *testing.T) {
	if got := unsafe.Sizeof(Arrival{}); got != 32 {
		t.Fatalf("Arrival is %d bytes, want 32", got)
	}
}
