// Package openloop generates open-loop (arrival-driven) workloads for the
// service harness: a large simulated client population emits operations on a
// Poisson arrival process with optional bursts, Zipfian key skew and
// per-client think times, independent of how fast the system under test
// retires them. Latency measured from these arrival stamps is free of
// coordinated omission: a stalled server keeps accumulating arrivals, and
// every queued operation's wait counts against the percentiles.
//
// Generation is deterministic: the schedule is a pure function of the
// config (same seed ⇒ identical arrival stream), so two runs — or a run and
// its crash-recovery replay — agree on every arrival instant.
package openloop

import (
	"fmt"
	"math"
	"math/rand"

	"prepuc/internal/uc"
)

// Config parameterizes one arrival schedule.
type Config struct {
	// Clients is the simulated client population (10^5–10^6 is the intended
	// range; each arrival is attributed to one client).
	Clients int
	// Keys is the key-space size for set operations.
	Keys uint64
	// KeySkew > 1 draws keys from a Zipf distribution with that exponent;
	// 0 (or anything ≤ 1) draws uniformly.
	KeySkew float64
	// ReadPct is the percentage of read-only (Get) operations.
	ReadPct int
	// Rate is the aggregate arrival rate in operations per virtual second.
	Rate float64
	// DurationNS is the schedule horizon in virtual nanoseconds.
	DurationNS uint64
	// ThinkNS is the per-client think time: a client that issued an
	// operation at t is not eligible again before t+ThinkNS.
	ThinkNS uint64
	// BurstEveryNS/BurstLenNS/BurstFactor overlay periodic bursts: within
	// the first BurstLenNS of every BurstEveryNS window the arrival rate is
	// multiplied by BurstFactor. Zero BurstEveryNS disables bursts.
	BurstEveryNS uint64
	BurstLenNS   uint64
	BurstFactor  float64
	// Seed fixes the schedule.
	Seed int64
}

// Arrival is one scheduled operation: 32 bytes, the arrival instant, the
// operation's two arguments and, packed into the last word, the issuing
// client and the operation code. A schedule carries no invocation id (every
// uc.Op it hands out has Invid 0), so the record stores none.
type Arrival struct {
	// At is the arrival instant in virtual nanoseconds.
	At uint64
	// A0 and A1 are the operation's arguments (uc.Op.A0, uc.Op.A1).
	A0, A1 uint64
	// Client is the issuing client's id in [0, Clients).
	Client uint32
	// Code is the operation code (uc.Op.Code).
	Code uint32
}

// Op is the scheduled operation.
func (a *Arrival) Op() uc.Op { return uc.Op{Code: uint64(a.Code), A0: a.A0, A1: a.A1} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clients <= 0 {
		return fmt.Errorf("openloop: Clients must be positive, got %d", c.Clients)
	}
	if uint64(c.Clients) > math.MaxUint32 {
		// Arrival.Client is 32 bits wide: larger ids would alias.
		return fmt.Errorf("openloop: Clients %d exceeds the 32-bit client id (max %d)", c.Clients, uint32(math.MaxUint32))
	}
	if c.Keys == 0 {
		return fmt.Errorf("openloop: Keys must be positive")
	}
	if c.Keys > math.MaxInt64 {
		// The uniform draw is rand.Int63n(int64(Keys)).
		return fmt.Errorf("openloop: Keys %d exceeds the drawable key space (max %d)", c.Keys, int64(math.MaxInt64))
	}
	if c.ReadPct < 0 || c.ReadPct > 100 {
		return fmt.Errorf("openloop: ReadPct must be in [0, 100], got %d", c.ReadPct)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("openloop: Rate must be positive, got %g", c.Rate)
	}
	if c.DurationNS == 0 {
		return fmt.Errorf("openloop: DurationNS must be positive")
	}
	if c.BurstEveryNS > 0 && (c.BurstLenNS == 0 || c.BurstLenNS > c.BurstEveryNS || c.BurstFactor <= 0) {
		return fmt.Errorf("openloop: burst window %d/%d factor %g invalid",
			c.BurstLenNS, c.BurstEveryNS, c.BurstFactor)
	}
	return nil
}

// thinkProbe bounds the linear probe for a think-time-eligible client; past
// it the originally drawn client is used regardless (the population is large
// enough that saturation means the offered load exceeds Clients/ThinkNS, a
// misconfiguration the schedule should surface as queueing, not mask).
const thinkProbe = 64

// Generate materializes the full arrival schedule, sorted by arrival time.
func Generate(cfg Config) ([]Arrival, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.KeySkew > 1 {
		zipf = rand.NewZipf(rng, cfg.KeySkew, 1, cfg.Keys-1)
	}
	key := func() uint64 {
		if zipf != nil {
			return zipf.Uint64()
		}
		return uint64(rng.Int63n(int64(cfg.Keys)))
	}
	// Without think time every client is always eligible (nextFree[c] never
	// exceeds the monotone arrival instant), and the probe below draws
	// nothing from the RNG, so the table is skipped with an identical stream.
	var nextFree []uint64
	if cfg.ThinkNS > 0 {
		nextFree = make([]uint64, cfg.Clients)
	}

	out := make([]Arrival, 0, expectedArrivals(cfg))
	now := float64(0)
	for {
		rate := cfg.Rate
		if cfg.BurstEveryNS > 0 && uint64(now)%cfg.BurstEveryNS < cfg.BurstLenNS {
			rate *= cfg.BurstFactor
		}
		dt := rng.ExpFloat64() / rate * 1e9
		if dt < 1 {
			dt = 1
		}
		now += dt
		at := uint64(now)
		if at >= cfg.DurationNS {
			break
		}

		// Attribute the arrival to a thinking-done client: draw one, probe
		// forward past clients still in their think window.
		c := rng.Intn(cfg.Clients)
		if nextFree != nil {
			for probe := 0; probe < thinkProbe && nextFree[c] > at; probe++ {
				c = (c + 1) % cfg.Clients
			}
			nextFree[c] = at + cfg.ThinkNS
		}

		var op uc.Op
		k := key()
		switch {
		case rng.Intn(100) < cfg.ReadPct:
			op = uc.Get(k)
		case rng.Intn(2) == 0:
			op = uc.Insert(k, rng.Uint64())
		default:
			op = uc.Delete(k)
		}
		out = append(out, Arrival{At: at, A0: op.A0, A1: op.A1, Client: uint32(c), Code: uint32(op.Code)})
	}
	if len(out) > math.MaxInt32 {
		// Split indexes a schedule with 32-bit positions.
		return nil, fmt.Errorf("openloop: %d arrivals exceed the %d a schedule can hold", len(out), math.MaxInt32)
	}
	return out, nil
}

// expectedArrivals is Generate's capacity hint: the mean count of the
// burst-modulated Poisson process over the horizon plus six standard
// deviations, so the result is allocated once (append growth remains the
// fallback for the one-in-a-billion schedule that runs past it).
func expectedArrivals(cfg Config) int {
	mean := cfg.Rate * float64(cfg.DurationNS) / 1e9
	if cfg.BurstEveryNS > 0 {
		mean *= 1 + (cfg.BurstFactor-1)*float64(cfg.BurstLenNS)/float64(cfg.BurstEveryNS)
	}
	// Arrivals are at least 1 ns apart, which also bounds the hint for
	// absurd rates.
	return int(math.Min(mean+6*math.Sqrt(mean)+1, float64(cfg.DurationNS)))
}

// Split partitions a schedule into n sub-schedules, arrival a going to
// sub-schedule bucket(a) in [0, n), and returns them as sub-slices of
// arrivals: it reorders its input in place, so the caller's slice afterwards
// holds bucket 0's arrivals, then bucket 1's, and so on. The partition is
// stable, so every sub-schedule of a time-sorted schedule is time-sorted, and
// each sub-schedule's capacity is its length, so appending to one can never
// run into its neighbour. bucket is called once per arrival, before any
// arrival moves. No arrival is copied out of the input: the only scratch is
// one 4-byte destination index per arrival, and a single bucket is the input
// itself. Split panics on more than math.MaxInt32 arrivals, which the index
// cannot address and Generate never returns.
func Split(arrivals []Arrival, n int, bucket func(*Arrival) int) [][]Arrival {
	if n == 1 {
		return [][]Arrival{arrivals[:len(arrivals):len(arrivals)]}
	}
	if len(arrivals) > math.MaxInt32 {
		panic(fmt.Sprintf("openloop: Split of %d arrivals exceeds the 32-bit index", len(arrivals)))
	}
	// dest[i] holds arrival i's bucket, then its final index: bucket b's
	// arrivals fill, in input order, the run that follows buckets 0..b-1.
	dest := make([]int32, len(arrivals))
	next := make([]int32, n)
	for i := range arrivals {
		b := bucket(&arrivals[i])
		dest[i] = int32(b)
		next[b]++
	}
	out := make([][]Arrival, n)
	off := int32(0)
	for b, c := range next {
		out[b] = arrivals[off : off+c : off+c]
		next[b] = off
		off += c
	}
	for i, b := range dest {
		dest[i] = next[b]
		next[b]++
	}
	// Apply the permutation cycle by cycle: each swap puts one arrival at its
	// final position, so the walk is linear.
	for i := range arrivals {
		for d := dest[i]; int(d) != i; d = dest[i] {
			arrivals[i], arrivals[d] = arrivals[d], arrivals[i]
			dest[i], dest[d] = dest[d], d
		}
	}
	return out
}
