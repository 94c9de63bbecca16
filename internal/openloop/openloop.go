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

// Stream draws a schedule one arrival at a time, in arrival order: the
// generator's state between two draws, so a consumer holds only the arrivals
// it still needs. Collecting a stream is Generate.
type Stream struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	// nextFree[c] is the instant client c's think window ends. Without think
	// time every client is always eligible (nextFree[c] never exceeds the
	// monotone arrival instant), and the probe draws nothing from the RNG, so
	// the table is skipped with an identical stream.
	nextFree []uint64
	now      float64
	ended    bool
}

// NewStream starts cfg's schedule at its first arrival.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.KeySkew > 1 {
		s.zipf = rand.NewZipf(s.rng, cfg.KeySkew, 1, cfg.Keys-1)
	}
	if cfg.ThinkNS > 0 {
		s.nextFree = make([]uint64, cfg.Clients)
	}
	return s, nil
}

// Next returns the schedule's next arrival, or false once the horizon is
// reached (and on every later call).
func (s *Stream) Next() (Arrival, bool) {
	if s.ended {
		return Arrival{}, false
	}
	cfg, rng := &s.cfg, s.rng
	rate := cfg.Rate
	if cfg.BurstEveryNS > 0 && uint64(s.now)%cfg.BurstEveryNS < cfg.BurstLenNS {
		rate *= cfg.BurstFactor
	}
	dt := rng.ExpFloat64() / rate * 1e9
	if dt < 1 {
		dt = 1
	}
	s.now += dt
	at := uint64(s.now)
	if at >= cfg.DurationNS {
		s.ended = true
		return Arrival{}, false
	}

	// Attribute the arrival to a thinking-done client: draw one, probe
	// forward past clients still in their think window.
	c := rng.Intn(cfg.Clients)
	if s.nextFree != nil {
		for probe := 0; probe < thinkProbe && s.nextFree[c] > at; probe++ {
			c = (c + 1) % cfg.Clients
		}
		s.nextFree[c] = at + cfg.ThinkNS
	}

	var k uint64
	if s.zipf != nil {
		k = s.zipf.Uint64()
	} else {
		k = uint64(rng.Int63n(int64(cfg.Keys)))
	}
	var op uc.Op
	switch {
	case rng.Intn(100) < cfg.ReadPct:
		op = uc.Get(k)
	case rng.Intn(2) == 0:
		op = uc.Insert(k, rng.Uint64())
	default:
		op = uc.Delete(k)
	}
	return Arrival{At: at, A0: op.A0, A1: op.A1, Client: uint32(c), Code: uint32(op.Code)}, true
}

// Generate materializes the full arrival schedule, sorted by arrival time:
// cfg's stream, collected.
func Generate(cfg Config) ([]Arrival, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Arrival, 0, expectedArrivals(cfg))
	for a, ok := s.Next(); ok; a, ok = s.Next() {
		out = append(out, a)
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
