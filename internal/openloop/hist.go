package openloop

import "math/bits"

// Histogram is a fixed-size log-linear latency histogram (HdrHistogram
// style): values below 64 get exact unit buckets; above, each power-of-two
// octave splits into 64 sub-buckets, bounding the relative quantile error at
// 1/64 ≈ 1.6% across the full uint64 range. Recording is O(1) with no
// allocation, so the harness can record millions of virtual-time latencies
// host-side without perturbing the simulation.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// 64 unit buckets + 57 octaves ([2^6,2^7) .. [2^62,2^63]) × 64 sub-buckets.
// bucketOf(1<<63 - 1) = 57*64 + 127 = 3775, so 3776 covers every uint64 the
// simulator can produce as a latency.
const histBuckets = 3776

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 7
	return e*64 + int(v>>uint(e))
}

// bucketUpper is the largest value mapping to bucket b.
func bucketUpper(b int) uint64 {
	if b < 64 {
		return uint64(b)
	}
	e := uint(b/64 - 1)
	m := uint64(b%64 + 64)
	return ((m + 1) << e) - 1
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h (per-shard histograms merging into a machine
// total).
func (h *Histogram) Merge(other *Histogram) {
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Max and Mean report the exact tallies.
func (h *Histogram) Max() uint64 { return h.max }
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// sample — the smallest bucket boundary v such that at least ⌈q·count⌉
// samples are ≤ v — clamped to the recorded maximum so no reported
// percentile exceeds Max. Exact for values below 64; within 1/64 relative
// error above. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	cum := uint64(0)
	for b, n := range h.buckets {
		cum += n
		if cum >= rank {
			if v := bucketUpper(b); v < h.max {
				return v
			}
			return h.max
		}
	}
	return h.max
}
