package metrics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSnapshotDerivedFields(t *testing.T) {
	r := NewRegistry()
	r.FlushAsync = 10
	r.FlushSync = 3
	r.ObserveBatch(4)
	r.ObserveBatch(2)
	s := r.Snapshot()
	if s.Flushes != 13 {
		t.Errorf("Flushes = %d, want 13", s.Flushes)
	}
	if s.MeanBatchSize != 3.0 {
		t.Errorf("MeanBatchSize = %f, want 3.0", s.MeanBatchSize)
	}
	if s.CombinerAcquisitions != 2 || s.CombinedOps != 6 {
		t.Errorf("batch counters = (%d, %d), want (2, 6)", s.CombinerAcquisitions, s.CombinedOps)
	}
}

func TestBatchBuckets(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{15, 3}, {16, 4}, {128, 7}, {1 << 40, 7},
	}
	for _, c := range cases {
		if got := batchBucket(c.n); got != c.want {
			t.Errorf("batchBucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	r := NewRegistry()
	r.ObserveBatch(5)
	if r.BatchHist[2] != 1 {
		t.Errorf("ObserveBatch(5) landed in %v", r.BatchHist)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	r.Fences = 5
	r.Loads = 100
	r.ObserveBatch(3)
	base := r.Snapshot()
	r.Fences = 9
	r.Loads = 250
	r.ObserveBatch(3)
	r.ObserveBatch(1)
	d := r.Snapshot().Sub(base)
	if d.Fences != 4 || d.Loads != 150 {
		t.Errorf("delta = fences %d loads %d, want 4, 150", d.Fences, d.Loads)
	}
	if d.CombinerAcquisitions != 2 || d.CombinedOps != 4 {
		t.Errorf("delta batches = (%d, %d), want (2, 4)", d.CombinerAcquisitions, d.CombinedOps)
	}
	if d.MeanBatchSize != 2.0 {
		t.Errorf("delta mean batch = %f, want 2.0", d.MeanBatchSize)
	}
	if d.BatchHist[1] != 1 || d.BatchHist[0] != 1 {
		t.Errorf("delta hist = %v", d.BatchHist)
	}
}

// TestSubCoversEveryField guards the reflection-based subtraction: a
// snapshot minus itself must be identically zero, whatever fields Counters
// grows.
func TestSubCoversEveryField(t *testing.T) {
	r := NewRegistry()
	r.Loads, r.Stores, r.CASes = 1, 2, 3
	r.Fences, r.WBINVDs, r.LogWraps = 4, 5, 6
	r.ObserveBatch(7)
	s := r.Snapshot()
	if d := s.Sub(s); d != (Snapshot{}) {
		t.Errorf("s.Sub(s) = %+v, want zero", d)
	}
}

// fillDistinct sets every scalar slot of c (each uint64 field, each array
// element) to a distinct nonzero value counting up from next, and returns
// the first value it did not use.
func fillDistinct(t *testing.T, c *Counters, next uint64) uint64 {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(next)
			next++
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(next)
				next++
			}
		default:
			t.Fatalf("unsupported Counters field kind %v", f.Kind())
		}
	}
	return next
}

// TestAddIsFieldComplete proves Add sums *every* Counters field exactly,
// via reflection: each scalar field (and array element) of the operands is
// set to a distinct nonzero value, and the sum is verified field by field.
// A field Add skipped would surface as its a-value instead of a+b — so a
// future counter cannot silently be dropped from cross-shard aggregates.
func TestAddIsFieldComplete(t *testing.T) {
	var a, b Counters
	next := fillDistinct(t, &b, fillDistinct(t, &a, 1))
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)

	sum := Snapshot{Counters: a}.Add(Snapshot{Counters: b})
	vs := reflect.ValueOf(sum.Counters)
	fields := 0
	for i := 0; i < vs.NumField(); i++ {
		fs, fa, fb := vs.Field(i), va.Field(i), vb.Field(i)
		name := vs.Type().Field(i).Name
		switch fs.Kind() {
		case reflect.Uint64:
			fields++
			if fs.Uint() != fa.Uint()+fb.Uint() {
				t.Errorf("%s = %d, want %d+%d", name, fs.Uint(), fa.Uint(), fb.Uint())
			}
		case reflect.Array:
			for j := 0; j < fs.Len(); j++ {
				fields++
				if fs.Index(j).Uint() != fa.Index(j).Uint()+fb.Index(j).Uint() {
					t.Errorf("%s[%d] = %d, want %d+%d", name, j,
						fs.Index(j).Uint(), fa.Index(j).Uint(), fb.Index(j).Uint())
				}
			}
		}
	}
	if want := int(next - 1); fields*2 != want {
		t.Errorf("verified %d scalar slots, but %d were filled", fields*2, want)
	}

	// Derived fields are recomputed over the sum, not added.
	if sum.Flushes != sum.FlushAsync+sum.FlushSync {
		t.Errorf("Flushes = %d, want %d", sum.Flushes, sum.FlushAsync+sum.FlushSync)
	}
	if want := float64(sum.CombinedOps) / float64(sum.CombinerAcquisitions); sum.MeanBatchSize != want {
		t.Errorf("MeanBatchSize = %f, want %f", sum.MeanBatchSize, want)
	}
}

// TestAddSubRoundTrip: (a+b)−b must be exactly a for every field.
func TestAddSubRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Loads, r.Fences, r.DedupHits = 10, 20, 30
	r.ObserveBatch(4)
	a := r.Snapshot()
	r2 := NewRegistry()
	r2.Loads, r2.Stores, r2.RingSubmits = 7, 8, 9
	r2.ObserveBatch(2)
	b := r2.Snapshot()
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("(a+b)-b = %+v, want %+v", got, a)
	}
}

// TestSnapshotJSONRoundTrip is the wire rule: every Counters field has a
// wire name of its own — non-empty, unique, never "-" — and a snapshot with
// every scalar slot set to a distinct nonzero value survives marshal →
// unmarshal unchanged. A counter hidden from the documents, or two sharing a
// name, fails here.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	seen := map[string]string{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Counters{}), reflect.TypeOf(Snapshot{})} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				continue // Snapshot embeds Counters; its fields are checked above
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Errorf("%s.%s has no wire name (json tag %q)", typ.Name(), f.Name, f.Tag.Get("json"))
			}
			if prev, dup := seen[name]; dup {
				t.Errorf("%s.%s and %s share the wire name %q", typ.Name(), f.Name, prev, name)
			}
			seen[name] = typ.Name() + "." + f.Name
		}
	}

	var c Counters
	fillDistinct(t, &c, 1)
	s := finish(c)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != len(seen) {
		t.Errorf("snapshot JSON has %d keys, the structs declare %d wire names", len(m), len(seen))
	}
	for name := range seen {
		if _, ok := m[name]; !ok {
			t.Errorf("snapshot JSON missing key %q", name)
		}
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
}
