package harness

import (
	"bytes"
	"testing"
)

// TestParallelJobsIdenticalJSON renders the same sweep (a figure plus the
// recovery experiment) through 1 and 8 workers and requires byte-identical
// JSON documents: parallelism must not leak into results or their order.
func TestParallelJobsIdenticalJSON(t *testing.T) {
	sc := TinyScale()
	fig := Catalog(sc)["fig1a"]
	docFor := func(jobs int) []byte {
		points, err := RunFigure(fig, sc, 1, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RunRecoveryExperiment(sc, 1, jobs, nil)
		if err != nil {
			t.Fatal(err)
		}
		doc := NewBenchDoc(sc, 1)
		doc.AddFigure(fig, points)
		doc.AddRecovery(rec)
		var buf bytes.Buffer
		if err := doc.WriteBenchJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := docFor(1)
	parallel := docFor(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-j 1 and -j 8 documents differ:\n-j1: %d bytes\n-j8: %d bytes", len(serial), len(parallel))
	}
}

// TestParallelProgressOrdered checks the ordered-release progress stream: a
// parallel run must print exactly the lines a serial run prints, in the
// same order.
func TestParallelProgressOrdered(t *testing.T) {
	sc := TinyScale()
	fig := Catalog(sc)["fig1a"]
	var serial, parallel bytes.Buffer
	if _, err := RunFigure(fig, sc, 1, 1, &serial); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFigure(fig, sc, 1, 8, &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("progress output differs:\nserial:\n%s\nparallel:\n%s", serial.String(), parallel.String())
	}
}
