package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"prepuc/internal/drivers"
	"prepuc/internal/metrics"
	"prepuc/internal/nvm"
	"prepuc/internal/openloop"
	"prepuc/internal/sim"
	"prepuc/internal/svc"
	"prepuc/internal/uc"
)

// backpressureConfig offers an update-only load at about four times what
// two consumers retire through 8-entry rings, so the injectors carry a
// host-side backlog for the whole run and the rings reject submissions
// throughout — the regime the committed prepserve goldens never enter.
func backpressureConfig() ServeConfig {
	return ServeConfig{
		Shards: 2, RingSize: 8, MaxBatch: 8, Batched: true, Seed: 5,
		Open: openloop.Config{
			Clients: 20_000, Keys: 1 << 12, KeySkew: 1.2, ReadPct: 0,
			Rate: 4e7, DurationNS: 100_000,
			BurstEveryNS: 25_000, BurstLenNS: 5_000, BurstFactor: 4,
			Seed: 99,
		},
	}
}

// backpressureRecord is RunServe's record at backpressureConfig, produced
// by the injector that kept rejected arrivals in an append/pop-front queue
// (commit 5cf41ba; the metrics block, which that record predates, is the
// same run's). The injector issues submit attempts and Steps only, so any
// other sequence of them moves a counter or a percentile here.
const backpressureRecord = `{"system":"PREP-Durable","submitted":6319,"completed":6319,"ops_per_sec":15355753.36507034,"latency_ns":{"p50":151551,"p99":311295,"p999":311806,"max":311806,"mean":152069.08482354804},"ring":{"submits":6319,"full_stalls":7345,"batches":798,"batched_ops":6319,"mean_batch":7.9185463659147866},"metrics":{"loads":266261,"stores":169649,"cas_ops":9515,"flush_async":18825,"flush_sync":892,"flush_elision_checks":19855,"flushes_elided":138,"fences":1694,"wbinvd_count":99,"wbinvd_lines":5617,"bg_flushes":746,"lines_written_back":26080,"coherence_local":28548,"coherence_remote":6808,"crash_lines_persisted":0,"crash_lines_dropped":0,"clones":0,"pages_copied":224,"lines_scanned_at_crash":0,"recovery_restarts":0,"replay_holes":0,"logtail_cas_attempts":798,"logtail_cas_failures":0,"log_wraps":1,"lock_acquisitions":1596,"lock_handoffs":186,"updates":6319,"reads":0,"combiner_acquisitions":798,"combined_ops":6319,"batch_hist":[6,1,10,781,0,0,0,0],"flush_boundary_stall_ns":42618,"persist_cycles":98,"persist_cycle_ns":6497,"boundary_reductions":0,"cross_node_helps":0,"update_now_services":0,"ring_submits":6319,"ring_full_stalls":7345,"ring_batches":798,"ring_batched_ops":6319,"descriptor_writes":6319,"descriptor_flushes":6319,"dedup_hits":0,"flushes":19717,"mean_batch_size":7.9185463659147866}}`

// TestInjectUnderBackpressure pins injection against full rings: the record
// equals the queue injector's byte for byte, every scheduled arrival is
// submitted and completed exactly once, and each ring completes its share of
// the schedule in schedule order.
func TestInjectUnderBackpressure(t *testing.T) {
	cfg := backpressureConfig()
	d := ServeDrivers(cfg.Shards, 64)[0]
	res, err := RunServe(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	if string(got) != backpressureRecord {
		t.Errorf("record moved under backpressure:\n got %s\nwant %s", got, backpressureRecord)
	}
	arrivals, err := openloop.Generate(cfg.Open)
	if err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(arrivals)); res.Completed != n || res.Submitted != n {
		t.Errorf("scheduled %d, submitted %d, completed %d", n, res.Submitted, res.Completed)
	}
	if res.Ring.FullStalls == 0 {
		t.Fatal("no ring-full stalls: the geometry does not exercise the backlog")
	}

	// Completion order per ring, observed through the service's own hook:
	// the same phase spawner and injector, on a machine booted here so the
	// test can see each completion's identity.
	perShard := openloop.Split(arrivals, cfg.Shards, func(a *openloop.Arrival) int { return ringOf(a, cfg.Shards) })
	run, _, _ := runServePhase(t, cfg, perShard, false)
	if run.metrics.RingFullStalls == 0 {
		t.Fatal("no ring-full stalls on the observed machine")
	}
	for shard, arr := range perShard {
		if len(run.done[shard]) != len(arr) {
			t.Fatalf("ring %d completed %d of %d", shard, len(run.done[shard]), len(arr))
		}
		for k, a := range arr {
			// The k-th completion carries the k-th submission's id and the
			// k-th scheduled arrival's stamp.
			got := run.done[shard][k]
			if want := svc.InvocationID(0, shard, uint64(k)); got.arrival != a.At || got.invid != want {
				t.Fatalf("ring %d completion %d = %+v, want arrival %d, invid %#x", shard, k, got, a.At, want)
			}
		}
	}
}

// completion is one completion record as the service's hook delivers it.
type completion struct{ arrival, invid, result, exec, done uint64 }

// servePhaseRun is what one service phase leaves behind.
type servePhaseRun struct {
	events  uint64
	clocks  []uint64 // the phase's consumers and injectors, in spawn order
	metrics metrics.Snapshot
	done    [][]completion // per ring, in completion order
}

// runServePhase boots PREP-Durable with detectable submission rings at cfg,
// as RunServe does, and runs one spawnServicePhase over perShard — under the
// built-in dispatch rule, or under a MinClock Chooser, where Await runs its
// definition loop and no segment runs inline. It returns the phase's
// scheduler and threads for their test-only tallies.
func runServePhase(t *testing.T, cfg ServeConfig, perShard [][]openloop.Arrival, chooser bool) (servePhaseRun, *sim.Scheduler, []*sim.Thread) {
	t.Helper()
	d := ServeDrivers(cfg.Shards, 64)[0]
	tp := serveTopo(cfg.Shards)
	run := servePhaseRun{done: make([][]completion, cfg.Shards)}
	var s *svc.Service
	sys, _, err := drivers.Boot(d, nvm.Config{Costs: sim.UnitCosts(), BGFlushOneIn: 128, Seed: uint64(cfg.Seed) + 7},
		func(t *sim.Thread, sys *nvm.System, eng uc.UC) (err error) {
			s, err = svc.New(t, sys, svc.Config{
				Engine: eng, Topology: tp, Shards: cfg.Shards,
				RingSize: cfg.RingSize, MaxBatch: cfg.MaxBatch, Batched: true,
				Detect: true,
				OnComplete: func(shard int, f *svc.Future) {
					run.done[shard] = append(run.done[shard], completion{f.ArrivalNS, f.Invid, f.Result, f.ExecNS, f.DoneNS})
				},
			})
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	var ths []*sim.Thread
	sch, err := drivers.Phase(sys, func(sch *sim.Scheduler) {
		if chooser {
			sch.SetChooser(minClockChooser{})
		}
		ths = spawnServicePhase(sch, tp, s, d, cfg, perShard, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	run.events = sch.Events()
	for _, th := range ths {
		run.clocks = append(run.clocks, th.Clock())
	}
	run.metrics = sys.Metrics().Snapshot()
	return run, sch, ths
}

type minClockChooser struct{}

func (minClockChooser) Choose(_ int, cands []sim.Candidate) int { return sim.MinClock(cands) }

// TestServePhaseMatchesChooserTwin runs a service phase under backpressure
// plain — the injectors and the idle consumers' waits run as poll segments on
// whatever thread holds the baton, and a submission's stores run there too —
// and under a MinClock Chooser, which runs Await's definition loop. The two
// must agree on events, every consumer and injector clock, the metrics and
// every ring's completion records. The plain run's handoffs and coroutine
// switches are pinned: they are deterministic, so a segment that leaks a
// Step, or a wait that stops running inline, moves them. An injector is
// switched in at most twice, to start and to finish.
func TestServePhaseMatchesChooserTwin(t *testing.T) {
	cfg := backpressureConfig()
	arrivals, err := openloop.Generate(cfg.Open)
	if err != nil {
		t.Fatal(err)
	}
	perShard := openloop.Split(arrivals, cfg.Shards, func(a *openloop.Arrival) int { return ringOf(a, cfg.Shards) })
	got, sch, ths := runServePhase(t, cfg, perShard, false)
	want, _, _ := runServePhase(t, cfg, perShard, true)
	if !reflect.DeepEqual(got.clocks, want.clocks) || got.events != want.events {
		t.Fatalf("events %d, clocks %v; Chooser twin: events %d, clocks %v", got.events, got.clocks, want.events, want.clocks)
	}
	if got.metrics != want.metrics {
		t.Fatalf("metrics differ from the Chooser twin's:\n plain %+v\n  twin %+v", got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.done, want.done) {
		t.Fatal("completion records differ from the Chooser twin's")
	}
	if got.metrics.RingFullStalls == 0 {
		t.Fatal("no ring-full stalls: the phase does not exercise the backlog")
	}

	// The same phase with the injector and the consumer's idle wait stepping
	// on their own goroutines took 365 106 handoffs and 385 275 switches;
	// with the distributed reader–writer lock's waits stepping there too,
	// 365 106 handoffs and 284 545 switches; with the persistence thread's
	// replica-heap accesses each a dispatch decision, 364 044 handoffs and
	// 283 065 switches; with the consumer's idle wait never parking,
	// 189 064 handoffs and 113 125 switches; with each volatile replica heap
	// a dispatch decision on every access, 188 183 handoffs and 113 125
	// switches.
	const wantHandoffs, wantSwitches = 158_782, 93_347
	v := reflect.ValueOf(sch).Elem()
	handoffs, switches, parks := v.FieldByName("handoffs").Uint(), v.FieldByName("switches").Uint(), v.FieldByName("parks").Uint()
	var ins []uint64
	for _, th := range ths {
		ins = append(ins, reflect.ValueOf(th).Elem().FieldByName("ins").Uint())
	}
	t.Logf("%d events, %d handoffs, %d switches, %d parks; switched in (consumer, injector per ring): %v",
		got.events, handoffs, switches, parks, ins)
	if handoffs != wantHandoffs || switches != wantSwitches {
		t.Errorf("%d handoffs, %d switches; pinned at %d and %d", handoffs, switches, wantHandoffs, wantSwitches)
	}
	for i := 1; i < len(ins); i += 2 {
		if ins[i] > 2 {
			t.Errorf("injector %d switched in %d times, want at most 2", i/2, ins[i])
		}
	}
}
