package sim

// Costs is the virtual-time latency model, in nanoseconds per event. It
// stands in for the memory hierarchy of the paper's evaluation machine
// (2-socket Xeon Gold 5220R + Optane DCPMM). Only the *relative* magnitudes
// matter for reproducing the shape of the evaluation; see DESIGN.md §1.
type Costs struct {
	// LocalAccess is a load/store/CAS on a line already in the caller's
	// cache (own or shared state) — an L1/L2 hit, amortized.
	LocalAccess uint64
	// CoherenceLocal is the extra cost of acquiring a line last written by
	// another thread on the same NUMA node (an L1-to-L1/L2 transfer).
	// CoherenceRemote is the same across sockets. These model the MESI
	// traffic that makes contended locks slow and per-node replicas fast —
	// the effect node replication exists to exploit.
	CoherenceLocal, CoherenceRemote uint64
	// NVMStoreExtra is the additional cost of a store whose target memory is
	// non-volatile (Optane write-combining buffers absorb part of the
	// latency; the rest surfaces at flush time).
	NVMStoreExtra uint64
	// NVMLoadExtra is the additional cost of a load from non-volatile
	// memory (Optane reads are ~2-3x DRAM).
	NVMLoadExtra uint64
	// FlushLine is issuing an asynchronous write-back (CLWB/CLFLUSHOPT).
	FlushLine uint64
	// FlushSync is a blocking flush (CLFLUSH) of one line.
	FlushSync uint64
	// FlushCheck is the cached per-line state lookup of a FliT-style tracked
	// flush: when elision finds the line clean (or already pending on this
	// thread) the write-back is skipped and only this check is charged.
	FlushCheck uint64
	// Fence is an SFENCE draining all pending asynchronous flushes.
	// Charged once per fence plus FencePerPending for each drained line.
	Fence           uint64
	FencePerPending uint64
	// WBINVDBase is the fixed cost of the privileged whole-cache write-back
	// (issued via a syscall in the paper); WBINVDPerLine is added for each
	// dirty line written back.
	WBINVDBase    uint64
	WBINVDPerLine uint64
	// OpBase is fixed per-operation overhead outside shared memory
	// (argument marshalling, branch logic) charged once per ExecuteConcurrent.
	OpBase uint64
}

// DefaultCosts returns the calibrated model used by the benchmark harness.
// Values are loosely based on published Optane DCPMM and Xeon measurements:
// DRAM-ish access ~15ns locally, ~120ns across sockets, CLWB+SFENCE to
// Optane ~500ns effective, CLFLUSH ~400ns, WBINVD hundreds of microseconds.
func DefaultCosts() Costs {
	return Costs{
		LocalAccess:     15,
		CoherenceLocal:  45,
		CoherenceRemote: 130,
		NVMStoreExtra:   60,
		NVMLoadExtra:    30,
		FlushLine:       40,
		FlushSync:       400,
		FlushCheck:      15,
		Fence:           120,
		FencePerPending: 350,
		WBINVDBase:      150_000,
		WBINVDPerLine:   40,
		OpBase:          30,
	}
}

// UnitCosts charges one nanosecond per event regardless of kind; tests use
// it when they need clocks to advance deterministically.
func UnitCosts() Costs {
	return Costs{
		LocalAccess: 1, CoherenceLocal: 1, CoherenceRemote: 1,
		NVMStoreExtra: 1, NVMLoadExtra: 1,
		FlushLine: 1, FlushSync: 1, FlushCheck: 1, Fence: 1, FencePerPending: 1,
		WBINVDBase: 1, WBINVDPerLine: 1, OpBase: 1,
	}
}
