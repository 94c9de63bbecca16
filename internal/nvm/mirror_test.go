package nvm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"prepuc/internal/metrics"
	"prepuc/internal/sim"
)

// mirrorRefusal is one effect during a mirror of m to d and what it raises
// when "boot", the mirror's holder, makes it to m and to d, then when "other"
// makes it to m and to d; "" where the effect is allowed.
type mirrorRefusal struct {
	name  string
	touch func(sys *System, x *Memory, f *Flusher, th *sim.Thread)
	want  [4]string
	// atRelease: the holder raises the panic at its release, whoever made
	// the effect.
	atRelease bool
}

var mirrorRefusals = func() []mirrorRefusal {
	const src, dst = `m, mirrored to d by thread "boot"`, `d, mirrored from m by thread "boot"`
	by := func(who, what string) [2]string {
		return [2]string{`thread "` + who + `" ` + what + ` ` + src, `thread "` + who + `" ` + what + ` ` + dst}
	}
	// what the holder may do to m but nobody to d, nor another thread to m
	only := func(what string) [4]string {
		o := by("other", what)
		return [4]string{"", by("boot", what)[1], o[0], o[1]}
	}
	// what nobody may do to either
	none := func(what string) [4]string {
		b, o := by("boot", what), by("other", what)
		return [4]string{b[0], b[1], o[0], o[1]}
	}
	// a Begin half: the holder passes m's gate and is refused as a half
	begin := func(half string) [4]string {
		w := only("accessed")
		w[0] = by("boot", "took "+half+" on")[0]
		return w
	}
	// a flush or write-back: the holder is refused as writing back
	flush := only("accessed")
	flush[0] = by("boot", "wrote back")[0]
	release := [4]string{"", by("boot", "released")[1],
		`thread "other" released m, which it does not hold`, `thread "other" released d, which it does not hold`}
	const hooked = `thread "boot" mirrored m under a hook, mirrored to d by thread "boot"`
	return []mirrorRefusal{
		{"load", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Load(th, 0) }, only("accessed"), false},
		{"store", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Store(th, 0, 1) }, only("accessed"), false},
		{"cas", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.CAS(th, 0, 7, 1) }, only("accessed"), false},
		{"load begin", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.LoadBegin(th, 0) }, begin("LoadBegin"), false},
		{"store begin", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.StoreBegin(th, 0) }, begin("StoreBegin"), false},
		{"cas begin", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.CASBegin(th, 0) }, begin("CASBegin"), false},
		{"flush", func(_ *System, x *Memory, f *Flusher, th *sim.Thread) { f.FlushLine(th, x, 0) }, flush, false},
		{"flush sync", func(_ *System, x *Memory, f *Flusher, th *sim.Thread) { f.FlushLineSync(th, x, 0) }, flush, false},
		{"flush region", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.FlushRegion(th, 0, 8) }, flush, false},
		{"flush all dirty", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.FlushAllDirty(th) }, flush, false},
		{"wbinvd", func(sys *System, x *Memory, _ *Flusher, th *sim.Thread) { sys.WBINVD(th, x) }, flush, false},
		{"watch", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Watch(th, 0) }, none("watched"), false},
		{"hold write", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Hold(th, true) }, none("held"), false},
		{"hold read", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Hold(th, false) }, none("held"), false},
		{"mirror", func(sys *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Mirror(th, sys.Memory("p")) }, none("held"), false},
		{"release", func(_ *System, x *Memory, _ *Flusher, th *sim.Thread) { x.Release(th) }, release, false},
		// A hook installed during the stretch, by anyone, refuses the mirror
		// at its release.
		{"access hook", func(sys *System, _ *Memory, _ *Flusher, _ *sim.Thread) { sys.SetAccessHook(func(Access) {}) },
			[4]string{hooked, hooked, hooked, hooked}, true},
		{"persist-effect hook", func(sys *System, _ *Memory, _ *Flusher, _ *sim.Thread) { sys.SetPersistEffectHook(func(int) {}) },
			[4]string{hooked, hooked, hooked, hooked}, true},
	}
}()

// Only the mirror's holder may touch its source, and only by whole loads,
// stores and CASes; nobody touches a destination (mirrorRefusals). The
// mirror's panics name the source, its destinations and its holder. End
// halves are not in the table: like any hold's, a mirror's gate refuses the
// Begin half an End half completes.
func TestMirrorRefusals(t *testing.T) {
	for _, tc := range mirrorRefusals {
		for col, c := range []struct{ who, target string }{{"boot", "m"}, {"boot", "d"}, {"other", "m"}, {"other", "d"}} {
			want := tc.want[col]
			t.Run(fmt.Sprintf("%s %s to %s", c.who, tc.name, c.target), func(t *testing.T) {
				sch := sim.New(0)
				sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
				m := sys.NewMemory("m", NVM, 0, 64)
				d := sys.NewMemory("d", NVM, 0, 64)
				sys.NewMemory("p", NVM, 0, 64)
				f := sys.NewFlusher()
				x := map[string]*Memory{"m": m, "d": d}[c.target]
				sch.Spawn("boot", 0, 5, func(th *sim.Thread) {
					m.Mirror(th, d)
					m.Store(th, 0, 7)
					if c.who == "boot" {
						tc.touch(sys, x, f, th)
					}
					th.Step(100)
					if m.mir != nil {
						m.Release(th)
					}
				})
				if c.who == "other" {
					sch.Spawn("other", 0, 10, func(th *sim.Thread) { tc.touch(sys, x, f, th) })
				}
				var rc any
				func() {
					defer func() { rc = recover() }()
					sch.Run()
				}()
				culprit := c.who
				if tc.atRelease {
					culprit = "boot"
				}
				if want == "" && rc != nil || want != "" && rc != `sim thread "`+culprit+`": nvm: `+want {
					t.Fatalf("Run panicked with %v, want %q", rc, want)
				}
			})
		}
	}
}

// A mirror refuses at its start whatever it could not reproduce.
func TestMirrorRefusesAtStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(sys, other *System, m, d *Memory, th *sim.Thread) *Memory // the destination to mirror to
		want string
	}{
		{"another size", func(sys, _ *System, _, _ *Memory, _ *sim.Thread) *Memory { return sys.NewMemory("big", NVM, 0, 128) },
			`m (64 words) cannot mirror to big (128 words)`},
		{"another machine", func(_, other *System, _, _ *Memory, _ *sim.Thread) *Memory { return other.NewMemory("far", NVM, 0, 64) },
			`m cannot mirror to far of another machine`},
		{"other words", func(_, _ *System, _, d *Memory, th *sim.Thread) *Memory { d.Store(th, 9, 1); return d },
			`m cannot mirror to d, whose words or line owners differ`},
		{"other owners", func(_, _ *System, m, d *Memory, th *sim.Thread) *Memory {
			m.Load(th, 0) // the line m's writer owns becomes shared in m alone
			return d
		}, `m cannot mirror to d, whose words or line owners differ`},
		{"itself", func(_, _ *System, m, _ *Memory, _ *sim.Thread) *Memory { return m },
			`thread "boot" held m, mirrored to m by thread "boot"`},
		{"held", func(_, _ *System, _, d *Memory, th *sim.Thread) *Memory { d.Hold(th, false); return d },
			`thread "boot" held d, frozen under thread "boot"`},
		{"watched", func(_, _ *System, _, d *Memory, th *sim.Thread) *Memory {
			d.Watch(th, 8)
			return d
		}, `d has watchers and cannot be held by thread "boot"`},
		{"pending", func(sys, _ *System, _, d *Memory, th *sim.Thread) *Memory {
			sys.NewFlusher().FlushLine(th, d, 0)
			return d
		}, `d has a line awaiting a fence, mirrored from m by thread "boot"`},
		{"hooked", func(sys, _ *System, _, d *Memory, _ *sim.Thread) *Memory {
			sys.SetPersistEffectHook(func(int) {})
			return d
		}, `thread "boot" mirrored m under a hook, mirrored to d by thread "boot"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch := sim.New(0)
			sys := NewSystem(sch, Config{Costs: sim.UnitCosts()})
			other := NewSystem(sim.New(0), Config{})
			m := sys.NewMemory("m", NVM, 0, 64)
			d := sys.NewMemory("d", NVM, 0, 64)
			sch.Spawn("writer", 0, 0, func(th *sim.Thread) {
				m.Store(th, 0, 7)
				d.Store(th, 0, 7)
			})
			sch.Spawn("boot", 0, 100, func(th *sim.Thread) { m.Mirror(th, tc.prep(sys, other, m, d, th)) })
			var rc any
			func() {
				defer func() { rc = recover() }()
				sch.Run()
			}()
			if rc != `sim thread "boot": nvm: `+tc.want {
				t.Fatalf("Run panicked with %v, want %q", rc, tc.want)
			}
		})
	}
}

// memoryImage is everything a replay leaves in one memory: each view with
// which of its pages still alias a zero page, the dirty list and the
// background write-back state.
type memoryImage struct {
	data, persisted []uint64
	dstate          []uint8
	owner, node     []int32
	zero            [5][]bool
	dirtyList       []uint64
	bgState         uint64
}

func imageOf(m *Memory) memoryImage {
	return memoryImage{
		data: slabValues(&m.data), persisted: slabValues(&m.persisted), dstate: slabValues(&m.dstate),
		owner: slabValues(&m.owner), node: slabValues(&m.ownerNode),
		zero:      [5][]bool{zeroPages(&m.data), zeroPages(&m.persisted), zeroPages(&m.dstate), zeroPages(&m.owner), zeroPages(&m.ownerNode)},
		dirtyList: slices.Clone(m.dirtyList), bgState: m.bgState,
	}
}

func slabValues[T any](s *slab[T]) []T {
	var out []T
	for _, p := range s.pages {
		out = append(out, p.vals...)
	}
	return out
}

func zeroPages[T any](s *slab[T]) []bool {
	var out []bool
	for _, p := range s.pages {
		out = append(out, p.zero())
	}
	return out
}

// A mirrored destination is its replayed twin. One volatile source is
// mirrored to a volatile and two NVM destinations while a single thread runs
// a script of loads, stores, successful and failed CASes, reading back what
// it stored; another thread owns some lines beforehand, so loads pay
// transfers and stores take lines over. The twin runs the script on each
// memory in turn. Every destination must equal its twin in every view, in
// which pages still alias a zero page, in its dirty list and background
// write-back state, and the machine in its counters and the thread's clock;
// at BGFlushOneIn 0 and 2.
func TestMirrorMatchesReplay(t *testing.T) {
	type run struct {
		images []memoryImage
		clock  uint64
		snap   metrics.Snapshot
		bg     uint64
	}
	script := func(m *Memory, th *sim.Thread) {
		x := uint64(0x9E3779B97F4A7C15)
		for i := uint64(0); i < 600; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			off := x % m.Words()
			switch i % 5 {
			case 0, 1:
				m.Store(th, off, m.Load(th, (off*7)%m.Words())+i)
			case 2:
				v := m.Load(th, off)
				m.CAS(th, off, v, v+1) // succeeds
			case 3:
				m.CAS(th, off, m.Load(th, off)+1, i) // fails, and still takes the line
			case 4:
				m.Load(th, (i%16)*WordsPerLine) // lines "other" wrote
			}
		}
	}
	exec := func(bg uint64, mirrored bool) run {
		sch := sim.New(0)
		sys := NewSystem(sch, Config{Costs: sim.DefaultCosts(), BGFlushOneIn: bg, Seed: 3})
		mems := []*Memory{
			sys.NewMemory("src", Volatile, 0, 4096),
			sys.NewMemory("vol", Volatile, 1, 4096),
			sys.NewMemory("nvm0", NVM, 0, 4096),
			sys.NewMemory("nvm1", NVM, 1, 4096),
		}
		sch.Spawn("other", 1, 0, func(th *sim.Thread) {
			for _, m := range mems {
				for line := uint64(0); line < 16; line++ {
					m.Store(th, line*WordsPerLine+line%WordsPerLine, line)
				}
			}
		})
		var clock uint64
		sch.Spawn("boot", 0, 1_000_000, func(th *sim.Thread) {
			if mirrored {
				mems[0].Mirror(th, mems[1:]...)
				script(mems[0], th)
				mems[0].Release(th)
			} else {
				for _, m := range mems {
					script(m, th)
				}
			}
			clock = th.Clock()
		})
		sch.Run()
		r := run{clock: clock, snap: sys.Metrics().Snapshot()}
		for _, m := range mems {
			r.images = append(r.images, imageOf(m))
		}
		r.bg = sys.Metrics().Counters.BGFlushes
		return r
	}
	for _, bg := range []uint64{0, 2} {
		got, want := exec(bg, true), exec(bg, false)
		for i, img := range want.images {
			if !reflect.DeepEqual(got.images[i], img) {
				t.Errorf("bg %d: memory %d differs from its replayed twin", bg, i)
			}
		}
		if got.clock != want.clock || got.snap != want.snap {
			t.Errorf("bg %d: clock %d, counters %+v; replayed %d, %+v", bg, got.clock, got.snap, want.clock, want.snap)
		}
		if bg != 0 && got.bg == 0 {
			t.Errorf("bg %d: no background write-back happened", bg)
		}
		if len(want.images[2].dirtyList) == 0 || want.snap.CoherenceRemote == 0 {
			t.Errorf("bg %d: the script dirtied no line or moved none across nodes", bg)
		}
	}
}
