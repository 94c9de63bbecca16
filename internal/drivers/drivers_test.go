package drivers

import (
	"reflect"
	"testing"
)

// TestRegistryOrderAndCapabilities pins what every document and CLI reads
// off the registry: the order (it is document order in every golden), the
// -system spellings, and the capability flags.
func TestRegistryOrderAndCapabilities(t *testing.T) {
	type row struct {
		name, flag            string
		steadyOnly, instanced bool
	}
	want := []row{
		{"PREP-Volatile", "prep-volatile", true, true},
		{"PREP-Durable", "prep-durable", false, true},
		{"PREP-Buffered", "prep-buffered", false, true},
		{"CX-PUC", "cx", false, false},
		{"SOFT", "soft", false, false},
		{"ONLL", "onll", false, false},
	}
	var got []row
	for _, e := range All() {
		got = append(got, row{e.Name, e.Flag, e.SteadyOnly, e.Instanced})
		d := e.New(ExploreScale())
		if d.Name != e.Name || (d.Recover == nil) != e.SteadyOnly {
			t.Errorf("%s: built driver %q, recover=%v", e.Name, d.Name, d.Recover != nil)
		}
		if (d.SpawnAux == nil) != (d.StopAux == nil) {
			t.Errorf("%s: SpawnAux and StopAux must come as a pair", e.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry = %+v\nwant       %+v", got, want)
	}
	if flags := Flags(Recoverable()); !reflect.DeepEqual(flags, []string{"prep-durable", "prep-buffered", "cx", "soft", "onll"}) {
		t.Errorf("recoverable flags = %v", flags)
	}
	if _, err := Lookup(Recoverable(), "prep-volatile"); err == nil {
		t.Error("Lookup found a steady-only entry among the recoverable ones")
	}
}
