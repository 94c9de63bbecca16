package runflag_test

import (
	"flag"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"prepuc/internal/explore"
	"prepuc/internal/harness"
	"prepuc/internal/runflag"
)

// TestLineRoundTrips: a line rendered from a config parses back, through the
// same Flags declaration, to that config — over generated CrashConfig,
// explore.Config and explore.Leaf values, each field at its zero value a
// third of the time (often its flag's default, so the line omits it).
func TestLineRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		roundTrip(t, "crashtest", generate[harness.CrashConfig](rng))
		roundTrip(t, "prepexplore", generate[explore.Config](rng))
		roundTrip(t, "prepexplore", generate[explore.Leaf](rng))
	}
}

func roundTrip[T any, P interface {
	*T
	Flags(*flag.FlagSet)
}](t *testing.T, tool string, c T) {
	t.Helper()
	line := runflag.Line[T, P](tool, c)
	var got T
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	P(&got).Flags(fs)
	args := strings.Fields(line)
	if args[0] != tool {
		t.Fatalf("%q does not run %s", line, tool)
	}
	if err := fs.Parse(args[1:]); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Errorf("%q parses to\n%+v\nwant\n%+v", line, got, c)
	}
}

// words are the string values drawn: flag spellings of the forms the tools
// take, none with a space (a line is one shell word per flag).
var words = []string{"all", "prep-durable", "prep-buffered", "onll", "targeted", "targeted=3", "coinflip=0.25", "a=b,c"}

// generate draws a T field by field.
func generate[T any](rng *rand.Rand) T {
	var c T
	v := reflect.ValueOf(&c).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if !f.CanSet() || rng.Intn(3) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(rng.Int63n(1<<20) - 1<<19)
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> rng.Intn(64))
		case reflect.Bool:
			f.SetBool(rng.Intn(2) == 0)
		case reflect.String:
			f.SetString(words[rng.Intn(len(words))])
		case reflect.Slice:
			for range 1 + rng.Intn(5) {
				f.Set(reflect.Append(f, reflect.ValueOf(rng.Intn(9)-1)))
			}
		default:
			panic("generate: no values for field " + v.Type().Field(i).Name)
		}
	}
	return c
}
