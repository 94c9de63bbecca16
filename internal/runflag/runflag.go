// Package runflag renders a run's command line from the config that
// declares its flags: a run config binds each of its fields to one flag in
// its Flags method, the tool parses its command line through that method,
// and every repro line is Line over the same declaration, so it parses back
// to the config it was rendered from.
package runflag

import (
	"flag"
	"slices"
	"strings"
)

// Line renders c as a command line of tool: the tool's name, then, in the
// flag set's (lexical) order, -name=value for every flag Flags declares
// whose value in c differs from its default, and for each flag named in
// pins whatever its value. Values are written as their flag.Value prints
// them, unquoted.
func Line[T any, P interface {
	*T
	Flags(*flag.FlagSet)
}](tool string, c T, pins ...string) string {
	// The flags are declared on a value of Line's own, which records each
	// flag's default, and then read c's values through the same fields.
	var x T
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	P(&x).Flags(fs)
	x = c
	parts := []string{tool}
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue || slices.Contains(pins, f.Name) {
			parts = append(parts, "-"+f.Name+"="+v)
		}
	})
	return strings.Join(parts, " ")
}
