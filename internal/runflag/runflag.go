// Package runflag is the command line every tool shares: a run config binds
// each of its fields to one flag in its Flags method, every repro line is
// Line over that declaration, so it parses back to the config, and a
// configuration no run can honour is a UsageError, which Main exits 2 on.
package runflag

import (
	"errors"
	"flag"
	"fmt"
	"os"
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

// UsageError is a configuration no run can honour, decided by the
// configuration alone before the measured phase.
type UsageError struct{ error }

// Usage marks err as a UsageError; nil stays nil.
func Usage(err error) error {
	if err == nil {
		return nil
	}
	return UsageError{err}
}

// Main parses the command line and runs run; on its error it prints
// "tool: err" on stderr and exits 2 for a UsageError, 1 for any other.
func Main(tool string, run func() error) {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		if errors.As(err, new(UsageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}
