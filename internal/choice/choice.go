// Package choice names the values of the solver's enumerated options — the
// algorithm variant, the substitution-table representation, the
// parameter-domain mode and the universal completion baseline. Each option
// type declares its wire names once, in a Names table next to the type;
// String, parsing, flag usage and error texts all read that table, so the
// service, the command-line tools and the telemetry labels share one
// vocabulary.
package choice

import (
	"fmt"
	"slices"
	"strings"
)

// Names is the name table of an int-based choice type T: names[v] is the
// wire name of value v, so the valid values are 0 ≤ v < len(names). A
// table holds at least two names.
type Names[T ~int] struct {
	what  string
	names []string
}

// New returns the table naming T's values 0, 1, ... in order; what names
// the option in error texts ("algorithm", "table", ...).
func New[T ~int](what string, names ...string) Names[T] {
	return Names[T]{what: what, names: names}
}

// Valid reports whether v is one of T's named values.
func (n Names[T]) Valid(v T) bool { return v >= 0 && int(v) < len(n.names) }

// String returns v's name, or what(v) for a value outside the table.
func (n Names[T]) String(v T) string {
	if n.Valid(v) {
		return n.names[v]
	}
	return fmt.Sprintf("%s(%d)", n.what, int(v))
}

// Parse returns the value named s. Names match exactly; any other string
// is an error that lists the valid names.
func (n Names[T]) Parse(s string) (T, error) {
	if i := slices.Index(n.names, s); i >= 0 {
		return T(i), nil
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", n.what, s, n.list())
}

// Check returns nil for a named value and an error naming v otherwise.
func (n Names[T]) Check(v T) error {
	if n.Valid(v) {
		return nil
	}
	return fmt.Errorf("unknown %s %d (want %s)", n.what, int(v), n.list())
}

// list renders the names as an English list: "a or b", "a, b, or c".
func (n Names[T]) list() string {
	last := len(n.names) - 1
	if last == 1 {
		return n.names[0] + " or " + n.names[1]
	}
	return strings.Join(n.names[:last], ", ") + ", or " + n.names[last]
}
