package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds untrusted traceparent header values (rpqd
// parses one on every request) to ParseTraceparent. It may reject them but
// must not panic, and whatever it accepts must render back byte for byte:
// the header echoed to the client and the IDs logged are the ones it sent.
func FuzzParseTraceparent(f *testing.F) {
	valid := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	// The valid and malformed headers of TestParseTraceparent.
	for _, s := range []string{
		valid,
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"",
		"00-0123-4567-01",
		valid + "-extra",
		"01" + valid[2:],
		"ff" + valid[2:],
		strings.ReplaceAll(valid, "-", "_"),
		"00-0123456789abcdef0123456789abcdeg-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902bg-01",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-0g",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"00-0123456789ABCDEF0123456789ABCDEF-00F067AA0BA902B7-01",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if got := tc.Traceparent(); got != s {
			t.Fatalf("ParseTraceparent(%q) renders back as %q", s, got)
		}
		if !tc.IsValid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context", s)
		}
	})
}
