package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
)

// TraceContext is a W3C Trace Context identity: a 128-bit trace ID shared by
// every span of one distributed request, a 64-bit span ID naming this
// process's own unit of work, and the sampled flag. It is the request-scoped
// key that joins an HTTP request to everything the engine records about it —
// in-flight snapshots, slow-log records, and pprof labels.
// The zero value is invalid (IsValid reports false); obtain one with
// NewTraceContext or ParseTraceparent.
type TraceContext struct {
	// TraceID is the 128-bit request identity, propagated unchanged across
	// process hops.
	TraceID [16]byte
	// SpanID is the 64-bit identity of this hop's span.
	SpanID [8]byte
	// Flags is the trace-flags octet; bit 0 is "sampled".
	Flags byte
}

// IsValid reports whether both IDs are non-zero, per the W3C spec (an
// all-zero trace or span ID is the defined invalid value).
func (tc TraceContext) IsValid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-hex-digit lowercase trace ID.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// SpanIDString returns the 16-hex-digit lowercase span ID.
func (tc TraceContext) SpanIDString() string { return hex.EncodeToString(tc.SpanID[:]) }

// Traceparent renders the context in the W3C traceparent header format,
// version 00: "00-<trace-id>-<span-id>-<flags>".
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceIDString(), tc.SpanIDString(), tc.Flags)
}

// Child returns a context with the same trace ID and a fresh span ID — the
// span this process contributes under an ingested parent.
func (tc TraceContext) Child() TraceContext {
	out := TraceContext{TraceID: tc.TraceID, Flags: tc.Flags}
	out.SpanID = newSpanID()
	return out
}

// idRand generates span/trace IDs. A process-local PRNG seeded once from
// crypto/rand is deterministic-collision-safe for ID purposes and avoids a
// syscall per request; the mutex keeps it goroutine-safe.
var (
	idMu   sync.Mutex
	idRand *rand.Rand
)

func init() {
	var seed [32]byte
	crand.Read(seed[:])
	idRand = rand.New(rand.NewChaCha8(seed))
}

// randBytes fills b with pseudo-random bytes, retrying the all-zero draw so
// generated IDs are always valid.
func randBytes(b []byte) {
	idMu.Lock()
	defer idMu.Unlock()
	for {
		for i := 0; i < len(b); i += 8 {
			v := idRand.Uint64()
			for j := i; j < len(b) && j < i+8; j++ {
				b[j] = byte(v)
				v >>= 8
			}
		}
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
}

func newSpanID() [8]byte {
	var s [8]byte
	randBytes(s[:])
	return s
}

// NewTraceContext generates a fresh sampled trace: a random 128-bit trace ID
// and a random 64-bit span ID.
func NewTraceContext() TraceContext {
	var tc TraceContext
	randBytes(tc.TraceID[:])
	tc.SpanID = newSpanID()
	tc.Flags = 0x01
	return tc
}

// NewRequestID returns a fresh 16-hex-digit request identifier, the
// per-request key services stamp into response headers and logs (distinct
// from the trace, which a client may share across requests).
func NewRequestID() string {
	var b [8]byte
	randBytes(b[:])
	return hex.EncodeToString(b[:])
}

// ParseTraceparent parses a W3C traceparent header. It accepts version 00
// exactly: "00-" + 32 lowercase hex digits + "-" + 16 lowercase hex digits +
// "-" + 2 hex digits, rejecting malformed strings, unknown versions, and the
// all-zero (invalid) trace or span IDs, so callers can fall back to
// NewTraceContext on any error.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	if len(s) != 55 {
		return tc, fmt.Errorf("obs: traceparent length %d, want 55", len(s))
	}
	if s[0] != '0' || s[1] != '0' {
		return tc, fmt.Errorf("obs: unsupported traceparent version %q", s[:2])
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	// hex.Decode would accept uppercase, but the spec mandates lowercase and
	// senders must not emit anything else; rejecting here keeps the header we
	// echo back byte-identical to the IDs we log.
	for _, c := range s[3:] {
		if c != '-' && !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return tc, fmt.Errorf("obs: traceparent has non-lowercase-hex %q", c)
		}
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return tc, fmt.Errorf("obs: traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return tc, fmt.Errorf("obs: traceparent span-id: %w", err)
	}
	var fl [1]byte
	if _, err := hex.Decode(fl[:], []byte(s[53:55])); err != nil {
		return tc, fmt.Errorf("obs: traceparent flags: %w", err)
	}
	tc.Flags = fl[0]
	if tc.TraceID == [16]byte{} {
		return TraceContext{}, fmt.Errorf("obs: traceparent has all-zero trace-id")
	}
	if tc.SpanID == [8]byte{} {
		return TraceContext{}, fmt.Errorf("obs: traceparent has all-zero span-id")
	}
	return tc, nil
}

// traceKey keys the trace context in a context.Context.
type traceKey struct{}

// WithTrace returns ctx carrying tc; TraceFrom retrieves it. The rpq entry
// points read it once per query, so library code that never attaches a trace
// pays one nil Value lookup.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceKey{}, tc)
}

// TraceFrom returns the trace context carried by ctx, if any.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceKey{}).(TraceContext)
	return tc, ok
}

// SpanUint64 returns the span ID as a uint64 (big-endian), for callers that
// want a numeric form.
func (tc TraceContext) SpanUint64() uint64 { return binary.BigEndian.Uint64(tc.SpanID[:]) }
