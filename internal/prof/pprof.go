// Package prof is the always-on continuous profiler behind /debug/rpq/prof:
// a duty-cycled capture loop recording short CPU-profile windows and
// heap/alloc snapshots into a bounded ring store, pinned into watchdog
// bundles on anomalies and downloadable as raw pprof for offline analysis
// with `go tool pprof`. A stdlib-only decoder for the pprof protobuf format
// (gzip + wire-format walk, no dependency on github.com/google/pprof or
// runtime/pprof internals) reads each window's sample count and the rpq_*
// pprof labels the query layer stamps, once, at capture.
// docs/observability.md ("Continuous profiling") documents the rpq-prof/1
// schema and the `go tool pprof` workflow.
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// Sample is one decoded profile sample: the string pprof labels attached to
// it (rpq_kind, variant, rpq_trace_id, ...). Stacks, values and numeric
// labels are not decoded; `go tool pprof` reads those from the raw bytes.
type Sample struct {
	Labels map[string]string
}

// Profile is a decoded pprof profile: the subset of the proto the window
// listing needs.
type Profile struct {
	Samples []Sample
}

// LabelValues returns the distinct values of the label key across samples,
// sorted, for the window listing.
func LabelValues(p *Profile, key string) []string {
	set := map[string]bool{}
	for _, s := range p.Samples {
		if v, ok := s.Labels[key]; ok && v != "" {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ---- protobuf wire walk ----
//
// profile.proto field numbers (github.com/google/pprof/proto/profile.proto):
//
//	Profile:  2 sample, 6 string_table
//	Sample:   3 label
//	Label:    1 key, 2 str, 3 num (key/str are string-table indexes)

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

// walkMessage iterates the fields of one encoded message. For varint fields
// fn receives the value in v; for length-delimited fields the payload in b.
// Fixed32/fixed64 fields are skipped (profile.proto does not use them) but
// must still be consumed to stay in sync.
func walkMessage(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return fmt.Errorf("prof: truncated field key")
		}
		data = data[n:]
		num, typ := int(key>>3), int(key&7)
		switch typ {
		case wireVarint:
			v, n := uvarint(data)
			if n <= 0 {
				return fmt.Errorf("prof: truncated varint in field %d", num)
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case wireBytes:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("prof: truncated bytes in field %d", num)
			}
			payload := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		case wireFixed64:
			if len(data) < 8 {
				return fmt.Errorf("prof: truncated fixed64 in field %d", num)
			}
			data = data[8:]
		case wireFixed32:
			if len(data) < 4 {
				return fmt.Errorf("prof: truncated fixed32 in field %d", num)
			}
			data = data[4:]
		default:
			return fmt.Errorf("prof: unsupported wire type %d in field %d", typ, num)
		}
	}
	return nil
}

// uvarint decodes one varint; it mirrors encoding/binary.Uvarint but reports
// overlong encodings as errors via n <= 0.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// rawLabel keeps a label's string-table references until the table is known.
type rawLabel struct{ key, str int64 }

// ParseProfile decodes a pprof profile — gzip-compressed or raw protobuf —
// into its samples' string labels.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		zr.Close()
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		data = raw
	}

	var (
		strtab []string
		raws   [][]rawLabel // per sample
	)
	err := walkMessage(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var labels []rawLabel
			err := walkMessage(b, func(num int, v uint64, b []byte) error {
				if num != 3 { // label
					return nil
				}
				var l rawLabel
				err := walkMessage(b, func(num int, v uint64, b []byte) error {
					switch num {
					case 1:
						l.key = int64(v)
					case 2:
						l.str = int64(v)
					}
					return nil
				})
				labels = append(labels, l)
				return err
			})
			raws = append(raws, labels)
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strtab)) {
			return ""
		}
		return strtab[i]
	}
	p := &Profile{Samples: make([]Sample, len(raws))}
	for i, labels := range raws {
		for _, l := range labels {
			// str == 0 (the empty string) marks a numeric label.
			k := str(l.key)
			if k == "" || l.str == 0 {
				continue
			}
			if p.Samples[i].Labels == nil {
				p.Samples[i].Labels = map[string]string{}
			}
			p.Samples[i].Labels[k] = str(l.str)
		}
	}
	return p, nil
}
