package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

var kinds = []string{"exist", "universal", "violations"}

// fixturePath is the committed golden for one query kind. Regenerate with
//
//	PROF_UPDATE_GOLDEN=1 go test ./internal/prof -run TestParseProfileGolden
//
// after an intentional encoder change; the decoder assertions below pin the
// wire format either way.
func fixturePath(kind string) string {
	return filepath.Join("testdata", "cpu_"+kind+".pb.gz")
}

func TestParseProfileGolden(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			path := fixturePath(kind)
			want := encodeTestProfile(fixtureSpec(kind))
			if os.Getenv("PROF_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with PROF_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("golden %s drifted from the encoder output (%d vs %d bytes)", path, len(data), len(want))
			}

			p, err := ParseProfile(data)
			if err != nil {
				t.Fatalf("ParseProfile: %v", err)
			}
			if len(p.Samples) != 4 {
				t.Fatalf("got %d samples, want 4", len(p.Samples))
			}
			s0 := p.Samples[0]
			if s0.Labels["rpq_kind"] != kind || s0.Labels["variant"] != "memo" ||
				s0.Labels["workers"] != "1" || s0.Labels["rpq_trace_id"] != "aaaa0000aaaa0000aaaa0000aaaa0000" {
				t.Fatalf("sample 0 labels = %v", s0.Labels)
			}
			// The GC sample carries no labels.
			if got := p.Samples[3]; len(got.Labels) != 0 {
				t.Fatalf("sample 3 = %+v", got)
			}
		})
	}
}

func TestParseProfileUncompressed(t *testing.T) {
	// The decoder must accept raw (non-gzip) protos too: strip the gzip
	// framing from a fixture and re-parse.
	gz := encodeTestProfile(fixtureSpec("exist"))
	p1, err := ParseProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseProfile(mustGunzip(t, gz))
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Samples) != len(p2.Samples) || p1.Samples[0].Labels["rpq_trace_id"] != p2.Samples[0].Labels["rpq_trace_id"] {
		t.Fatalf("gzip vs raw decode disagree: %d/%d samples", len(p1.Samples), len(p2.Samples))
	}
}

func TestParseProfileTruncated(t *testing.T) {
	raw := mustGunzip(t, encodeTestProfile(fixtureSpec("exist")))
	for _, n := range []int{1, 7, len(raw) / 2, len(raw) - 1} {
		if _, err := ParseProfile(raw[:n]); err == nil {
			t.Fatalf("ParseProfile accepted a %d-byte truncation", n)
		}
	}
}

// TestParseProfileNumLabels checks that numeric labels (e.g. "bytes" on heap
// samples) are skipped rather than read as empty string labels.
func TestParseProfileNumLabels(t *testing.T) {
	spec := testProfileSpec{
		sampleTypes: []valueType{{typ: "alloc_space", unit: "bytes"}},
		samples: []testSample{
			{stack: []string{"rpq/internal/core.grow"}, values: []int64{4096},
				labels: map[string]string{"rpq_kind": "exist"},
				nums:   map[string]int64{"bytes": 2048}},
		},
	}
	p, err := ParseProfile(encodeTestProfile(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Samples[0].Labels; len(got) != 1 || got["rpq_kind"] != "exist" {
		t.Fatalf("labels = %v, want only rpq_kind=exist", got)
	}
}

func TestLabelValues(t *testing.T) {
	p, err := ParseProfile(encodeTestProfile(fixtureSpec("universal")))
	if err != nil {
		t.Fatal(err)
	}
	if vs := LabelValues(p, "rpq_kind"); len(vs) != 1 || vs[0] != "universal" {
		t.Fatalf("rpq_kind values = %v", vs)
	}
	vs := LabelValues(p, "rpq_trace_id")
	if len(vs) != 2 || vs[0] != "aaaa0000aaaa0000aaaa0000aaaa0000" {
		t.Fatalf("trace values = %v", vs)
	}
}

// TestParseRealCPUProfile decodes an actual runtime/pprof capture — the
// format the capture loop stores — including pprof labels, proving the
// stdlib-only decoder handles real profiles, not just fixtures.
func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	done := time.Now().Add(300 * time.Millisecond)
	// Burn CPU under a label so at least one labeled sample lands.
	pprof.Do(context.Background(), pprof.Labels("rpq_kind", "exist"), func(context.Context) {
		x := 0
		for time.Now().Before(done) {
			x++
		}
		_ = x
	})
	pprof.StopCPUProfile()

	p, err := ParseProfile(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseProfile(real capture): %v", err)
	}
	if len(p.Samples) == 0 {
		t.Skip("no samples captured (heavily loaded CI machine)")
	}
	labeled := false
	for _, s := range p.Samples {
		if s.Labels["rpq_kind"] == "exist" {
			labeled = true
			break
		}
	}
	if !labeled {
		t.Skip("no labeled samples captured (scheduler starvation)")
	}
}

func mustGunzip(t *testing.T, gz []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
