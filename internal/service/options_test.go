package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"rpq"
)

// TestQueryOptionNames drives POST /api/v1/query with every name of every
// solver choice, read from the choice types themselves, plus "" for the
// default: each is accepted. Any other name, case variants included, is
// answered 400 with the text that lists the valid names.
func TestQueryOptionNames(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	names := map[string][]string{"algorithm": {""}, "table": {""}, "domains": {""}}
	for a := rpq.Auto; a <= rpq.Hybrid; a++ {
		names["algorithm"] = append(names["algorithm"], a.String())
	}
	for k := rpq.Hashing; k <= rpq.NestedArrays; k++ {
		names["table"] = append(names["table"], k.String())
	}
	for d := rpq.RefinedDomains; d <= rpq.AllSymbols; d++ {
		names["domains"] = append(names["domains"], d.String())
	}
	post := func(field, name string) (int, map[string]any) {
		// A universal query with a deterministic pattern, so that every
		// variant applies; enum, the default here, reads the domain mode.
		opts := map[string]string{"algorithm": "enum", field: name}
		body, err := json.Marshal(map[string]any{"graph": "g", "kind": "universal", "pattern": "(!def(x))*", "options": opts})
		if err != nil {
			t.Fatal(err)
		}
		rec := doReq(h, "POST", "/api/v1/query", string(body))
		return rec.Code, decodeBody(t, rec)
	}
	for field, valid := range names {
		for _, name := range valid {
			if code, body := post(field, name); code != http.StatusOK {
				t.Errorf("%s %q: %d %v", field, name, code, body)
			}
		}
	}
	for field, want := range map[string]string{
		"algorithm": "(want auto, basic, memo, precomp, enum, or hybrid)",
		"table":     "(want hash or nested)",
		"domains":   "(want refined or all)",
	} {
		for _, name := range []string{"quantum", "AUTO", "Hash", "all ", "precomputation", "hashing"} {
			code, body := post(field, name)
			msg := fmt.Sprintf("unknown %s %q %s", field, name, want)
			if code != http.StatusBadRequest || body["error"] != "bad_request" || body["message"] != msg {
				t.Errorf("%s %q: %d %v, want 400 bad_request %q", field, name, code, body, msg)
			}
		}
	}
}
