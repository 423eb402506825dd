package service

import (
	"os"
	"strings"
	"testing"
)

// FuzzLoadGraph feeds one untrusted body to every graph format rpqd accepts
// (PUT /api/v1/graphs/{name}?format=…, rpqd -load). A loader may reject the
// body, but must not panic, and an accepted graph must describe itself the
// way the catalog does (GraphInfo reads the start vertex's name).
func FuzzLoadGraph(f *testing.F) {
	for _, path := range []string{testGraphPath, "../../testdata/goprog/uninit/uninit.go"} {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Add("des (0, 4, 3)\n(0, \"open\", 1)\n(1, \"i\", 1)\n(1, \"send(a, b)\", 2)\n(2, \"close\", 0)\n")
	f.Add(`<a><b lang="en"><b><c/></b></b></a>`)
	f.Add("-- go.mod --\nmodule demo\n-- a.go --\npackage main\n\nfunc main() { var x int; _ = x }\n")
	f.Fuzz(func(t *testing.T, body string) {
		for _, format := range []string{"text", "aut", "aut-universal", "xml", "go"} {
			g, _, err := loadGraph(format, strings.NewReader(body))
			if err != nil {
				continue
			}
			// info names the start vertex, which must therefore exist.
			(&graphEntry{name: "fuzz", g: g, format: format}).info()
		}
	})
}
