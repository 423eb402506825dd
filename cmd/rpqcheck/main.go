// Command rpqcheck runs the parametric-dataflow check catalog over real Go
// packages. It lowers each package to a control-flow program graph with
// internal/gofront (pure go/ast, no type checking or build step), then
// evaluates the internal/queries.GoChecks catalog as existential parametric
// regular path queries: each finding is an answer ⟨vertex, substitution⟩
// projected back to an exact file:line:col span.
//
// Usage:
//
//	rpqcheck [flags] [packages]
//
// Package arguments are directories or .go files, with the go-style
// "dir/..." form walking recursively; the default is "./...".
//
// Flags:
//
//	-checks a,b       run only the named checks (default: all; see -list)
//	-list             print the catalog and exit
//	-json             emit the rpqcheck/1 JSON document instead of text
//	-out file         write the report to file instead of stdout
//	-baseline file    compare against a committed baseline: exit 0 unless
//	                  findings appear that the baseline does not accept
//	-write-baseline file
//	                  write the current findings as the new baseline
//	-carets           show source snippets under text findings
//	-show-suppressed  keep //rpqcheck:allow-suppressed findings (marked)
//	-include-tests    also analyze _test.go files
//	-workers n        parallel CFG construction workers
//
// Findings can be acknowledged in source with a comment on the same or the
// preceding line:
//
//	return n //rpqcheck:allow uninit-use
//	//rpqcheck:allow all
//
// Exit status: 0 when clean (or all findings match the baseline), 1 when
// findings (or new-vs-baseline findings) remain, 2 on usage or load errors
// and when the report cannot be written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rpq/internal/gocheck"
	"rpq/internal/queries"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("rpqcheck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		checksFlag    = fl.String("checks", "", "comma-separated check names to run (default all)")
		list          = fl.Bool("list", false, "print the check catalog and exit")
		asJSON        = fl.Bool("json", false, "emit JSON (schema rpqcheck/1)")
		outPath       = fl.String("out", "", "write the report to this file instead of stdout")
		baseline      = fl.String("baseline", "", "compare findings against this baseline file")
		writeBaseline = fl.String("write-baseline", "", "write current findings as a baseline to this file")
		carets        = fl.Bool("carets", false, "show source snippets under text findings")
		showSupp      = fl.Bool("show-suppressed", false, "keep suppressed findings in the report, marked")
		includeTests  = fl.Bool("include-tests", false, "also analyze _test.go files")
		workers       = fl.Int("workers", 0, "parallel workers for CFG construction (0 = GOMAXPROCS)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range queries.GoChecks() {
			scope := "intraprocedural"
			if c.Interproc {
				scope = "interprocedural"
			}
			fmt.Fprintf(stdout, "%-20s %s\n%20s   pattern: %s  (%s)\n", c.Name, c.Doc, "", c.Pattern, scope)
		}
		return 0
	}

	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opts := gocheck.Options{
		Workers:        *workers,
		IncludeTests:   *includeTests,
		ShowSuppressed: *showSupp,
	}
	if *checksFlag != "" {
		opts.Checks = strings.Split(*checksFlag, ",")
	}

	rep, prog, err := gocheck.RunWithPrograms(patterns, opts)
	if err != nil {
		fmt.Fprintln(stderr, "rpqcheck:", err)
		return 2
	}

	out := stdout
	var f *os.File
	if *outPath != "" {
		if f, err = os.Create(*outPath); err != nil {
			fmt.Fprintln(stderr, "rpqcheck:", err)
			return 2
		}
		out = f
	}
	if *asJSON {
		err = rep.WriteJSON(out)
	} else {
		err = rep.WriteText(out, prog.Source, *carets)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "rpqcheck:", err)
		return 2
	}

	if *writeBaseline != "" {
		f, err := os.Create(*writeBaseline)
		if err != nil {
			fmt.Fprintln(stderr, "rpqcheck:", err)
			return 2
		}
		err = gocheck.NewBaseline(rep).Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "rpqcheck:", err)
			return 2
		}
		fmt.Fprintf(stderr, "rpqcheck: wrote baseline with %d finding(s) to %s\n", len(rep.Findings), *writeBaseline)
		return 0
	}

	if *baseline != "" {
		base, err := gocheck.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "rpqcheck:", err)
			return 2
		}
		news, fixed := base.Diff(rep)
		for _, k := range fixed {
			fmt.Fprintf(stderr, "rpqcheck: baseline entry no longer found (fixed?): %s\n", k)
		}
		if len(news) > 0 {
			fmt.Fprintf(stderr, "rpqcheck: %d finding(s) not in baseline %s:\n", len(news), *baseline)
			for _, f := range news {
				fmt.Fprintf(stderr, "  %s: %s [%s]\n", f.Pos(), f.Message, f.Check)
			}
			return 1
		}
		return 0
	}

	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}
