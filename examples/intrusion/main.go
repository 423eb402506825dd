// Intrusion: scanning an audit log with parametric queries — the intrusion
// detection application the paper's related work cites (Sekar & Uppuluri):
// "parameters are needed in querying system logs for intrusion detection".
// The log is a linear graph; parameters correlate the interleaved events of
// each user, and witnesses reconstruct the offending event sequence.
package main

import (
	"fmt"
	"log"

	"rpq"
	"rpq/internal/core"
	"rpq/internal/pattern"
	"rpq/internal/tracelog"
)

const audit = `
# interleaved multi-user audit log
login(alice)
login(mallory)
open(passwd, alice)
read(passwd, alice)
close(passwd, alice)
open(shadow, mallory)
su(root, mallory)
exec(shell, mallory)
close(shadow, mallory)
logout(alice)
download(rootkit, mallory)
exec(rootkit, mallory)
logout(mallory)
`

type signature struct {
	name, pattern string
}

func main() {
	g, err := tracelog.ReadString(audit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit log: %d events\n\n", g.NumEdges())

	signatures := []signature{
		{"sensitive file open during privilege escalation",
			"_* open('shadow', u) (!close('shadow', u))* su('root', u)"},
		{"exec while a sensitive file is open",
			"_* open(f, u) (!close(f, u))* exec(_, u)"},
		{"download followed by execution of the same artifact",
			"_* download(x, u) _* exec(x, u)"},
		{"session never logged out",
			"_* login(u) (!logout(u))*"},
	}
	for _, sig := range signatures {
		q := core.MustCompile(pattern.MustParse(sig.pattern), g.U)
		res, err := core.Exist(g, g.Start(), q, core.Options{Witnesses: true, Algo: core.AlgoMemo})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s\n   %s\n", sig.name, sig.pattern)
		// Keep the latest hit per substitution.
		latest := map[string]core.Pair{}
		for _, p := range res.Pairs {
			key := p.Subst.Format(g.U, q.PS)
			if prev, ok := latest[key]; !ok || p.Vertex > prev.Vertex {
				latest[key] = p
			}
		}
		if len(latest) == 0 {
			fmt.Println("   clean")
		}
		for key, p := range latest {
			idx, _ := tracelog.EventIndex(g.VertexName(p.Vertex))
			fmt.Printf("   HIT %s at event %d\n", key, idx)
			if len(p.Witness) > 0 && len(p.Witness) <= 12 {
				for _, st := range p.Witness {
					fmt.Printf("       %s\n", st.Label.Format(g.U))
				}
			}
		}
		fmt.Println()
	}

	// The same log can also be exported and queried via the public API.
	pub := rpq.WrapGraph(g)
	res, err := pub.Exist(rpq.MustParsePattern("_* su('root', u) _*"), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(public API cross-check: %d su-to-root events)\n", countDistinct(res))
}

func countDistinct(res *rpq.Result) int {
	seen := map[string]bool{}
	for _, a := range res.Answers {
		seen[a.Binding("u")] = true
	}
	return len(seen)
}
