package xmldata

import (
	"strings"
	"testing"

	"rpq/internal/core"
	"rpq/internal/pattern"
)

const bookstore = `
<bookstore>
  <book lang="en" year="2003">
    <title>Types and Programming Languages</title>
    <author>Pierce</author>
  </book>
  <book lang="de" year="2004">
    <title>Compilerbau</title>
    <author>Wirth</author>
  </book>
  <review>
    <book lang="en">
      <title>Nested book inside review</title>
    </book>
  </review>
</bookstore>
`

func q(t *testing.T, doc, pat string) []string {
	t.Helper()
	g, err := FromXMLString(doc)
	if err != nil {
		t.Fatal(err)
	}
	cq := core.MustCompile(pattern.MustParse(pat), g.U)
	res, err := core.Exist(g, g.Start(), cq, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range res.Pairs {
		out = append(out, g.VertexName(p.Vertex)+" "+p.Subst.Format(g.U, cq.PS))
	}
	return out
}

func TestChildPaths(t *testing.T) {
	// XPath /bookstore/book: exactly the two top-level books.
	got := q(t, bookstore, "child('bookstore') child('book')")
	if len(got) != 2 {
		t.Fatalf("top-level books = %v", got)
	}
	// XPath //title: all three titles.
	got = q(t, bookstore, "_* child('title')")
	if len(got) != 3 {
		t.Fatalf("all titles = %v", got)
	}
}

func TestAttributesAndParameters(t *testing.T) {
	// Books and their languages, bound through a parameter.
	got := q(t, bookstore, "_* child('book') attr('lang', l)")
	if len(got) != 3 {
		t.Fatalf("books with lang = %v", got)
	}
	en := 0
	for _, s := range got {
		if strings.Contains(s, "l↦en") {
			en++
		}
	}
	if en != 2 {
		t.Fatalf("English books = %d, want 2 (%v)", en, got)
	}
	// Correlate attribute and text along the path: English titles.
	got = q(t, bookstore, "_* child('book') attr('lang','en') child('title') text(x)")
	if len(got) != 2 {
		t.Fatalf("English titles = %v", got)
	}
}

func TestSameTagTwice(t *testing.T) {
	// _* child(t) child(t): a tag directly nested in itself — requires a
	// parameter, beyond XPath 1.0. The review/book/book chain does not
	// match (different tags); construct one that does.
	doc := `<a><b><b><c/></b></b></a>`
	got := q(t, doc, "_* child(t) child(t)")
	if len(got) != 1 || !strings.Contains(got[0], "t↦b") {
		t.Fatalf("same-tag nesting = %v", got)
	}
	if got := q(t, bookstore, "_* child(t) child(t)"); len(got) != 0 {
		t.Fatalf("bookstore has no directly self-nested tags: %v", got)
	}
}

func TestElemAnchor(t *testing.T) {
	// elem(x) self-loops let queries bind the current tag without moving.
	got := q(t, bookstore, "_* child('review') child(x) elem(x)")
	if len(got) != 1 || !strings.Contains(got[0], "x↦book") {
		t.Fatalf("review children = %v", got)
	}
}

func TestMalformedXML(t *testing.T) {
	for _, doc := range []string{
		"<a><b></a></b>",
		"<a>",
		"text only",
	} {
		if _, err := FromXMLString(doc); err == nil {
			t.Errorf("FromXMLString(%q) succeeded, want error", doc)
		}
	}
}

func TestLongTextSkipped(t *testing.T) {
	doc := "<a>" + strings.Repeat("x", MaxTextSymbol+1) + "</a>"
	g, err := FromXMLString(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Labels() {
		if strings.HasPrefix(l.Format(g.U), "text(") {
			t.Fatalf("overlong text was stored: %s", l.Format(g.U))
		}
	}
}

func TestVertexNaming(t *testing.T) {
	g, err := FromXMLString(bookstore)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.LookupVertex("book[1]"); !ok {
		t.Errorf("book[1] vertex missing")
	}
	if _, ok := g.LookupVertex("book[3]"); !ok {
		t.Errorf("book[3] (nested) vertex missing")
	}
	if g.VertexName(g.Start()) != "/" {
		t.Errorf("root vertex name = %q", g.VertexName(g.Start()))
	}
}
