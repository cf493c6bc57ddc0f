// Recursive views (Section 4.2 / Fig. 7): the document DTD nests a's
// through a hidden c layer, the derived view DTD is recursive (a -> b,
// a*), and '//' queries are rewritten height-free into a Rec automaton
// valid for documents of any height. The paper's Section 4.2 treatment —
// unfolding the view DTD to the concrete document height — is kept as a
// test oracle (rewrite.ForViewWithHeight, evaluated by the reference
// evaluator xpath.EvalRef), and this example runs both to show they
// agree.
//
//	go run ./examples/recursive
package main

import (
	"fmt"
	"log"

	securexml "repro"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/xpath"
)

const tree = `
<a><b>root</b>
  <c>
    <a><b>child-1</b>
      <c>
        <a><b>grandchild-1a</b><c/></a>
        <a><b>grandchild-1b</b><c/></a>
      </c>
    </a>
    <a><b>child-2</b><c/></a>
  </c>
</a>
`

func main() {
	engine, err := securexml.NewEngine(dtds.Fig7Spec())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== document DTD (administrator-side) ==")
	fmt.Print(dtds.Fig7())
	fmt.Println("\n== derived view DTD (recursive; c is gone) ==")
	fmt.Print(engine.ViewDTD())
	fmt.Printf("view recursive: %v\n", engine.View().IsRecursive())
	fmt.Printf("rewrite mode: %s\n", engine.RewriteMode())

	doc, err := securexml.ParseDocumentString(tree)
	if err != nil {
		log.Fatal(err)
	}
	if err := securexml.Validate(doc, dtds.Fig7()); err != nil {
		log.Fatal(err)
	}

	// //b over the recursive view: not expressible as a single XPath over
	// the document in general (it would need (c/a)*/b), so the rewriter
	// emits a Rec automaton — one plan, any height.
	p, err := securexml.ParseQuery("//b")
	if err != nil {
		log.Fatal(err)
	}
	pt, err := engine.Rewrite(p, doc.Height())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n//b rewritten over the document (height-free):\n  %s\n", securexml.QueryString(pt))

	// The Section 4.2 oracle unfolds the view DTD to the document height;
	// its plan grows with the document, the automaton's does not.
	oracle, err := rewrite.ForViewWithHeight(engine.View(), doc.Height())
	if err != nil {
		log.Fatal(err)
	}
	ptU, _ := oracle.Rewrite(p)
	fmt.Printf("\n//b rewritten by the unfold oracle (height %d):\n  %s\n",
		doc.Height(), securexml.QueryString(ptU))

	nodes, err := engine.QueryString(doc, "//b")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n//b over the view:")
	for _, n := range nodes {
		fmt.Printf("  %s\n", n.Text())
	}
	oracleNodes, err := xpath.EvalRef(ptU, []*securexml.Node{doc.Root})
	if err != nil {
		log.Fatal(err)
	}
	agree := len(nodes) == len(oracleNodes)
	for i := 0; agree && i < len(nodes); i++ {
		agree = nodes[i] == oracleNodes[i]
	}
	fmt.Printf("unfold oracle agrees: %v (%d nodes each)\n", agree, len(nodes))

	// Deeper view steps: the second view level is the second *a* level of
	// the document, reached through the hidden c spine.
	nodes, err = engine.QueryString(doc, "a/a/b")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\na/a/b over the view (grandchildren):")
	for _, n := range nodes {
		fmt.Printf("  %s\n", n.Text())
	}

	// The hidden layer stays hidden.
	nodes, err = engine.QueryString(doc, "//c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n//c over the view: %d results (label c does not exist in the view)\n", len(nodes))
}
