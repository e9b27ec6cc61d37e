package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

// oracle checks answers against what the program must return: extractions
// and whole-graph analyses are recomputed on an in-memory CSR of the same
// generated graph and compared bit for bit; navigation answers are checked
// against the G-Tree the harness built.
type oracle struct {
	d   *dataset
	t   *gtree.Tree // nil when the workload does not navigate
	csr *graph.CSR

	mu     sync.Mutex
	bodies map[string][]byte // first body seen per request key

	once sync.Once
	rep  analysis.AdjacencyReport
	pr   []float64
}

func newOracle(d *dataset, t *gtree.Tree) *oracle {
	return &oracle{d: d, t: t, csr: graph.ToCSR(d.g), bodies: map[string][]byte{}}
}

// same records the first body per key and reports whether body equals it.
// first is true when this call recorded the body, so its content still
// needs the semantic check.
func (o *oracle) same(r request, body []byte) (first bool, err error) {
	k := r.key()
	o.mu.Lock()
	defer o.mu.Unlock()
	prev, ok := o.bodies[k]
	if !ok {
		o.bodies[k] = body
		return true, nil
	}
	if !bytes.Equal(prev, body) {
		return false, fmt.Errorf("%s: body differs from the earlier answer to the same request", r.key())
	}
	return false, nil
}

// check verifies one answer's content.
func (o *oracle) check(r request, body []byte) error {
	var err error
	switch r.op {
	case opScene:
		err = o.checkScene(r, body)
	case opSceneSVG:
		s := bytes.TrimSpace(body)
		if !(bytes.HasPrefix(s, []byte("<svg")) || bytes.HasPrefix(s, []byte("<?xml"))) || !bytes.HasSuffix(s, []byte("</svg>")) {
			err = fmt.Errorf("not an SVG document")
		}
	case opLabelPrefix, opLabelExact:
		err = o.checkLabels(r, body)
	case opLeafReport:
		err = o.checkLeafReport(r, body)
	case opExtract:
		var res *extract.Result
		res, err = o.extraction(r.sources, r.budget)
		if err == nil {
			err = compareExtract(res, body)
		}
	case opGraphAnalysis:
		err = o.checkGraphAnalysis(r, body)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.key(), err)
	}
	return nil
}

func (o *oracle) extraction(sources []graph.NodeID, budget int) (*extract.Result, error) {
	return extract.ConnectionSubgraphAdj(o.csr, o.d.g.Directed(), o.d.g.Label, sources, extract.Options{Budget: budget})
}

type sceneJSON struct {
	Focus         gtree.TreeID   `json:"focus"`
	FocusLevel    int            `json:"focusLevel"`
	FocusSize     int            `json:"focusSize"`
	Ancestors     []gtree.TreeID `json:"ancestors"`
	Siblings      []gtree.TreeID `json:"siblings"`
	Children      []gtree.TreeID `json:"children"`
	Grandchildren []gtree.TreeID `json:"grandchildren"`
}

func (o *oracle) checkScene(r request, body []byte) error {
	var s sceneJSON
	if err := json.Unmarshal(body, &s); err != nil {
		return err
	}
	n := o.t.Node(r.focus)
	if s.Focus != r.focus || s.FocusLevel != n.Level || s.FocusSize != n.Size {
		return fmt.Errorf("focus %d level %d size %d, want %d %d %d", s.Focus, s.FocusLevel, s.FocusSize, r.focus, n.Level, n.Size)
	}
	if !equalIDs(s.Children, n.Children) {
		return fmt.Errorf("children %v, want %v", s.Children, n.Children)
	}
	sum, grand := 0, 0
	for _, c := range n.Children {
		sum += o.t.Node(c).Size
		grand += len(o.t.Node(c).Children)
	}
	if !n.IsLeaf() && sum != n.Size {
		return fmt.Errorf("children sizes sum to %d, focus size %d", sum, n.Size)
	}
	if path := o.t.Path(r.focus); !equalIDs(s.Ancestors, path[:len(path)-1]) {
		return fmt.Errorf("ancestors %v, want %v", s.Ancestors, path[:len(path)-1])
	}
	for _, sib := range s.Siblings {
		if sib == r.focus || !o.t.Valid(sib) || o.t.Node(sib).Parent != n.Parent {
			return fmt.Errorf("sibling %d is not a sibling of %d", sib, r.focus)
		}
	}
	if len(s.Grandchildren) != grand {
		return fmt.Errorf("%d grandchildren, want %d", len(s.Grandchildren), grand)
	}
	for _, gc := range s.Grandchildren {
		if !o.t.Valid(gc) || o.t.Node(o.t.Node(gc).Parent).Parent != r.focus {
			return fmt.Errorf("grandchild %d is not under %d", gc, r.focus)
		}
	}
	return nil
}

type labelsJSON struct {
	Hits []struct {
		Label string         `json:"label"`
		Node  graph.NodeID   `json:"node"`
		Leaf  gtree.TreeID   `json:"leaf"`
		Path  []gtree.TreeID `json:"path"`
	} `json:"hits"`
}

func (o *oracle) checkLabels(r request, body []byte) error {
	var resp labelsJSON
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	var want []string
	if r.op == opLabelExact {
		for i := 0; i < o.d.labelCount[r.text]; i++ {
			want = append(want, r.text)
		}
		if len(resp.Hits) > 0 && resp.Hits[0].Node != o.d.firstWithLabel[r.text] {
			return fmt.Errorf("first hit node %d, want %d", resp.Hits[0].Node, o.d.firstWithLabel[r.text])
		}
	} else {
		lo := sort.SearchStrings(o.d.sortedLabels, r.text)
		for i := lo; i < len(o.d.sortedLabels) && len(want) < 10 && strings.HasPrefix(o.d.sortedLabels[i], r.text); i++ {
			want = append(want, o.d.sortedLabels[i])
		}
	}
	if len(resp.Hits) != len(want) || len(want) == 0 {
		return fmt.Errorf("%d hits, want %d", len(resp.Hits), len(want))
	}
	for i, h := range resp.Hits {
		if h.Label != want[i] || int(h.Node) >= len(o.d.labels) || o.d.labels[h.Node] != h.Label {
			return fmt.Errorf("hit %d is %q (node %d), want %q", i, h.Label, h.Node, want[i])
		}
		if h.Leaf != o.t.LeafOf(h.Node) || len(h.Path) == 0 || h.Path[len(h.Path)-1] != h.Leaf {
			return fmt.Errorf("hit %q resolves to leaf %d via %v, want leaf %d", h.Label, h.Leaf, h.Path, o.t.LeafOf(h.Node))
		}
	}
	return nil
}

func (o *oracle) checkLeafReport(r request, body []byte) error {
	var resp struct {
		Community gtree.TreeID `json:"community"`
		Nodes     int          `json:"nodes"`
		TopRanked []struct {
			Node graph.NodeID `json:"node"`
		} `json:"topRanked"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Community != r.focus || resp.Nodes != o.t.Node(r.focus).Size {
		return fmt.Errorf("community %d with %d nodes, want %d with %d", resp.Community, resp.Nodes, r.focus, o.t.Node(r.focus).Size)
	}
	for _, tr := range resp.TopRanked {
		if o.t.LeafOf(tr.Node) != r.focus {
			return fmt.Errorf("top-ranked node %d is not in leaf %d", tr.Node, r.focus)
		}
	}
	return nil
}

// extractJSON mirrors the server's extraction response.
type extractJSON struct {
	Sources       []graph.NodeID    `json:"sources"`
	NodeCount     int               `json:"nodeCount"`
	EdgeCount     int               `json:"edgeCount"`
	TotalGoodness float64           `json:"totalGoodness"`
	Iterations    int               `json:"iterations"`
	Nodes         []extractNodeJSON `json:"nodes"`
	Edges         []extractEdgeJSON `json:"edges"`
}

type extractNodeJSON struct {
	ID       graph.NodeID `json:"id"`
	Label    string       `json:"label,omitempty"`
	Goodness float64      `json:"goodness"`
	Source   bool         `json:"source,omitempty"`
}

type extractEdgeJSON struct {
	A      graph.NodeID `json:"a"`
	B      graph.NodeID `json:"b"`
	Weight float64      `json:"weight"`
}

// compareExtract checks node ids, labels, goodness, edges and totals of an
// extraction answer bit for bit against res.
func compareExtract(res *extract.Result, body []byte) error {
	var got extractJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	sub := res.Subgraph
	if got.NodeCount != sub.NumNodes() || got.EdgeCount != sub.NumEdges() || len(got.Nodes) != len(res.Nodes) ||
		got.Iterations != res.Iterations || !sameFloat(got.TotalGoodness, res.TotalGoodness) {
		return fmt.Errorf("shape (%d nodes, %d edges, %d iterations, goodness %v) differs from the oracle (%d, %d, %d, %v)",
			got.NodeCount, got.EdgeCount, got.Iterations, got.TotalGoodness,
			sub.NumNodes(), sub.NumEdges(), res.Iterations, res.TotalGoodness)
	}
	isSource := map[int]bool{}
	if len(got.Sources) != len(res.Sources) {
		return fmt.Errorf("%d sources, want %d", len(got.Sources), len(res.Sources))
	}
	for i, l := range res.Sources {
		isSource[int(l)] = true
		if got.Sources[i] != res.Nodes[l] {
			return fmt.Errorf("source %d is %d, want %d", i, got.Sources[i], res.Nodes[l])
		}
	}
	for i, n := range got.Nodes {
		if n.ID != res.Nodes[i] || n.Label != sub.Label(graph.NodeID(i)) ||
			!sameFloat(n.Goodness, res.Goodness[i]) || n.Source != isSource[i] {
			return fmt.Errorf("node %d is %+v, want id %d goodness %v", i, n, res.Nodes[i], res.Goodness[i])
		}
	}
	i := 0
	var bad error
	sub.Edges(func(u, v graph.NodeID, w float64) bool {
		if i >= len(got.Edges) {
			bad = fmt.Errorf("edge list shorter than the oracle's")
			return false
		}
		e := got.Edges[i]
		if e.A != res.Nodes[u] || e.B != res.Nodes[v] || !sameFloat(e.Weight, w) {
			bad = fmt.Errorf("edge %d is %+v, want %d-%d %v", i, e, res.Nodes[u], res.Nodes[v], w)
			return false
		}
		i++
		return true
	})
	if bad == nil && i != len(got.Edges) {
		bad = fmt.Errorf("%d edges, oracle has %d", len(got.Edges), i)
	}
	return bad
}

func (o *oracle) checkGraphAnalysis(r request, body []byte) error {
	o.once.Do(func() {
		o.rep = analysis.ReportAdj(o.csr, o.d.g.Directed())
		o.pr = analysis.PageRankAdj(o.csr, analysis.PageRankOptions{})
	})
	var got struct {
		Nodes            int     `json:"nodes"`
		Edges            int     `json:"edges"`
		HalfEdges        int     `json:"halfEdges"`
		SelfLoops        int     `json:"selfLoops"`
		Directed         bool    `json:"directed"`
		DegreeMin        int     `json:"degreeMin"`
		DegreeMax        int     `json:"degreeMax"`
		DegreeMean       float64 `json:"degreeMean"`
		PowerLawExponent float64 `json:"powerLawExponent"`
		WeakComponents   int     `json:"weakComponents"`
		LargestComponent int     `json:"largestComponent"`
		TopRanked        []struct {
			Node     graph.NodeID `json:"node"`
			Label    string       `json:"label"`
			PageRank float64      `json:"pageRank"`
		} `json:"topRanked"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	rep := o.rep
	ple := rep.Degree.PowerLawExponent
	if math.IsNaN(ple) || math.IsInf(ple, 0) {
		ple = 0
	}
	if got.Nodes != rep.Nodes || got.Edges != rep.Edges || got.HalfEdges != rep.HalfEdges ||
		got.SelfLoops != rep.SelfLoops || got.Directed != o.d.g.Directed() ||
		got.DegreeMin != rep.Degree.Min || got.DegreeMax != rep.Degree.Max ||
		!sameFloat(got.DegreeMean, rep.Degree.Mean) || !sameFloat(got.PowerLawExponent, ple) ||
		got.WeakComponents != rep.WeakComponents || got.LargestComponent != rep.LargestComponent {
		return fmt.Errorf("structure report differs from the oracle")
	}
	top := analysis.TopKByRank(o.pr, r.topK)
	if len(got.TopRanked) != len(top) {
		return fmt.Errorf("%d ranked nodes, want %d", len(got.TopRanked), len(top))
	}
	for i, u := range top {
		g := got.TopRanked[i]
		if g.Node != u || g.Label != o.d.g.Label(u) || !sameFloat(g.PageRank, o.pr[u]) {
			return fmt.Errorf("rank %d is node %d (%v), want %d (%v)", i, g.Node, g.PageRank, u, o.pr[u])
		}
	}
	return nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func equalIDs(a, b []gtree.TreeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
