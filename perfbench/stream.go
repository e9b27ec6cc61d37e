package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sort"

	"repro/internal/dblp"
	"repro/internal/graph"
	"repro/internal/gtree"
)

// graphSeed fixes the generated graph. The benchmark serves one dataset,
// as the paper serves one DBLP snapshot, and --seed varies what the
// analysts ask of it. Small synthetic graphs differ enough from seed to
// seed (where the hubs sit, how they share pages) to move paged latency by
// more than any bound a benchmark may set.
const graphSeed = 1

// generate builds the benchmark's graph at scale.
func generate(scale float64) *dblp.Dataset {
	return dblp.Generate(dblp.Config{Scale: scale, Seed: graphSeed})
}

// dataset is the generated graph plus the label indexes the request
// streams and the oracle share. seed drives the request streams.
type dataset struct {
	seed int64
	g    *graph.Graph
	// notables are the planted figure-narrative names, sorted.
	notables []string
	labels   []string
	// sortedLabels backs the prefix-search oracle.
	sortedLabels []string
	// labelCount and firstWithLabel resolve an exact label the way the
	// server does: every hit, the lowest node id first.
	labelCount     map[string]int
	firstWithLabel map[string]graph.NodeID
	// byDegree lists the authors with a unique label, highest degree first
	// (ties by id): the extraction streams pick sources from it.
	byDegree []graph.NodeID
}

func newDataset(scale float64, seed int64) *dataset { return indexDataset(seed, generate(scale)) }

func indexDataset(seed int64, ds *dblp.Dataset) *dataset {
	d := &dataset{seed: seed, g: ds.Graph,
		labelCount: map[string]int{}, firstWithLabel: map[string]graph.NodeID{}}
	for name := range ds.Notables {
		d.notables = append(d.notables, name)
	}
	sort.Strings(d.notables)
	d.labels = ds.Graph.Labels()
	for u, l := range d.labels {
		if d.labelCount[l] == 0 {
			d.firstWithLabel[l] = graph.NodeID(u)
		}
		d.labelCount[l]++
	}
	d.sortedLabels = append([]string(nil), d.labels...)
	sort.Strings(d.sortedLabels)
	for u, l := range d.labels {
		if d.labelCount[l] == 1 && ds.Graph.Degree(graph.NodeID(u)) > 0 {
			d.byDegree = append(d.byDegree, graph.NodeID(u))
		}
	}
	sort.SliceStable(d.byDegree, func(i, j int) bool {
		return d.g.Degree(d.byDegree[i]) > d.g.Degree(d.byDegree[j])
	})
	return d
}

// opKind is one interactive operation type.
type opKind int

const (
	opScene opKind = iota
	opSceneSVG
	opLabelPrefix
	opLabelExact
	opLeafReport
	opExtract
	opGraphAnalysis
	numOps
)

var opNames = [numOps]string{"scene", "scene_svg", "label_prefix", "label_exact", "leaf_report", "extract", "graph_analysis"}

func (o opKind) String() string { return opNames[o] }

// navigation reports whether o counts toward the navigate workload's
// latency metrics (leaf reports count as analysis instead).
func (o opKind) navigation() bool { return o <= opLabelExact }

// sessionName is the one session every workload serves from.
const sessionName = "bench"

// request is one HTTP call of a stream, with what the oracle needs to
// check its answer.
type request struct {
	op     opKind
	method string
	// path is relative to /sessions/{sessionName}.
	path    string
	body    []byte
	focus   gtree.TreeID
	text    string
	sources []graph.NodeID
	budget  int
	topK    int
}

// key names the answer: requests with equal keys must get byte-identical
// bodies (the server's result cache relies on the same identity).
func (r request) key() string {
	if r.op == opExtract {
		return fmt.Sprintf("extract|%v|%d", r.sources, r.budget)
	}
	return r.method + " " + r.path
}

func sceneReq(focus gtree.TreeID, svg bool) request {
	r := request{op: opScene, method: "GET", focus: focus,
		path: fmt.Sprintf("/scene?focus=%d&grandchildren=true", focus)}
	if svg {
		r.op, r.path = opSceneSVG, r.path+"&format=svg"
	}
	return r
}

func prefixReq(prefix string) request {
	return request{op: opLabelPrefix, method: "GET", text: prefix,
		path: "/labels?limit=10&prefix=" + url.QueryEscape(prefix)}
}

func exactReq(label string) request {
	return request{op: opLabelExact, method: "GET", text: label, path: "/labels?q=" + url.QueryEscape(label)}
}

func leafReportReq(leaf gtree.TreeID) request {
	return request{op: opLeafReport, method: "GET", focus: leaf, path: fmt.Sprintf("/analysis?community=%d", leaf)}
}

func graphAnalysisReq(topK int) request {
	return request{op: opGraphAnalysis, method: "GET", topK: topK, path: fmt.Sprintf("/analysis/graph?topk=%d", topK)}
}

// extractReq asks by label, as an analyst would; sources holds the ids the
// labels resolve to, sorted, which is how the server canonicalizes them.
func (d *dataset) extractReq(src []graph.NodeID, budget int) request {
	labels := make([]string, len(src))
	for i, u := range src {
		labels[i] = d.labels[u]
	}
	body, _ := json.Marshal(struct {
		Labels []string `json:"labels"`
		Budget int      `json:"budget"`
	}{labels, budget})
	sorted := append([]graph.NodeID(nil), src...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return request{op: opExtract, method: "POST", path: "/extract", body: body, sources: sorted, budget: budget}
}

// maxHistory bounds a browsing client's back stack.
const maxHistory = 64

// navWalker is one analyst browsing the G-Tree: descend, go up or back,
// search labels and jump to the leaf of a hit, and ask for a leaf's
// metrics. The walk depends only on the seed and the tree, never on
// server answers, so it replays identically in the traced run.
type navWalker struct {
	rng     *rand.Rand
	t       *gtree.Tree
	d       *dataset
	focus   gtree.TreeID
	history []gtree.TreeID
	jump    gtree.TreeID
}

func newNavWalker(d *dataset, t *gtree.Tree, client int) *navWalker {
	return &navWalker{rng: rand.New(rand.NewSource(d.seed*1_000_003 + int64(client)*7919 + 1)),
		t: t, d: d, focus: t.Root(), jump: gtree.InvalidTree}
}

func (w *navWalker) moveTo(id gtree.TreeID) {
	w.history = append(w.history, w.focus)
	if len(w.history) > maxHistory {
		w.history = w.history[1:]
	}
	w.focus = id
}

func (w *navWalker) scene() request { return sceneReq(w.focus, w.rng.Float64() < 0.25) }

func (w *navWalker) next() request {
	if w.jump != gtree.InvalidTree {
		w.moveTo(w.jump)
		w.jump = gtree.InvalidTree
		return w.scene()
	}
	n := w.t.Node(w.focus)
	x := w.rng.Float64()
	if n.IsLeaf() {
		switch {
		case x < 0.4:
			return leafReportReq(w.focus)
		case x < 0.7 && len(w.history) > 0:
			w.back()
		default:
			w.moveTo(n.Parent)
		}
		return w.scene()
	}
	switch {
	case x < 0.5:
	case x < 0.62 && n.Parent != gtree.InvalidTree:
		w.moveTo(n.Parent)
		return w.scene()
	case x < 0.72 && len(w.history) > 0:
		w.back()
		return w.scene()
	case x < 0.86:
		l := []rune(w.d.labels[w.rng.Intn(len(w.d.labels))])
		if len(l) > 3 {
			l = l[:3]
		}
		return prefixReq(string(l))
	default:
		label := w.d.labels[w.rng.Intn(len(w.d.labels))]
		if w.rng.Intn(2) == 0 {
			label = w.d.notables[w.rng.Intn(len(w.d.notables))]
		}
		w.jump = w.t.LeafOf(w.d.firstWithLabel[label])
		return exactReq(label)
	}
	w.moveTo(n.Children[w.rng.Intn(len(n.Children))])
	return w.scene()
}

func (w *navWalker) back() {
	w.focus = w.history[len(w.history)-1]
	w.history = w.history[:len(w.history)-1]
}

// Extraction refine cycles. Every cycleLen-th request (starting with the
// first) is a whole-graph analysis with a topk no earlier request used;
// the other five refine one connection-subgraph query.
const (
	cycleLen     = 6
	warmupTopK   = 1000
	warmupBudget = 5
)

// Sources are Zipf(s=zipfS, v=zipfV)-skewed over the authors ranked by
// degree: rank k is drawn with weight (zipfV+k)^-zipfS. The draws are
// stratified. Every deckLen picks use the same multiset of ranks, the
// distribution's quantiles at (i+0.5)/deckLen, in an order the seed
// shuffles. A 20 s paged run (9 cycles of 3 picks) draws about one deck,
// so runs of different seeds ask about equally popular authors and differ
// in which of them meet in a query and in what order. With independent
// draws the number of hubs a run happened to get moved its median latency
// by 10%.
const (
	zipfS   = 1.1
	zipfV   = 8
	deckLen = 27
)

// extractStream is the analyst refining a connection subgraph: two
// sources at budget 30, add a third, widen to budget 50, drop one source,
// then step back to an earlier query (an exact repeat).
type extractStream struct {
	rng   *rand.Rand
	d     *dataset
	ranks []int // the deck's degree ranks, zipfQuantiles(len(d.byDegree))
	deck  []int // ranks not yet drawn from the current deck
	i     int
	topKs []int
	src   []graph.NodeID
	chain []request
}

func newExtractStream(d *dataset) *extractStream {
	rng := rand.New(rand.NewSource(d.seed*1_000_003 + 104729))
	s := &extractStream{rng: rng, d: d, ranks: zipfQuantiles(len(d.byDegree))}
	// Fresh topk values: a permutation of 1..warmupTopK-1, so no stream
	// request repeats the warm-up's key or an earlier analysis.
	s.topKs = rng.Perm(warmupTopK - 1)
	return s
}

// zipfQuantiles returns the deckLen ranks in [0,n) at which the Zipf CDF
// first reaches (i+0.5)/deckLen.
func zipfQuantiles(n int) []int {
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(zipfV+float64(k), -zipfS)
		total += w[k]
	}
	ranks := make([]int, 0, deckLen)
	k, cum := 0, w[0]
	for i := 0; i < deckLen; i++ {
		q := (float64(i) + 0.5) / deckLen * total
		for cum < q && k < n-1 {
			k++
			cum += w[k]
		}
		ranks = append(ranks, k)
	}
	return ranks
}

// pick draws the next source of the deck that is not already in s.src,
// starting a freshly shuffled deck when the current one runs out.
func (s *extractStream) pick() graph.NodeID {
	for {
		if len(s.deck) == 0 {
			s.deck = append(s.deck, s.ranks...)
			s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		}
		for i, k := range s.deck {
			u := s.d.byDegree[k]
			if !slices.Contains(s.src, u) {
				s.deck = append(s.deck[:i], s.deck[i+1:]...)
				return u
			}
		}
		// Every rank left would repeat a source of this query: draw from
		// a new deck and leave the rest of this one unused.
		s.deck = s.deck[:0]
	}
}

func (s *extractStream) next() request {
	i := s.i
	s.i++
	if i%cycleLen == 0 {
		return graphAnalysisReq(s.topKs[(i/cycleLen)%len(s.topKs)] + 1)
	}
	var r request
	switch i%cycleLen - 1 {
	case 0:
		s.src = s.src[:0]
		s.src = append(s.src, s.pick())
		s.src = append(s.src, s.pick())
		s.chain = s.chain[:0]
		r = s.d.extractReq(s.src, 30)
	case 1:
		s.src = append(s.src, s.pick())
		r = s.d.extractReq(s.src, 30)
	case 2:
		r = s.d.extractReq(s.src, 50)
	case 3:
		drop := s.rng.Intn(len(s.src))
		kept := append(append([]graph.NodeID(nil), s.src[:drop]...), s.src[drop+1:]...)
		r = s.d.extractReq(kept, 50)
	default:
		return s.chain[s.rng.Intn(3)]
	}
	s.chain = append(s.chain, r)
	return r
}

// warmups are the untimed requests that end set-up: one of each operation
// type the workload issues, so lazy work (CSR build, label preload,
// weighted degrees) is paid before measuring.
func warmups(w string, d *dataset, t *gtree.Tree) []request {
	if w == "navigate" {
		return []request{
			sceneReq(t.Root(), false), sceneReq(t.Root(), true),
			prefixReq(d.notables[0][:2]), exactReq(d.notables[0]),
			leafReportReq(t.LeafOf(d.firstWithLabel[d.notables[0]])),
		}
	}
	return []request{d.extractReq(d.byDegree[:1], warmupBudget), graphAnalysisReq(warmupTopK)}
}
