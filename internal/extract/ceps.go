package extract

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/graph"
)

// Options configures connection subgraph extraction.
type Options struct {
	// Budget is the maximum number of nodes in the output subgraph
	// (paper demo: 30 for Fig 5, 200 for Fig 6).
	Budget int
	// RWR tunes the underlying random walks.
	RWR RWROptions
	// Mode selects the goodness combination (default CombineAND, the
	// paper's meeting probability).
	Mode CombineMode
	// K for CombineKSoftAND.
	K int
	// MaxPathLen caps key-path length in the dynamic program (default
	// 10, at most MaxPathLenLimit). One source's DP holds MaxPathLen
	// parent layers of n entries, so the ceiling bounds that per-source
	// memory; what one extraction keeps across all its sources is bounded
	// separately by dpCacheBytes.
	MaxPathLen int
	// StageHook, if set, receives the wall-clock timing of each internal
	// extraction stage ("rwr" solve, "expand" key-path rounds, "induce"
	// subgraph materialization) as it completes. Pure observability: it
	// never changes results, and the server keeps it out of cache keys.
	StageHook func(stage string, start time.Time, d time.Duration)
}

// MaxPathLenLimit is the largest accepted Options.MaxPathLen, about six
// times the default of 10.
const MaxPathLenLimit = 64

// Normalize validates o and fills zero fields with defaults, rejecting
// explicitly out-of-range RWR parameters and path lengths above
// MaxPathLenLimit. It is idempotent, and the server uses it to
// canonicalize requests before building cache keys, so "budget omitted"
// and "budget 30" share one cache entry.
func (o Options) Normalize() (Options, error) {
	if o.Budget <= 0 {
		o.Budget = 30
	}
	switch {
	case o.MaxPathLen <= 0:
		o.MaxPathLen = 10
	case o.MaxPathLen > MaxPathLenLimit:
		return o, fmt.Errorf("extract: max path length %d exceeds the limit of %d", o.MaxPathLen, MaxPathLenLimit)
	}
	if o.Mode != CombineKSoftAND {
		// K only participates in k-softAND scoring; zero it elsewhere so
		// semantically identical requests canonicalize identically.
		o.K = 0
	}
	var err error
	o.RWR, err = o.RWR.Normalize()
	return o, err
}

// Result is an extracted connection subgraph.
type Result struct {
	// Subgraph is the induced subgraph over the chosen nodes, in local
	// coordinates; Nodes maps local ids back to the original graph.
	Subgraph *graph.Graph
	Nodes    []graph.NodeID
	// Sources are the local ids of the query sources inside Subgraph.
	Sources []graph.NodeID
	// Goodness holds the goodness score of each chosen node (local ids).
	Goodness []float64
	// TotalGoodness is the sum of goodness over chosen nodes — the
	// objective the extraction maximizes, used to compare against the
	// pairwise baseline in E9.
	TotalGoodness float64
	// Iterations is the number of destination-expansion rounds performed.
	Iterations int
}

// ConnectionSubgraph extracts a small subgraph that best captures the
// relationship among the source nodes, following the paper's §IV: RWR per
// source, goodness by meeting probability, then iterative key-path
// discovery via dynamic programming until the node budget is filled.
//
// It converts g to CSR form on every call; interactive callers issuing
// repeated queries over one graph should build the CSR once and use
// ConnectionSubgraphCSR (core.Engine does this automatically).
func ConnectionSubgraph(g *graph.Graph, sources []graph.NodeID, opts Options) (*Result, error) {
	return ConnectionSubgraphCSR(g, graph.ToCSR(g), sources, opts)
}

// ConnectionSubgraphCSR is ConnectionSubgraph with a caller-supplied CSR of
// g, letting the hot query path reuse one immutable CSR across requests
// instead of rebuilding it per extraction. c must be the CSR form of g
// (same node ids, both half-edges).
func ConnectionSubgraphCSR(g *graph.Graph, c *graph.CSR, sources []graph.NodeID, opts Options) (*Result, error) {
	return ConnectionSubgraphAdj(c, g.Directed(), g.Label, sources, opts)
}

// ConnectionSubgraphAdj is the extraction core over any graph.Adjacency —
// the in-memory CSR or a disk-backed paged CSR, which is how out-of-core
// engines answer extraction queries with resident adjacency memory bounded
// by the buffer pool. directed gives the adjacency's edge semantics
// (half-edge pairs are collapsed when false); labelOf, if non-nil, supplies
// node labels for the output subgraph. The algorithm reads the adjacency
// identically for every implementation, so results are bit-identical
// across backends over the same graph.
func ConnectionSubgraphAdj(adj graph.Adjacency, directed bool, labelOf func(graph.NodeID) string, sources []graph.NodeID, opts Options) (*Result, error) {
	return connectionSubgraphAdj(adj, directed, labelOf, sources, opts, dpCacheBytes)
}

// dpCacheBytes caps the key-path DP results one extraction keeps between
// expansion rounds, summed over its sources (see pathCache).
const dpCacheBytes = 64 << 20

// connectionSubgraphAdj is ConnectionSubgraphAdj with the DP cache cap as
// a parameter, so tests can force sources out of the cache.
func connectionSubgraphAdj(adj graph.Adjacency, directed bool, labelOf func(graph.NodeID) string, sources []graph.NodeID, opts Options, cacheBytes int) (*Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("extract: need at least one source")
	}
	n := adj.N()
	seen := map[graph.NodeID]bool{}
	for _, s := range sources {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("extract: source %d out of range (n=%d)", s, n)
		}
		if seen[s] {
			return nil, fmt.Errorf("extract: duplicate source %d", s)
		}
		seen[s] = true
	}
	if opts.Budget < len(sources) {
		return nil, fmt.Errorf("extract: budget %d below source count %d", opts.Budget, len(sources))
	}
	// stage brackets one instrumented phase; a nil hook costs one branch.
	stage := func(name string, begin time.Time) {
		if opts.StageHook != nil {
			opts.StageHook(name, begin, time.Since(begin))
		}
	}
	begin := time.Now()
	rwr, err := RWRMulti(adj, sources, opts.RWR)
	if err != nil {
		return nil, err
	}
	goodness := Goodness(rwr, opts.Mode, opts.K)
	stage("rwr", begin)

	// logGood[v] = log goodness, -Inf for zero; the DP maximizes the sum
	// of log-goodness over path nodes (product of goodness).
	logGood := make([]float64, n)
	for v := range logGood {
		if goodness[v] > 0 {
			logGood[v] = math.Log(goodness[v])
		} else {
			logGood[v] = math.Inf(-1)
		}
	}

	inH := make([]bool, n)
	var chosen []graph.NodeID
	add := func(u graph.NodeID) {
		if !inH[u] {
			inH[u] = true
			chosen = append(chosen, u)
		}
	}
	for _, s := range sources {
		add(s)
	}

	// Destinations come from the pruned top-k queue: one O(n log budget)
	// selection replaces a full O(n) rescan per destination, yielding the
	// same sequence the naive argmax scan would (see destQueue).
	begin = time.Now()
	dests := newDestQueue(goodness, opts.Budget)
	// Each source's DP runs the first time the loop reaches that source,
	// so a budget that fills early skips the remaining sources' DPs.
	dp := &keyPathDP{adj: adj, logGood: logGood, maxLen: opts.MaxPathLen}
	paths := newPathCache(dp, sources, cacheBytes)
	iterations := 0
	for len(chosen) < opts.Budget {
		pd := dests.nextDest(inH)
		if pd < 0 {
			break // no positive-goodness node remains
		}
		iterations++
		for i := range sources {
			if len(chosen) >= opts.Budget {
				break
			}
			for _, u := range paths.get(i).pathTo(pd) {
				if !inH[u] {
					if len(chosen) >= opts.Budget {
						break
					}
					add(u)
				}
			}
		}
		// pd never repeats as a destination (the queue's cursor moved past
		// it), so the loop performs at most budget iterations.
		if !inH[pd] && len(chosen) < opts.Budget {
			add(pd)
		}
	}
	stage("expand", begin)

	begin = time.Now()
	sub, mapping := inducedFromAdj(adj, directed, labelOf, chosen)
	stage("induce", begin)
	res := &Result{Subgraph: sub, Nodes: mapping, Iterations: iterations}
	res.Goodness = make([]float64, len(mapping))
	for i, u := range mapping {
		res.Goodness[i] = goodness[u]
		res.TotalGoodness += goodness[u]
	}
	local := make(map[graph.NodeID]graph.NodeID, len(mapping))
	for i, u := range mapping {
		local[u] = graph.NodeID(i)
	}
	for _, s := range sources {
		res.Sources = append(res.Sources, local[s])
	}
	return res, nil
}

// inducedFromAdj mirrors graph.Induced over an Adjacency: the subgraph of
// the chosen nodes in order of first appearance, each undirected half-edge
// pair collapsed to one logical edge, labels carried when labelOf is set.
// Keeping the construction identical to graph.Induced is what makes
// extraction results byte-for-byte equal across memory and paged backends;
// TestInducedFromAdjMatchesGraphInduced pins the two against each other,
// so edit either in lockstep (internal/graph/subgraph.go).
//
// One deliberate difference: labels are set only when non-empty, so a
// labeled graph whose chosen nodes all carry empty labels yields
// Subgraph.Labeled()==false (graph.Induced reports true there). A paged
// backend cannot observe "labeled but all-empty" — its index stores only
// non-empty labels — and cross-backend bit-identity outranks that
// degenerate case.
func inducedFromAdj(adj graph.Adjacency, directed bool, labelOf func(graph.NodeID) string, nodes []graph.NodeID) (*graph.Graph, []graph.NodeID) {
	old2new := make(map[graph.NodeID]graph.NodeID, len(nodes))
	var new2old []graph.NodeID
	for _, u := range nodes {
		if _, ok := old2new[u]; ok {
			continue
		}
		old2new[u] = graph.NodeID(len(new2old))
		new2old = append(new2old, u)
	}
	sub := graph.NewWithNodes(len(new2old), directed)
	if labelOf != nil {
		for nu, ou := range new2old {
			if l := labelOf(ou); l != "" {
				sub.SetLabel(graph.NodeID(nu), l)
			}
		}
	}
	var nbrs []graph.NodeID
	var ws []float64
	for nu, ou := range new2old {
		nbrs, ws = adj.NeighborsInto(ou, nbrs[:0], ws[:0])
		for i, v := range nbrs {
			nv, ok := old2new[v]
			if !ok {
				continue
			}
			// Undirected adjacency stores both half-edges; keep each
			// logical edge once (self-loops are stored once already).
			if !directed && v < ou {
				continue
			}
			sub.AddEdge(graph.NodeID(nu), nv, ws[i])
		}
	}
	return sub, new2old
}

// keyPathDP runs the key-path dynamic program over one adjacency and
// log-goodness vector: dp[l][v] = best sum of log-goodness over the nodes
// of a walk of exactly l edges from the source to v. The DP from a source
// never looks at the destination, so one run of from per source answers
// every destination (pathCache reruns it only for sources it had to drop
// to stay within its byte cap). The float layers are scratch shared by all
// sources of one extraction (this goroutine only).
type keyPathDP struct {
	adj             graph.Adjacency
	logGood         []float64
	maxLen          int
	prev, cur, best []float64
}

// sourcePaths is the finished DP from one source: for every node the
// parent on each layer's best walk and the layer whose walk scored best.
type sourcePaths struct {
	src graph.NodeID
	// parents[(l-1)*n+v]: predecessor of v on the best l-edge walk, -1
	// when v is unreachable in exactly l edges.
	parents []int32
	// bestLen[v] is the first layer whose score for v is strictly better
	// than every earlier layer's, 0 when v is unreachable within maxLen.
	// A byte suffices because Normalize caps maxLen at MaxPathLenLimit.
	bestLen []uint8
	// rev and out are the scratch behind the slice pathTo returns.
	rev, out []graph.NodeID
}

// pathCache hands the expansion loop each source's finished DP while
// keeping at most len(slots) of them: sources before the last slot own one
// each for the whole extraction, and every later source shares the last
// slot, rebuilt into the same buffers whenever the loop reaches a source
// other than the one it holds. from is deterministic, so a rebuilt DP
// answers exactly as a kept one would. The slot count is what fits in the
// byte cap (at least one), so an extraction keeps at most the cap or one
// source's DP, whichever is larger, and in the worst case costs one DP per
// (round, source) pair.
type pathCache struct {
	dp      *keyPathDP
	sources []graph.NodeID
	slots   []*sourcePaths
}

func newPathCache(dp *keyPathDP, sources []graph.NodeID, capBytes int) *pathCache {
	k := min(len(sources), max(1, capBytes/dp.bytesPerSource()))
	return &pathCache{dp: dp, sources: sources, slots: make([]*sourcePaths, k)}
}

// get returns the DP of sources[i]. Its paths stay valid until the next get.
func (c *pathCache) get(i int) *sourcePaths {
	j := min(i, len(c.slots)-1)
	sp := c.slots[j]
	if sp == nil || sp.src != c.sources[i] {
		sp = c.dp.from(c.sources[i], sp)
		c.slots[j] = sp
	}
	return sp
}

// bytesPerSource is the memory of one finished DP: maxLen int32 parent
// layers plus the bestLen byte, per node.
func (d *keyPathDP) bytesPerSource() int {
	return (4*d.maxLen + 1) * d.adj.N()
}

// from runs the DP from src, reusing reuse's buffers when it is non-nil.
func (d *keyPathDP) from(src graph.NodeID, reuse *sourcePaths) *sourcePaths {
	n := d.adj.N()
	sp := reuse
	if sp == nil {
		sp = &sourcePaths{bestLen: make([]uint8, n)}
	} else {
		clear(sp.bestLen)
	}
	sp.src = src
	negInf := math.Inf(-1)
	if d.logGood[src] == negInf {
		// Every walk through a zero-goodness source scores -Inf: no node
		// is reachable, and the layers would only confirm it.
		return sp
	}
	if d.prev == nil {
		d.prev, d.cur, d.best = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	prev, cur, best := d.prev, d.cur, d.best
	for i := range prev {
		prev[i] = negInf
		best[i] = negInf
	}
	prev[src] = d.logGood[src]
	if sp.parents == nil {
		sp.parents = make([]int32, d.maxLen*n)
	}
	// One reusable neighbour buffer for every layer. The DP never reads
	// edge weights, so the ids-only fast path skips decoding (and, paged,
	// skips reading) the EdgeW run entirely.
	var nbrs []graph.NodeID
	for l := 1; l <= d.maxLen; l++ {
		par := sp.parents[(l-1)*n : l*n]
		for i := range par {
			par[i] = -1
		}
		for i := range cur {
			cur[i] = negInf
		}
		for u := 0; u < n; u++ {
			if prev[u] == negInf {
				continue
			}
			nbrs = graph.NeighborIDs(d.adj, graph.NodeID(u), nbrs[:0])
			for _, v := range nbrs {
				if d.logGood[v] == negInf {
					continue
				}
				cand := prev[u] + d.logGood[v]
				if cand > cur[v] {
					cur[v] = cand
					par[v] = int32(u)
				}
			}
		}
		for v, c := range cur {
			if c > best[v] {
				best[v] = c
				sp.bestLen[v] = uint8(l)
			}
		}
		prev, cur = cur, prev
	}
	return sp
}

// pathTo returns the key path src..dst, or nil if dst is unreachable
// within maxLen. The slice is valid until the next pathTo call.
func (sp *sourcePaths) pathTo(dst graph.NodeID) []graph.NodeID {
	if dst == sp.src {
		sp.out = append(sp.out[:0], dst)
		return sp.out
	}
	l := int(sp.bestLen[dst])
	if l == 0 {
		return nil
	}
	// Walk parents back from dst at its best layer. A parent chain may
	// revisit nodes (walks, not simple paths); dedup while preserving
	// order. Paths hold at most maxLen+1 nodes, so a linear scan beats a
	// set.
	rev := append(sp.rev[:0], dst)
	v := dst
	for ; l >= 1; l-- {
		p := sp.parents[(l-1)*len(sp.bestLen)+int(v)]
		if p < 0 {
			break
		}
		v = graph.NodeID(p)
		rev = append(rev, v)
	}
	out := sp.out[:0]
	for i := len(rev) - 1; i >= 0; i-- {
		if !slices.Contains(out, rev[i]) {
			out = append(out, rev[i])
		}
	}
	sp.rev, sp.out = rev, out
	return out
}

// TopGoodness returns the k nodes with the highest goodness (ties by id),
// a crude alternative to path-based extraction used in ablation tests.
func TopGoodness(goodness []float64, k int) []graph.NodeID {
	ids := make([]graph.NodeID, len(goodness))
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		if goodness[ids[i]] != goodness[ids[j]] {
			return goodness[ids[i]] > goodness[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}
