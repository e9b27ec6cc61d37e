package extract

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

// keyPath finds a high-goodness path from src to dst with at most maxLen
// edges by dynamic programming: dp[l][v] = best sum of log-goodness over
// the nodes of a walk of exactly l edges from src to v. Returns the node
// sequence src..dst, or nil if dst is unreachable within maxLen.
//
// This is the per-(destination, source) DP the extraction ran before it
// switched to one DP per source (keyPathDP); it stays as the oracle the
// per-source DP must reproduce node for node.
func keyPath(c graph.Adjacency, src, dst graph.NodeID, logGood []float64, maxLen int) []graph.NodeID {
	n := c.N()
	negInf := math.Inf(-1)
	prev := make([]float64, n)
	cur := make([]float64, n)
	// parent[l][v]: predecessor of v on the best l-edge walk.
	parents := make([][]int32, maxLen+1)
	for i := range prev {
		prev[i] = negInf
	}
	prev[src] = logGood[src]
	bestLen, bestScore := -1, negInf
	if src == dst {
		return []graph.NodeID{src}
	}
	// One reusable buffer for the whole DP (this goroutine only). The DP
	// never reads edge weights, so the ids-only fast path skips decoding
	// (and, paged, skips reading) the EdgeW run entirely.
	var nbrs []graph.NodeID
	for l := 1; l <= maxLen; l++ {
		par := make([]int32, n)
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
			nbrs = graph.NeighborIDs(c, graph.NodeID(u), nbrs[:0])
			for _, v := range nbrs {
				if logGood[v] == negInf {
					continue
				}
				cand := prev[u] + logGood[v]
				if cand > cur[v] {
					cur[v] = cand
					par[v] = int32(u)
				}
			}
		}
		parents[l] = par
		if cur[dst] > bestScore {
			bestScore = cur[dst]
			bestLen = l
		}
		prev, cur = cur, prev
	}
	if bestLen < 0 {
		return nil
	}
	// Walk parents back from dst at bestLen. A parent chain may revisit
	// nodes (walks, not simple paths); dedup while preserving order.
	rev := []graph.NodeID{dst}
	v := dst
	for l := bestLen; l >= 1; l-- {
		p := parents[l][v]
		if p < 0 {
			break
		}
		v = graph.NodeID(p)
		rev = append(rev, v)
	}
	out := make([]graph.NodeID, 0, len(rev))
	used := map[graph.NodeID]bool{}
	for i := len(rev) - 1; i >= 0; i-- {
		if !used[rev[i]] {
			used[rev[i]] = true
			out = append(out, rev[i])
		}
	}
	return out
}

// randomSparse builds a graph with n nodes and m random edges, sparse
// enough that some nodes sit in other components or are isolated.
func randomSparse(rng *rand.Rand, n, m int, directed bool) *graph.Graph {
	g := graph.NewWithNodes(n, directed)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g.Dedup()
	return g
}

// randomLogGood draws widely spread log-goodness values, with about one
// node in eight at zero goodness (-Inf) and one in ten above zero. The
// spread makes a longer walk that avoids a poor node beat a shorter one
// through it; positive values make the best walk revisit nodes, which
// exercises the dedup.
func randomLogGood(rng *rand.Rand, n int) []float64 {
	lg := make([]float64, n)
	for v := range lg {
		switch {
		case rng.Intn(8) == 0:
			lg[v] = math.Inf(-1)
		case rng.Intn(10) == 0:
			lg[v] = 2 * rng.Float64()
		default:
			lg[v] = math.Log(math.Pow(rng.Float64(), 4) + 1e-12)
		}
	}
	return lg
}

// TestSourcePathsMatchKeyPath checks that the per-source DP answers every
// (source, destination) pair with exactly the node sequence of the
// per-pair keyPath oracle, on seeded random graphs, and that the cases
// where the two could plausibly diverge actually occur: unreachable
// destinations, maxLen 1, zero-goodness sources, destinations whose best
// score first appears at a later layer, and walks that revisit nodes.
func TestSourcePathsMatchKeyPath(t *testing.T) {
	var unreachable, zeroSources, laterBest, revisits, compared int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		var g *graph.Graph
		switch seed % 3 {
		case 0:
			g = randomConnected(rng, n, n)
		case 1:
			g = randomSparse(rng, n, n, false)
		default:
			g = randomSparse(rng, n, 2*n, true)
		}
		c := graph.ToCSR(g)
		logGood := randomLogGood(rng, n)
		// Pin one zero-goodness source per graph.
		logGood[rng.Intn(n)] = math.Inf(-1)
		for _, maxLen := range []int{1, 2, 3, 10} {
			// One DP shared by every source, as in an extraction: its
			// float scratch must carry nothing from one source to the next.
			dp := &keyPathDP{adj: c, logGood: logGood, maxLen: maxLen}
			for s := 0; s < n; s++ {
				src := graph.NodeID(s)
				sp := dp.from(src, nil)
				if math.IsInf(logGood[s], -1) {
					zeroSources++
				}
				for d := 0; d < n; d++ {
					dst := graph.NodeID(d)
					want := keyPath(c, src, dst, logGood, maxLen)
					got := sp.pathTo(dst)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d maxLen %d: path %d->%d = %v, keyPath gives %v", seed, maxLen, s, d, got, want)
					}
					compared++
					if want == nil {
						unreachable++
					}
					if want != nil && src != dst {
						first := 1
						for sp.parents[(first-1)*n+d] < 0 {
							first++
						}
						if int(sp.bestLen[d]) > first {
							laterBest++
						}
						if len(want) < int(sp.bestLen[d])+1 {
							revisits++
						}
					}
				}
			}
		}
	}
	t.Logf("compared %d pairs: %d unreachable, %d zero-goodness sources, %d best at a later layer, %d revisiting walks",
		compared, unreachable, zeroSources, laterBest, revisits)
	if unreachable == 0 || zeroSources == 0 || laterBest == 0 || revisits == 0 {
		t.Fatalf("property cases not covered: unreachable=%d zeroSources=%d laterBest=%d revisits=%d",
			unreachable, zeroSources, laterBest, revisits)
	}
}

// TestMaxPathLenLimit checks that Normalize, and so every extraction,
// rejects a path length above MaxPathLenLimit instead of sizing the DP's
// parent layers by it.
func TestMaxPathLenLimit(t *testing.T) {
	o, err := Options{MaxPathLen: MaxPathLenLimit}.Normalize()
	if err != nil || o.MaxPathLen != MaxPathLenLimit {
		t.Fatalf("MaxPathLen at the limit: %+v, %v", o.MaxPathLen, err)
	}
	for _, l := range []int{MaxPathLenLimit + 1, 1000000} {
		if _, err := (Options{MaxPathLen: l}).Normalize(); err == nil {
			t.Fatalf("MaxPathLen %d accepted, want an error", l)
		}
	}
	g := pathGraph(4)
	if _, err := ConnectionSubgraph(g, []graph.NodeID{0, 3}, Options{MaxPathLen: MaxPathLenLimit + 1}); err == nil {
		t.Fatal("extraction ran with MaxPathLen above the limit")
	}
}

// retainedBytes is the DP memory a pathCache holds right now.
func (c *pathCache) retainedBytes() int {
	total := 0
	for _, sp := range c.slots {
		if sp != nil {
			total += 4*cap(sp.parents) + cap(sp.bestLen)
		}
	}
	return total
}

// TestPathCacheBoundedMatchesKeyPath drives a pathCache the way the
// expansion loop does (rounds over every source in order) with many
// sources and caps that hold none, some or all of their DPs. Every path
// must match the keyPath oracle, and the cache must never hold more than
// the cap or one source's DP, whichever is larger.
func TestPathCacheBoundedMatchesKeyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, maxLen = 60, 10
	g := randomConnected(rng, n, n)
	c := graph.ToCSR(g)
	logGood := randomLogGood(rng, n)
	sources := make([]graph.NodeID, 0, 20)
	for _, v := range rng.Perm(n)[:20] {
		sources = append(sources, graph.NodeID(v))
	}
	per := (&keyPathDP{adj: c, maxLen: maxLen}).bytesPerSource()
	for _, tc := range []struct{ capBytes, slots int }{
		{0, 1},
		{per - 1, 1},
		{3 * per, 3},
		{1 << 30, len(sources)},
	} {
		dp := &keyPathDP{adj: c, logGood: logGood, maxLen: maxLen}
		pc := newPathCache(dp, sources, tc.capBytes)
		if len(pc.slots) != tc.slots {
			t.Fatalf("cap %d: %d slots, want %d", tc.capBytes, len(pc.slots), tc.slots)
		}
		for round := 0; round < 3; round++ {
			for i, src := range sources {
				dst := graph.NodeID(rng.Intn(n))
				got := pc.get(i).pathTo(dst)
				if want := keyPath(c, src, dst, logGood, maxLen); !slices.Equal(got, want) {
					t.Fatalf("cap %d round %d: path %d->%d = %v, keyPath gives %v", tc.capBytes, round, src, dst, got, want)
				}
				if b := pc.retainedBytes(); b > max(per, tc.capBytes) {
					t.Fatalf("cap %d: cache holds %d bytes, above max(%d, cap)", tc.capBytes, b, per)
				}
			}
		}
	}
}

// TestExtractionDPCacheCapBitIdentical runs extractions with many sources
// under DP caches that keep every source, a few, or only one, and requires
// the same result from each: evicting and rebuilding a source's DP must not
// change what the expansion picks.
func TestExtractionDPCacheCapBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 300
	g := randomConnected(rng, n, 2*n)
	c := graph.ToCSR(g)
	sources := make([]graph.NodeID, 0, 12)
	for _, v := range rng.Perm(n)[:12] {
		sources = append(sources, graph.NodeID(v))
	}
	opts := Options{Budget: 80, MaxPathLen: 12}
	want, err := connectionSubgraphAdj(c, false, nil, sources, opts, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	per := (&keyPathDP{adj: c, maxLen: opts.MaxPathLen}).bytesPerSource()
	for _, capBytes := range []int{0, 4 * per} {
		got, err := connectionSubgraphAdj(c, false, nil, sources, opts, capBytes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: result differs from the fully cached extraction (%d vs %d nodes)", capBytes, len(got.Nodes), len(want.Nodes))
		}
	}
	if want.Iterations < 2 {
		t.Fatalf("only %d expansion rounds: the rebuilt slot is never revisited", want.Iterations)
	}
}
