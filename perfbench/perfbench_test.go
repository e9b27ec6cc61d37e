package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/graph"
	"repro/internal/gtree"
)

const testScale = 0.005

func testData(t *testing.T, seed int64) (*dataset, *gtree.Tree) {
	t.Helper()
	d := newDataset(testScale, seed)
	eng, err := core.BuildEngine(d.g, buildConfig)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng.Tree()
}

func keys(next func() request, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = next().key()
	}
	return out
}

func TestStreamsAreDeterministic(t *testing.T) {
	d, tree := testData(t, 7)
	d2, tree2 := testData(t, 7)
	for c := 0; c < 2; c++ {
		a := keys(newNavWalker(d, tree, c).next, 500)
		b := keys(newNavWalker(d2, tree2, c).next, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("client %d request %d: %q vs %q", c, i, a[i], b[i])
			}
		}
	}
	if a, b := keys(newNavWalker(d, tree, 0).next, 50), keys(newNavWalker(d, tree, 1).next, 50); equalStrings(a, b) {
		t.Fatal("both browsing clients walk the same path")
	}
	a, b := keys(newExtractStream(d).next, 120), keys(newExtractStream(d2).next, 120)
	if !equalStrings(a, b) {
		t.Fatal("extraction stream differs between two builds of the same seed")
	}
	other, otherTree := testData(t, 8)
	if equalStrings(a, keys(newExtractStream(other).next, 120)) {
		t.Fatal("extraction stream ignores the seed")
	}
	if equalStrings(keys(newNavWalker(d, tree, 0).next, 50), keys(newNavWalker(other, otherTree, 0).next, 50)) {
		t.Fatal("browsing walk ignores the seed")
	}
}

func TestExtractStreamShape(t *testing.T) {
	d, _ := testData(t, 3)
	s := newExtractStream(d)
	seenTopK := map[int]bool{warmupTopK: true}
	seen := map[string]bool{}
	for i := 0; i < 10*cycleLen; i++ {
		r := s.next()
		switch step := i % cycleLen; {
		case step == 0:
			if r.op != opGraphAnalysis || seenTopK[r.topK] {
				t.Fatalf("request %d: want an analysis with a fresh topk, got %s", i, r.key())
			}
			seenTopK[r.topK] = true
		case step == cycleLen-1:
			if r.op != opExtract || !seen[r.key()] {
				t.Fatalf("request %d: want a repeat of an earlier extraction, got %s", i, r.key())
			}
		default:
			want := [][2]int{{2, 30}, {3, 30}, {3, 50}, {2, 50}}[step-1]
			if r.op != opExtract || len(r.sources) != want[0] || r.budget != want[1] {
				t.Fatalf("request %d: %s, want %d sources at budget %d", i, r.key(), want[0], want[1])
			}
			seen[r.key()] = true
		}
	}
}

// Every deckLen picks draw the same multiset of degree ranks, in an order
// the seed shuffles.
func TestSourceDrawsAreStratified(t *testing.T) {
	d, _ := testData(t, 3)
	rank := map[graph.NodeID]int{}
	for k, u := range d.byDegree {
		rank[u] = k
	}
	draw := func(d *dataset) []int {
		s := newExtractStream(d)
		out := make([]int, 2*deckLen)
		for i := range out {
			out[i] = rank[s.pick()]
		}
		return out
	}
	want := zipfQuantiles(len(d.byDegree))
	if want[0] != 0 || !slices.IsSorted(want) || want[deckLen-1] >= len(d.byDegree) {
		t.Fatalf("deck ranks %v", want)
	}
	a := draw(d)
	for i := 0; i < len(a); i += deckLen {
		got := slices.Sorted(slices.Values(a[i : i+deckLen]))
		if !slices.Equal(got, want) {
			t.Fatalf("deck %d draws ranks %v, want %v", i/deckLen, got, want)
		}
	}
	other, _ := testData(t, 8)
	if b := draw(other); slices.Equal(a, b) {
		t.Fatal("source order ignores the seed")
	}
}

func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		got := tailLevel(c.n)
		if got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minBeyond {
			t.Errorf("tailLevel(%d) = %g leaves %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
	s := sample{5, 1, 4, 2, 3}
	if s.pct(50) != 3 || s.pct(100) != 5 || s.pct(1) != 1 {
		t.Fatalf("nearest-rank percentiles of 1..5: p50=%g p100=%g p1=%g", s.pct(50), s.pct(100), s.pct(1))
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "core", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 4},
		{Name: "b", Parent: 0, Start: 3, End: 6},  // overlaps a
		{Name: "c", Parent: 0, Start: 8, End: 12}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[0] != 10-5-2 || self[1] != 3 {
		t.Fatalf("self times %v", self)
	}
}

func TestFailuresCountStatusAndOracleMismatches(t *testing.T) {
	d, tree := testData(t, 5)
	o := newOracle(d, tree)
	good := d.extractReq(d.byDegree[:2], 10)
	res, err := o.extraction(good.sources, good.budget)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(toJSON(res))
	if err := compareExtract(res, body); err != nil {
		t.Fatalf("test rendering of the oracle's own answer: %v", err)
	}
	if _, err := verify(o, good, outcome{status: http.StatusOK, body: body}, true); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if _, err := verify(o, good, outcome{status: http.StatusOK, body: append(body, ' ')}, true); err == nil {
		t.Fatal("a repeat that differs from the first answer passed")
	}
	if _, err := verify(o, sceneReq(tree.Root(), false), outcome{status: http.StatusServiceUnavailable}, true); err == nil {
		t.Fatal("a 503 passed")
	}
	wrong := d.extractReq(d.byDegree[:2], 11)
	if _, err := verify(o, wrong, outcome{status: http.StatusOK, body: body}, true); err == nil {
		t.Fatal("an answer to a different query passed the oracle")
	}

	recs := []record{
		{op: opExtract, dur: time.Millisecond},
		{op: opExtract, dur: time.Millisecond, err: errors.New("status 500")},
		{op: opGraphAnalysis, dur: time.Millisecond, err: errors.New("oracle mismatch")},
		{op: opGraphAnalysis, dur: 2 * time.Millisecond},
	}
	w := window{recs: recs, elapsed: time.Second, rss: 10}
	r := summarize(config{spec: workloads["extract-mem"]}, w, nil, 1, nil)
	if r.Attempted != 4 || r.Failed != 2 || r.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4 2 false", r.Attempted, r.Failed, r.Correct)
	}
	if r.Metrics["ops_per_s"].Value != 2 {
		t.Fatalf("ops_per_s %v counts failed requests", r.Metrics["ops_per_s"].Value)
	}
	w.recs = recs[:1]
	r = summarize(config{spec: workloads["extract-mem"]}, w, nil, 1, []error{errors.New("warm-up")})
	if r.Correct {
		t.Fatal("a failed warm-up left the run correct")
	}
	// A window dropped for steal still counts its requests and failures,
	// but not in the metrics.
	r = summarize(config{spec: workloads["extract-mem"]}, w, recs[1:], 1, nil)
	if r.Attempted != 4 || r.Failed != 2 || r.Correct || r.Metrics["ops_per_s"].Value != 1 {
		t.Fatalf("attempted %d failed %d correct %v ops_per_s %v, want 4 2 false 1",
			r.Attempted, r.Failed, r.Correct, r.Metrics["ops_per_s"].Value)
	}
}

// TestSmokeAllWorkloads runs every workload end to end, untraced and
// traced, on a tiny graph for about a second each, and checks that each
// run is correct and prints every metric BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	bin := filepath.Join(t.TempDir(), "gmine")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gmine").CombinedOutput(); err != nil {
		t.Fatalf("build gmine: %v\n%s", err, out)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workload {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, spec: workloads[w.Name], seed: 2, seconds: 1,
				trace: traced, scale: testScale, gmine: bin, outdir: t.TempDir()}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct %v attempted %d failed %d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || (!traced && got.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (ok %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// toJSON renders an extraction the way the server does.
func toJSON(res *extract.Result) extractJSON {
	out := extractJSON{NodeCount: res.Subgraph.NumNodes(), EdgeCount: res.Subgraph.NumEdges(),
		TotalGoodness: res.TotalGoodness, Iterations: res.Iterations}
	src := map[int]bool{}
	for _, l := range res.Sources {
		src[int(l)] = true
		out.Sources = append(out.Sources, res.Nodes[l])
	}
	for i, u := range res.Nodes {
		out.Nodes = append(out.Nodes, extractNodeJSON{ID: u, Label: res.Subgraph.Label(graph.NodeID(i)),
			Goodness: res.Goodness[i], Source: src[i]})
	}
	res.Subgraph.Edges(func(u, v graph.NodeID, w float64) bool {
		out.Edges = append(out.Edges, extractEdgeJSON{A: res.Nodes[u], B: res.Nodes[v], Weight: w})
		return true
	})
	return out
}

func equalStrings(a, b []string) bool {
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
