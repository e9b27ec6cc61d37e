package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to be more than one unlucky request.
const minBeyond = 10

// tailLadder lists the tail percentiles the report may use, highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 is not
	// exactly 9990 in binary) from pushing the rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond is the number of samples strictly above the nearest-rank
// percentile p of n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailLevel is the highest percentile of tailLadder with at least minBeyond
// samples beyond it, or 0 when n is too small for any of them.
func tailLevel(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sample is a set of measurements, latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

// pct is the nearest-rank percentile p of s (0 for an empty sample).
func (s sample) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[rankIndex(len(c), p)]
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the enclosing span, -1 for a request root.
type span struct {
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; times are milliseconds since its origin.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) at(tm time.Time) float64 { return ms(tm.Sub(t.origin)) }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: t.at(time.Now())})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.at(time.Now()) }

// record adds a span whose interval was measured elsewhere (the extract
// StageHook reports start and duration after the fact).
func (t *tracer) record(name string, req, parent int, start time.Time, d time.Duration) {
	s := t.at(start)
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: s, End: s + ms(d)})
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []float64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, spans []span, kids []int) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := math.Max(spans[k].Start, p.Start), math.Min(spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB, open := 0.0, 0.0, 0.0, false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = math.Max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
