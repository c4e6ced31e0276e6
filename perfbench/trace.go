package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xclean"
	"xclean/internal/cluster"
	"xclean/internal/core"
	"xclean/internal/obs"
)

// Tracing measures each layer from outside, by timing calls into its
// public interfaces: an http.Handler around each server, a wrapper
// around the engine the server calls (server.Engine plus the shard
// partial methods), and a RoundTripper in the coordinator's fan-out
// client. Spans are kept in memory, linked per request through a
// context value (handler → engine call, handler → fan-out leg) and a
// header the transport adds to each leg (leg → shard handler), and
// summarised when the run ends. Recording is off until the traced
// phase starts, so the untraced phase of a traced run pays only an
// atomic load per call.

// stageMetrics maps obs stage order (tokenize, variants, scan,
// enumerate, typeinfer, accumulate, rank) to metric names.
var stageMetrics = [obs.NumStages]string{
	"tokenizer.tokenize_ms", "fastss.variants_ms", "invindex.scan_ms", "core.enumerate_ms",
	"resulttype.typeinfer_ms", "lm.accumulate_ms", "core.rank_ms",
}

func stageIndex(name string) int {
	for _, st := range obs.Stages() {
		if st.String() == name {
			return int(st)
		}
	}
	return -1
}

// stageSelf splits one engine call's Explain spans into per-stage self
// times on the call's critical path: call-level stages as reported,
// and for the parallel scan stages those of the worker that ran
// longest. Summing across workers would count overlapped time twice.
func stageSelf(spans []obs.Span) [obs.NumStages]time.Duration {
	var out [obs.NumStages]time.Duration
	workers := map[int]*[obs.NumStages]time.Duration{}
	for _, s := range spans {
		i := stageIndex(s.Stage)
		if i < 0 {
			continue
		}
		if s.Worker < 0 {
			out[i] += time.Duration(s.DurationNs)
			continue
		}
		w := workers[s.Worker]
		if w == nil {
			w = new([obs.NumStages]time.Duration)
			workers[s.Worker] = w
		}
		w[i] += time.Duration(s.DurationNs)
	}
	var crit *[obs.NumStages]time.Duration
	var critTotal time.Duration = -1
	for _, w := range workers {
		var tot time.Duration
		for _, d := range w {
			tot += d
		}
		if tot > critTotal {
			crit, critTotal = w, tot
		}
	}
	if crit != nil {
		for i := range out {
			out[i] += crit[i]
		}
	}
	return out
}

type interval struct{ start, end time.Time }

// covered is the length of the union of ivs clipped to [start, end].
func covered(ivs []interval, start, end time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var tot time.Duration
	cur := start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			tot += e.Sub(s)
			cur = e
		}
	}
	return tot
}

// reqSpan is one handler span's record of its child spans.
type reqSpan struct {
	mu       sync.Mutex
	children []interval
	legs     [][]byte // captured GET leg bodies (for merge timing)
}

func (rs *reqSpan) child(iv interval, body []byte) {
	rs.mu.Lock()
	rs.children = append(rs.children, iv)
	if body != nil {
		rs.legs = append(rs.legs, body)
	}
	rs.mu.Unlock()
}

type reqKey struct{}

func spanOf(ctx context.Context) *reqSpan {
	rs, _ := ctx.Value(reqKey{}).(*reqSpan)
	return rs
}

// legHeader carries the fan-out leg's ID to the shard's handler span.
const legHeader = "X-Perfbench-Leg"

// maxMergeSamples bounds the captured shard answer pairs that the
// merge-time measurement replays.
const maxMergeSamples = 200

// Tracer holds the spans of one traced phase.
type Tracer struct {
	on     atomic.Bool
	legSeq atomic.Int64

	mu          sync.Mutex
	handlerDur  []time.Duration
	handlerSelf []time.Duration
	calls       []time.Duration
	stages      [obs.NumStages]time.Duration
	stageCalls  int
	violations  int // calls whose stage self times exceeded the call span
	stats       core.Stats
	keywords    int
	variants    int
	legs        map[int64]time.Duration // leg ID → leg span
	shardSpans  map[int64]time.Duration // leg ID → shard handler span
	mergeRaw    [][][]byte              // shard answer pairs of single-query fan-outs
}

// wantMerge reports whether more shard answers should be captured.
func (t *Tracer) wantMerge() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.mergeRaw) < maxMergeSamples
}

func newTracer() *Tracer {
	return &Tracer{legs: map[int64]time.Duration{}, shardSpans: map[int64]time.Duration{}}
}

// Handler wraps a server's handler with the handler span. Only the
// suggestion endpoints are traced.
func (t *Tracer) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || (r.URL.Path != "/suggest" && r.URL.Path != "/shard/suggest") {
			next.ServeHTTP(w, r)
			return
		}
		rs := &reqSpan{}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, rs)))
		end := time.Now()
		rs.mu.Lock()
		self := end.Sub(start) - covered(rs.children, start, end)
		legs := rs.legs
		rs.mu.Unlock()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.handlerDur = append(t.handlerDur, end.Sub(start))
		t.handlerSelf = append(t.handlerSelf, self)
		if id, err := strconv.ParseInt(r.Header.Get(legHeader), 10, 64); err == nil {
			t.shardSpans[id] = end.Sub(start)
		}
		if len(legs) == 2 && len(t.mergeRaw) < maxMergeSamples {
			t.mergeRaw = append(t.mergeRaw, legs)
		}
	})
}

// recordCall files one engine call span and its Explain breakdown.
func (t *Tracer) recordCall(ctx context.Context, start, end time.Time, spans []obs.Span, st *core.Stats, kws []xclean.ExplainKeyword) {
	if rs := spanOf(ctx); rs != nil {
		rs.child(interval{start, end}, nil)
	}
	self := stageSelf(spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls = append(t.calls, end.Sub(start))
	if spans != nil {
		t.stageCalls++
		for i, d := range self {
			t.stages[i] += d
		}
		if sum > end.Sub(start) {
			t.violations++
		}
	}
	if st != nil {
		t.stats.PostingsRead += st.PostingsRead
		t.stats.Subtrees += st.Subtrees
		t.stats.CandidatesSeen += st.CandidatesSeen
		t.stats.Evictions += st.Evictions
		t.stats.TypeComputations += st.TypeComputations
		t.stats.TypeCacheHits += st.TypeCacheHits
	}
	for _, k := range kws {
		t.keywords++
		t.variants += k.Variants
	}
}

// report writes the per-layer metrics the spans support.
func (t *Tracer) report(r *Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(len(t.calls))
	if n > 0 {
		r.set("core.calls", n)
		cd := durMs(t.calls)
		r.set("core.call_p50_ms", quantile(cd, 0.5))
		r.set("core.call_p99_ms", quantile(cd, 0.99))
	}
	if t.stageCalls > 0 {
		for i, d := range t.stages {
			r.set(stageMetrics[i], ms(d)/float64(t.stageCalls))
		}
		// The stage self times of a call must fit inside its span.
		r.check.add(nil)
		if t.violations > 0 {
			r.check.add(fmt.Errorf("%d of %d engine calls: stage self times exceed the call span", t.violations, t.stageCalls))
		}
	}
	if t.stats.Subtrees > 0 || t.keywords > 0 {
		r.set("invindex.postings_read", float64(t.stats.PostingsRead)/n)
		r.set("core.subtrees", float64(t.stats.Subtrees)/n)
		r.set("core.candidates_seen", float64(t.stats.CandidatesSeen)/n)
		r.set("core.evictions", float64(t.stats.Evictions)/n)
		r.set("resulttype.computations", float64(t.stats.TypeComputations)/n)
		r.set("resulttype.cache_hit_ratio", ratio(float64(t.stats.TypeCacheHits), float64(t.stats.TypeCacheHits+t.stats.TypeComputations)))
		r.set("fastss.variants_per_keyword", ratio(float64(t.variants), float64(t.keywords)))
	}
	if len(t.handlerDur) > 0 {
		r.set("server.requests", float64(len(t.handlerDur)))
		r.set("server.self_ms", mean(durMs(t.handlerSelf)))
		neg := 0
		for _, s := range t.handlerSelf {
			if s < 0 {
				neg++
			}
		}
		r.check.add(nil)
		if neg > 0 {
			r.check.add(fmt.Errorf("%d handler spans with negative self time", neg))
		}
	}
	if len(t.legs) > 0 {
		var legs, net []float64
		for id, d := range t.legs {
			legs = append(legs, ms(d))
			if sd, ok := t.shardSpans[id]; ok {
				net = append(net, ms(d-sd))
			}
		}
		r.set("cluster.legs", float64(len(legs)))
		r.set("cluster.leg_p50_ms", quantile(legs, 0.5))
		r.set("cluster.leg_p99_ms", quantile(legs, 0.99))
		r.set("cluster.leg_net_ms", mean(net))
	}
	if len(t.mergeRaw) > 0 {
		// Replay the coordinator's merge on the captured shard answers
		// (the same core.MergePartials call the coordinator makes).
		var per []float64
		for _, pair := range t.mergeRaw {
			var sets []core.PartialSet
			for _, b := range pair {
				var sr cluster.ShardResponse
				if err := json.Unmarshal(b, &sr); err != nil {
					r.check.add(fmt.Errorf("captured shard answer: %w", err))
					continue
				}
				sets = append(sets, sr.PartialSet)
			}
			start := time.Now()
			const reps = 5
			for i := 0; i < reps; i++ {
				core.MergePartials(core.MergeConfig{Beta: 5, K: topK}, sets)
			}
			per = append(per, ms(time.Since(start))/reps)
		}
		r.set("cluster.merge_ms", median(per))
	}
}

// tracedEngine is the benchmark's wrapper around the engine a server
// calls. It satisfies server.Engine and forwards the shard
// partial-suggest methods; while tracing it runs the explained variant
// of each call and records the call span and stage breakdown.
type tracedEngine struct {
	e *xclean.Engine
	t *Tracer
}

func (w *tracedEngine) SuggestContext(ctx context.Context, q string) ([]xclean.Suggestion, error) {
	if !w.t.on.Load() {
		return w.e.SuggestContext(ctx, q)
	}
	start := time.Now()
	sugs, ex, err := w.e.SuggestExplainedContext(ctx, q)
	end := time.Now()
	if ex != nil {
		w.t.recordCall(ctx, start, end, ex.Spans, &ex.Stats, ex.Keywords)
	} else {
		w.t.recordCall(ctx, start, end, nil, nil, nil)
	}
	return sugs, err
}

func (w *tracedEngine) SuggestWithSpacesContext(ctx context.Context, q string) ([]xclean.Suggestion, error) {
	return w.e.SuggestWithSpacesContext(ctx, q)
}

func (w *tracedEngine) SuggestExplainedContext(ctx context.Context, q string) ([]xclean.Suggestion, *xclean.Explain, error) {
	return w.e.SuggestExplainedContext(ctx, q)
}

func (w *tracedEngine) SuggestWithSpacesExplainedContext(ctx context.Context, q string) ([]xclean.Suggestion, *xclean.Explain, error) {
	return w.e.SuggestWithSpacesExplainedContext(ctx, q)
}

func (w *tracedEngine) Stats() xclean.IndexStats { return w.e.Stats() }

func (w *tracedEngine) Preview(s xclean.Suggestion, maxLen int) string { return w.e.Preview(s, maxLen) }

func (w *tracedEngine) SuggestPartialsContext(ctx context.Context, q string) (xclean.PartialSet, error) {
	if !w.t.on.Load() {
		return w.e.SuggestPartialsContext(ctx, q)
	}
	start := time.Now()
	ps, spans, err := w.e.SuggestPartialsExplainedContext(ctx, q)
	w.t.recordCall(ctx, start, time.Now(), spans, nil, nil)
	return ps, err
}

func (w *tracedEngine) SuggestPartialsExplainedContext(ctx context.Context, q string) (xclean.PartialSet, []obs.Span, error) {
	return w.e.SuggestPartialsExplainedContext(ctx, q)
}

// legTransport times each coordinator fan-out leg, from sending the
// request to the coordinator closing the response body, and tags the
// leg so the shard's handler span can be matched to it.
type legTransport struct {
	base http.RoundTripper
	t    *Tracer
}

func (lt *legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !lt.t.on.Load() {
		return lt.base.RoundTrip(req)
	}
	id := lt.t.legSeq.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(legHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := lt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	capture := req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/shard/suggest") && lt.t.wantMerge()
	resp.Body = &legBody{ReadCloser: resp.Body, done: func(body []byte) {
		end := time.Now()
		if rs := spanOf(req.Context()); rs != nil {
			rs.child(interval{start, end}, body)
		}
		lt.t.mu.Lock()
		lt.t.legs[id] = end.Sub(start)
		lt.t.mu.Unlock()
	}, capture: capture}
	return resp, nil
}

// legBody ends the leg span when the coordinator closes the body,
// optionally keeping a copy of the bytes it read.
type legBody struct {
	io.ReadCloser
	done    func(body []byte)
	capture bool
	buf     bytes.Buffer
	once    sync.Once
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.capture {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		var body []byte
		if b.capture {
			body = b.buf.Bytes()
		}
		b.done(body)
	})
	return err
}
