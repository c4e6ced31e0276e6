package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"xclean"
	"xclean/internal/invindex"
	"xclean/internal/tokenizer"
	"xclean/internal/xmltree"
)

var protocols = []string{"CLEAN", "RAND", "RULE"}

// heapMB forces a collection and returns the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// phases splits a run's measured time: the whole of it untraced, or
// an untraced half followed by a traced half whose difference is the
// tracing overhead.
func phases(cfg Config) []bool {
	if cfg.Trace {
		return []bool{false, true}
	}
	return []bool{false}
}

func phaseLen(cfg Config) time.Duration {
	d := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		d /= 2
	}
	return d
}

// reportOverhead records the traced phase's p50 against the untraced
// phase's and the untraced phase's p99, and prints both phases'
// end-to-end figures on a line of their own ahead of the result.
func reportOverhead(r *Result, untraced, traced map[string]float64) {
	r.set("trace.overhead_pct", 100*(ratio(traced["query_p50_ms"], untraced["query_p50_ms"])-1))
	r.set("load.query_p99_ms", untraced["query_p99_ms"])
	line, _ := json.Marshal(map[string]any{"untraced_end_to_end": untraced, "traced_end_to_end": traced})
	fmt.Println(string(line))
}

// engineQuery is one query of the engine workload, bound to the engine
// of its corpus.
type engineQuery struct {
	Query
	corpus int // 0 = DBLP, 1 = INEX
}

// runEngine is the engine workload: one caller in a closed loop making
// direct SuggestContext calls on heap indexes of both corpora, over
// the six query sets in a seeded random order, after a warm-up pass.
func runEngine(cfg Config) (*Result, error) {
	in, err := generate(cfg.Sizes.DBLPArticles, cfg.Sizes.INEXArticles)
	if err != nil {
		return nil, err
	}
	corpora := []*Corpus{in.DBLP, in.INEX}
	var queries []engineQuery
	for ci, c := range corpora {
		sets := c.querySets(cfg.Seed+10+int64(ci), cfg.Sizes.SetSize)
		for _, p := range protocols {
			for _, q := range sets[p] {
				queries = append(queries, engineQuery{q, ci})
			}
		}
	}
	res := newResult()
	ctx := context.Background()

	// Set-up: xclean.Open of both corpora up to the first checked
	// answer, repeated; heap growth is measured around the last one.
	var engines []*xclean.Engine
	var setups []float64
	var heap float64
	for i := 0; i < cfg.Setups; i++ {
		engines = nil
		before := heapMB()
		start := time.Now()
		for _, c := range corpora {
			e, err := xclean.Open(bytes.NewReader(c.XML), engineOptions())
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", c.Name, err)
			}
			engines = append(engines, e)
		}
		for _, q := range queries[:1] {
			sugs, err := engines[q.corpus].SuggestContext(ctx, q.Dirty)
			if err != nil {
				return nil, err
			}
			res.check.add(checkAnswer(corpora[q.corpus].Model, q.Dirty, fromEngine(sugs), eps, topK))
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == 0 {
			heap = heapMB() - before
		}
	}
	res.set("setup_s", median(setups))
	res.set("heap_mb", heap)

	// Warm-up pass, which also gives the first answer of every distinct
	// query for MRR.
	rr := map[string]float64{}
	for _, q := range queries {
		sugs, err := engines[q.corpus].SuggestContext(ctx, q.Dirty)
		if err != nil {
			return nil, err
		}
		s := fromEngine(sugs)
		res.check.add(checkAnswer(corpora[q.corpus].Model, q.Dirty, s, eps, topK))
		key := q.Set + "\x00" + q.Dirty
		if _, seen := rr[key]; !seen {
			rr[key] = reciprocalRank(q.Truth, s)
		}
	}
	res.set("mrr", mrrBySet(rr))

	tr := newTracer()
	order := rand.New(rand.NewSource(cfg.Seed + 20))
	figures := map[bool]map[string]float64{}
	for _, traced := range phases(cfg) {
		tr.on.Store(traced)
		// Collect set-up and warm-up garbage now, not inside the
		// measured window.
		runtime.GC()
		// Whole passes only: every pass runs every query once, in a
		// fresh seeded order. Passes are pooled into groups of about a
		// twelfth of the phase each, thousands of calls, so a group's
		// p99 is not one slow call; each figure is the faster quartile
		// of the groups' values (see fastLatency).
		var p50s, p99s, qps []float64
		deadline := time.Now().Add(phaseLen(cfg))
		for len(p50s) < 3 || time.Now().Before(deadline) {
			var lat []time.Duration
			var busy time.Duration
			groupEnd := time.Now().Add(phaseLen(cfg) / 12)
			for pass := 0; pass == 0 || time.Now().Before(groupEnd); pass++ {
				for _, i := range order.Perm(len(queries)) {
					q := queries[i]
					eng := engines[q.corpus]
					res.Attempted++
					start := time.Now()
					var sugs []xclean.Suggestion
					var err error
					if traced {
						var ex *xclean.Explain
						sugs, ex, err = eng.SuggestExplainedContext(ctx, q.Dirty)
						if ex != nil {
							tr.recordCall(ctx, start, time.Now(), ex.Spans, &ex.Stats, ex.Keywords)
						}
					} else {
						sugs, err = eng.SuggestContext(ctx, q.Dirty)
					}
					d := time.Since(start)
					if err != nil {
						res.Failed++
						continue
					}
					lat = append(lat, d)
					busy += d
					res.check.add(checkAnswer(corpora[q.corpus].Model, q.Dirty, fromEngine(sugs), eps, topK))
				}
			}
			l := durMs(lat)
			p50s = append(p50s, quantile(l, 0.5))
			p99s = append(p99s, quantile(l, 0.99))
			qps = append(qps, ratio(float64(len(lat)), busy.Seconds()))
		}
		figures[traced] = map[string]float64{
			"query_p50_ms": fastLatency(p50s),
			"query_p99_ms": fastLatency(p99s),
			"query_qps":    fastRate(qps),
		}
	}
	for k, v := range figures[false] {
		res.set(k, v)
	}
	if cfg.Trace {
		tr.report(res)
		reportOverhead(res, figures[false], figures[true])
		parse, build := parseBuildTimes(corpora, cfg.Setups)
		res.set("xmltree.parse_s", parse)
		res.set("invindex.build_s", build)
	}
	fmt.Fprintf(os.Stderr, "perfbench: engine: %d queries per pass, %d calls\n", len(queries), res.Attempted)
	return res, nil
}

// mrrBySet averages reciprocal ranks keyed "set\x00query", logging
// the per-set means.
func mrrBySet(rr map[string]float64) float64 {
	sets := map[string][]float64{}
	var all []float64
	for k, v := range rr {
		set, _, _ := strings.Cut(k, "\x00")
		sets[set] = append(sets[set], v)
		all = append(all, v)
	}
	names := make([]string, 0, len(sets))
	for s := range sets {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Fprintf(os.Stderr, "perfbench: mrr %s = %.3f over %d queries\n", s, mean(sets[s]), len(sets[s]))
	}
	return mean(all)
}

// parseBuildTimes times the two halves of xclean.Open by direct calls:
// the XML parse and the index build, each summed over both corpora,
// median of reps.
func parseBuildTimes(corpora []*Corpus, reps int) (parse, build float64) {
	var ps, bs []float64
	for i := 0; i < reps; i++ {
		var p, b time.Duration
		for _, c := range corpora {
			start := time.Now()
			tree, err := xmltree.Parse(bytes.NewReader(c.XML))
			p += time.Since(start)
			if err != nil {
				continue
			}
			start = time.Now()
			invindex.Build(tree, tokenizer.Options{})
			b += time.Since(start)
		}
		ps = append(ps, p.Seconds())
		bs = append(bs, b.Seconds())
	}
	return median(ps), median(bs)
}
