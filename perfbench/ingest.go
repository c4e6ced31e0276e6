package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xclean"
	"xclean/internal/catalog"
	"xclean/internal/obs"
	"xclean/internal/server"
)

// Live ingest (see README.md for the make-up).
const (
	corpusName    = "dblp" // xserve -docs names a corpus after its file
	removeEvery   = 4      // every fourth added document is removed again
	readsPerRound = 500    // reader GETs per writer round of removeEvery adds and one remove
	parityQs      = 200    // pool queries compared with a fresh build after flush
	readWindow    = 2 * time.Second
)

// ingestDoc is one document the writer added.
type ingestDoc struct {
	xml     string
	planted string
	code    string // top-level Dewey code, from the planted token's witness
}

// writer streams adddoc/removedoc through POST /corpora.
type writer struct {
	c       *http.Client
	base    string
	res     *Result
	model   *Model
	docGen  func(planted string) string
	plant   func() string
	lat     []time.Duration
	kept    []string // XML of added documents still in the corpus
	rounds  int
	segMax  int
	tombMax int
	sample  bool // poll GET /corpora after every round
}

// post runs one write and records its latency.
func (w *writer) post(u string, body []byte) error {
	start := time.Now()
	_, err := postJSON(w.c, u, body)
	w.lat = append(w.lat, time.Since(start))
	w.res.Attempted++
	if err != nil {
		w.res.Failed++
	}
	return err
}

// find queries a planted token and returns whether it is suggested and
// the top-level code of the witness that contains it.
func (w *writer) find(token string) (bool, string, error) {
	body, err := getSuggest(w.c, w.base, token)
	if err != nil {
		return false, "", err
	}
	r, err := decodeSuggest(body)
	if err != nil {
		return false, "", err
	}
	return plantedWitness(r.Suggestions, token)
}

// round adds removeEvery documents, checking each planted token is
// suggested right after its adddoc returns, then removes the first of
// them and checks its token is gone.
func (w *writer) round() {
	docs := make([]*ingestDoc, 0, removeEvery)
	for i := 0; i < removeEvery; i++ {
		d := &ingestDoc{planted: w.plant()}
		d.xml = w.docGen(d.planted)
		if err := w.model.addXML([]byte(d.xml), 1); err != nil {
			w.res.check.add(err)
		}
		if w.post(w.base+"/corpora?name="+corpusName+"&action=adddoc", []byte(d.xml)) != nil {
			continue
		}
		found, code, err := w.find(d.planted)
		switch {
		case err != nil:
			w.res.check.add(err)
		case !found:
			w.res.check.add(fmt.Errorf("planted %q not suggested after its adddoc", d.planted))
		default:
			w.res.check.add(nil)
			d.code = code
		}
		docs = append(docs, d)
	}
	for i, d := range docs {
		if i > 0 || d.code == "" {
			w.kept = append(w.kept, d.xml)
			continue
		}
		if w.post(w.base+"/corpora?name="+corpusName+"&action=removedoc&doc="+url.QueryEscape(d.code), nil) != nil {
			w.kept = append(w.kept, d.xml)
			continue
		}
		found, _, err := w.find(d.planted)
		switch {
		case err != nil:
			w.res.check.add(err)
		case found:
			w.res.check.add(fmt.Errorf("planted %q still suggested after removedoc %s", d.planted, d.code))
		default:
			w.res.check.add(nil)
		}
	}
	w.rounds++
	if w.sample {
		if st, err := corpusStatus(w.c, w.base); err == nil {
			w.segMax = max(w.segMax, st.Seg.Segments)
			w.tombMax = max(w.tombMax, st.Seg.Tombstones)
		}
	}
}

// corpusStatus reads the corpus's entry of GET /corpora.
func corpusStatus(c *http.Client, base string) (catalog.Status, error) {
	var list []catalog.Status
	resp, err := c.Get(base + "/corpora")
	if err != nil {
		return catalog.Status{}, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return catalog.Status{}, err
	}
	for _, st := range list {
		if st.Name == corpusName {
			return st, nil
		}
	}
	return catalog.Status{}, fmt.Errorf("corpus %s not listed", corpusName)
}

// readResult is one reader GET.
type readResult struct {
	at      time.Duration // start, from the phase start
	q       string
	body    []byte
	latency time.Duration
	err     error
}

// sinkQuantile estimates a quantile (ms) from the difference of two
// cumulative histogram snapshots, interpolating inside the bucket.
func sinkQuantile(a, b obs.HistogramSnapshot, q float64) float64 {
	n := b.Count - a.Count
	if n <= 0 || len(a.Buckets) != len(b.Buckets) {
		return 0
	}
	target := q * float64(n)
	var prevCum int64
	prevLe := 0.0
	for i := range b.Buckets {
		cum := b.Buckets[i].Count - a.Buckets[i].Count
		if float64(cum) >= target {
			le := b.Buckets[i].Le
			if i == len(b.Buckets)-1 {
				le = prevLe
			}
			frac := ratio(target-float64(prevCum), float64(cum-prevCum))
			return 1000 * (prevLe + (le-prevLe)*frac)
		}
		prevCum, prevLe = cum, b.Buckets[i].Le
	}
	return 1000 * prevLe
}

// runIngestLive is the ingest-live workload.
func runIngestLive(cfg Config) (*Result, error) {
	in, err := generate(cfg.Sizes.ServeArticles, 0)
	if err != nil {
		return nil, err
	}
	base := in.DBLP
	model := base.Model
	docsDir := filepath.Join(cfg.Dir, "docs")
	if err := os.MkdirAll(docsDir, 0o755); err != nil {
		return nil, err
	}
	docPath := filepath.Join(docsDir, corpusName+".xml")
	if err := os.WriteFile(docPath, base.XML, 0o644); err != nil {
		return nil, err
	}
	pool := base.pool(cfg.Seed+50, cfg.Sizes.PoolSize)
	prng := rand.New(rand.NewSource(cfg.Seed + 51))
	rank := prng.Perm(len(pool))
	zipf := rand.NewZipf(prng, zipfS, 1, uint64(len(pool)-1))
	truth := map[string]string{}
	for _, q := range pool {
		truth[q.Dirty] = q.Truth
	}
	opts := engineOptions()
	opts.StoreText = true // RemoveDocument requires stored text

	res := newResult()
	var tr *Tracer
	var swaps atomic.Int64
	if cfg.Trace {
		tr = newTracer()
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// Set-up, repeated: catalog.Add (build plus snapshot write) up to the
	// first checked answer.
	var cat *catalog.Catalog
	var setups, builds []float64
	var heap float64
	for i := 0; i < cfg.Setups; i++ {
		cat = nil
		before := heapMB()
		start := time.Now()
		c := catalog.New(catalog.Config{Options: opts, SnapshotDir: filepath.Join(cfg.Dir, fmt.Sprintf("snap%d", i))})
		if err := c.Add(corpusName, docPath); err != nil {
			return nil, fmt.Errorf("catalog add: %w", err)
		}
		eng, err := c.Get(corpusName)
		if err != nil {
			return nil, err
		}
		sugs, err := eng.SuggestContext(context.Background(), pool[0].Dirty)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		res.check.add(checkAnswer(model, pool[0].Dirty, fromEngine(sugs), eps, topK))
		if st, err := c.Status(corpusName); err == nil {
			builds = append(builds, st.ColdBuildMillis/1000)
		}
		cat = c
		if i == 0 {
			heap = heapMB() - before
		}
	}
	res.set("setup_s", median(setups))
	res.set("heap_mb", heap)
	res.set("catalog.build_s", median(builds))
	if cfg.Trace {
		cat.OnSwap(func(string) { swaps.Add(1) })
	}
	sv, err := serve(server.New(nil, server.Config{Catalog: cat, CacheSize: cacheSize}), tr)
	if err != nil {
		return nil, err
	}
	defer sv.close()

	irng := rand.New(rand.NewSource(cfg.Seed + 60))
	// Added documents come from the corpus generator under seeds past
	// the served corpus's own.
	docs := &docSource{seed: corpusSeed + 1000*cfg.Seed}
	w := &writer{
		c: client, base: sv.url, res: res, model: model, sample: cfg.Trace,
		docGen: docs.doc,
		plant:  func() string { return plantToken(irng, model) },
	}

	// Warm-up: reader queries before the measured window.
	var reads []readResult
	for i := 0; i < 200; i++ {
		q := pool[rank[zipf.Uint64()]].Dirty
		body, err := getSuggest(client, sv.url, q)
		reads = append(reads, readResult{q: q, body: body, err: err})
	}

	figures := map[bool]map[string]float64{}
	var serverReqs, serverSelf float64
	sink := cat.Sinks()[corpusName]
	for _, traced := range phases(cfg) {
		if tr != nil {
			tr.on.Store(traced)
		}
		// Collect set-up and warm-up garbage now, not inside the
		// measured window.
		runtime.GC()
		m0, err := metricz(client, sv.url)
		if err != nil {
			return nil, err
		}
		c0, err := corpusStatus(client, sv.url)
		if err != nil {
			return nil, err
		}
		st0 := sink.Snapshot()
		swaps0 := swaps.Load()
		w.lat = nil
		var stop atomic.Bool
		var wg sync.WaitGroup
		var phaseReads []readResult
		// The writer is paced by the reader: it starts a round once the
		// reader has sent readsPerRound more GETs, so the writes, each
		// of which clears the corpus's cached answers, fall after a
		// fixed number of reads, and the cache hit ratio does not drift
		// with the speed of the machine. The phase runs whole rounds.
		ready := make(chan struct{}, 1<<16)
		wg.Add(1)
		t0 := time.Now()
		go func() {
			defer wg.Done()
			for n := 1; !stop.Load(); n++ {
				q := pool[rank[zipf.Uint64()]].Dirty
				start := time.Now()
				body, err := getSuggest(client, sv.url, q)
				phaseReads = append(phaseReads, readResult{at: start.Sub(t0), q: q, body: body, latency: time.Since(start), err: err})
				if n%readsPerRound == 0 {
					ready <- struct{}{}
				}
			}
		}()
		for r, deadline := 0, t0.Add(phaseLen(cfg)); r == 0 || time.Now().Before(deadline); r++ {
			<-ready
			w.round()
		}
		stop.Store(true)
		wg.Wait()
		reads = append(reads, phaseReads...)

		// The reader's figures are the faster quartile over windows of
		// the phase (see fastLatency).
		nw := max(1, int(phaseLen(cfg)/readWindow))
		lat := make([][]float64, nw)
		busy := make([]time.Duration, nw)
		for _, r := range phaseReads {
			if r.err == nil {
				i := min(nw-1, int(r.at/readWindow))
				lat[i] = append(lat[i], ms(r.latency))
				busy[i] += r.latency
			}
		}
		var p50s, p99s, qps []float64
		for i := range lat {
			p50s = append(p50s, quantile(lat[i], 0.5))
			p99s = append(p99s, quantile(lat[i], 0.99))
			qps = append(qps, ratio(float64(len(lat[i])), busy[i].Seconds()))
		}
		var writeBusy time.Duration
		for _, d := range w.lat {
			writeBusy += d
		}
		wl := durMs(w.lat)
		figures[traced] = map[string]float64{
			"query_p50_ms":              fastLatency(p50s),
			"query_p99_ms":              fastLatency(p99s),
			"query_qps":                 fastRate(qps),
			"segment.ingest_docs_per_s": ratio(float64(len(w.lat)), writeBusy.Seconds()),
			"segment.write_p50_ms":      quantile(wl, 0.5),
			"segment.write_p99_ms":      quantile(wl, 0.99),
		}
		m1, err := metricz(client, sv.url)
		if err != nil {
			return nil, err
		}
		c1, err := corpusStatus(client, sv.url)
		if err != nil {
			return nil, err
		}
		hits, misses := float64(m1.CacheHits-m0.CacheHits), float64(m1.CacheMisses-m0.CacheMisses)
		fmt.Fprintf(os.Stderr, "perfbench: ingest-live: %d reads, %d writes (%d rounds), cache hit ratio %.3f, segments %d, compactions %d, traced=%v\n",
			len(phaseReads), len(w.lat), w.rounds, ratio(hits, hits+misses), c1.Seg.Segments, c1.Seg.Compactions-c0.Seg.Compactions, traced)
		if traced {
			res.set("cache.hits", hits)
			res.set("cache.misses", misses)
			res.set("cache.hit_ratio", ratio(hits, hits+misses))
			res.set("catalog.swaps", float64(swaps.Load()-swaps0))
			res.set("segment.compactions", float64(c1.Seg.Compactions-c0.Seg.Compactions))
			res.set("segment.segments_max", float64(w.segMax))
			res.set("segment.tombstones_max", float64(w.tombMax))
			st1 := sink.Snapshot()
			res.set("core.calls", float64(st1.Queries-st0.Queries))
			res.set("core.call_p50_ms", sinkQuantile(st0.QueryDuration, st1.QueryDuration, 0.5))
			res.set("core.call_p99_ms", sinkQuantile(st0.QueryDuration, st1.QueryDuration, 0.99))
			// The catalog owns the engine, so no wrapper can time its
			// calls; the engine's own call-time total stands in for the
			// handler's child spans.
			tr.mu.Lock()
			var handler time.Duration
			for _, d := range tr.handlerDur {
				handler += d
			}
			serverReqs = float64(len(tr.handlerDur))
			tr.mu.Unlock()
			engineMs := 1000 * (st1.QueryDuration.Sum - st0.QueryDuration.Sum)
			serverSelf = ratio(ms(handler)-engineMs, serverReqs)
		}
	}
	for k, v := range figures[false] {
		res.set(k, v)
	}

	// End: flush, then compare answers with an engine freshly built from
	// the final document set.
	start := time.Now()
	if _, err := postJSON(client, sv.url+"/corpora?name="+corpusName+"&action=flush", nil); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	res.set("segment.flush_ms", ms(time.Since(start)))
	final := bytes.NewBuffer(bytes.TrimSuffix(base.XML, []byte("</dblp>")))
	for _, x := range w.kept {
		final.WriteString(x)
	}
	final.WriteString("</dblp>\n")
	fresh, err := xclean.Open(final, opts)
	if err != nil {
		return nil, fmt.Errorf("fresh build: %w", err)
	}
	var qs []string
	for _, q := range pool[:min(parityQs, len(pool))] {
		qs = append(qs, q.Dirty)
	}
	for _, r := range reads[:min(50, len(reads))] {
		qs = append(qs, r.q)
	}
	// The reader's last queries: an answer cached stale during the last
	// writes would be one of these.
	for _, r := range reads[max(0, len(reads)-200):] {
		qs = append(qs, r.q)
	}
	// The answers compared are the plain GET answers users receive,
	// through the suggestion cache. A cached answer that differs from
	// the fresh build while the engine's own answer (debug=1, which
	// skips the cache) matches it is the server's stale-cache fault: an
	// answer computed while a write was in flight is cached after that
	// write's invalidation and served until the next write, and a flush
	// does not invalidate. It shows only when the reader's request
	// straddled the last write, so it is counted (cache.stale_answers,
	// and on the log), not failed; see CHANGES.md. Any other difference
	// fails the run.
	stale := 0
	checked := map[string]bool{}
	for _, q := range qs {
		if checked[q] {
			continue
		}
		checked[q] = true
		want, err := fresh.SuggestContext(context.Background(), q)
		if err != nil {
			return nil, err
		}
		got, err := suggestJSON(client, sv.url, q, false)
		if err != nil {
			return nil, err
		}
		diff := checkSameAnswer(q, got, fromEngine(want), 1e-12)
		if diff != nil {
			engine, err := suggestJSON(client, sv.url, q, true)
			if err != nil {
				return nil, err
			}
			if checkSameAnswer(q, engine, fromEngine(want), 1e-12) == nil {
				stale++
				fmt.Fprintf(os.Stderr, "perfbench: ingest-live: stale cached answer after flush: %v\n", diff)
				continue
			}
		}
		res.check.add(diff)
	}
	res.set("cache.stale_answers", float64(stale))

	// Reader answers: rules (a)–(c) against the model of every document
	// the corpus held at some point, and MRR over first answers.
	rr := map[string]float64{}
	for _, r := range reads {
		res.Attempted++
		if r.err != nil {
			res.Failed++
			continue
		}
		resp, err := decodeSuggest(r.body)
		if err != nil {
			res.check.add(err)
			continue
		}
		sugs := fromJSON(resp.Suggestions)
		res.check.add(checkAnswer(model, r.q, sugs, eps, topK))
		if _, seen := rr[r.q]; !seen {
			rr[r.q] = reciprocalRank(truth[r.q], sugs)
		}
	}
	var rrs []float64
	for _, v := range rr {
		rrs = append(rrs, v)
	}
	res.set("mrr", mean(rrs))
	if cfg.Trace {
		tr.report(res)
		res.set("server.requests", serverReqs)
		res.set("server.self_ms", serverSelf)
		res.check.add(nil)
		if serverSelf < 0 {
			res.check.add(fmt.Errorf("server self time %.3f ms is negative", serverSelf))
		}
		reportOverhead(res, figures[false], figures[true])
		for _, k := range []string{"segment.ingest_docs_per_s", "segment.write_p50_ms", "segment.write_p99_ms"} {
			res.set(k, figures[false][k])
		}
	}
	return res, nil
}
