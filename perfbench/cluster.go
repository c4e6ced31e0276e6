package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xclean"
	"xclean/internal/cluster"
	"xclean/internal/server"
)

// Open-loop traffic of cluster-zipf (see README.md for the make-up).
// Only the popularity exponent has a source, the load generator's
// default (DESIGN.md §7, cmd/xload); the other figures are assumptions.
const (
	zipfS      = 1.2  // Zipf exponent of query popularity: P(rank k) ∝ (1+k)^-zipfS
	arrivalQPS = 200  // mean request arrival rate (Poisson)
	batchShare = 0.2  // share of requests that are batched POSTs
	batchSize  = 4    // queries per batched POST
	closedPerS = 2000 // closed-loop GETs per second of phase (query_qps)
	windows    = 8    // open-loop windows and closed-loop chunks per phase
	warmup     = 3 * time.Second
)

// clusterStack is one assembled deployment: two shard servers serving
// mmap'd snapshots and a coordinator in front.
type clusterStack struct {
	shards []*served
	front  *served
}

func (cs *clusterStack) close() {
	if cs.front != nil {
		cs.front.close()
	}
	for _, s := range cs.shards {
		s.close()
	}
}

// setupTimes are the timed parts of one cluster set-up.
type setupTimes struct {
	write, open time.Duration
	mappedMB    float64
}

// buildCluster slices the monolith into two entity-range shards,
// writes each with SaveSnapshot, opens it with OpenSnapshot (served off
// the mapping), forces the lazy variant-index build, and starts the
// shard servers and the coordinator. With a tracer the shard engines
// are wrapped and the coordinator's fan-out client is timed.
func buildCluster(mono *xclean.Engine, dir string, warm string, tr *Tracer) (*clusterStack, setupTimes, error) {
	var st setupTimes
	cs := &clusterStack{}
	var urls []string
	for i := 0; i < 2; i++ {
		sh, err := mono.ShardEngine(i, 2)
		if err != nil {
			return cs, st, err
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.seg", i))
		start := time.Now()
		if err := sh.SaveSnapshot(path); err != nil {
			return cs, st, err
		}
		st.write += time.Since(start)
		start = time.Now()
		eng, err := xclean.OpenSnapshot(path, engineOptions())
		if err != nil {
			return cs, st, err
		}
		st.open += time.Since(start)
		if fi, err := os.Stat(path); err == nil {
			st.mappedMB += float64(fi.Size()) / (1 << 20)
		}
		// The first query builds the snapshot engine's variant index;
		// set-up is not over until it has.
		if _, err := eng.SuggestPartialsContext(context.Background(), warm); err != nil {
			return cs, st, err
		}
		var se server.Engine = eng
		if tr != nil {
			se = &tracedEngine{e: eng, t: tr}
		}
		sv, err := serve(server.New(se, server.Config{CacheSize: cacheSize}), tr)
		if err != nil {
			return cs, st, err
		}
		cs.shards = append(cs.shards, sv)
		urls = append(urls, sv.url)
	}
	ccfg := cluster.Config{
		Shards:  cluster.SingleReplica(urls...),
		Beta:    5,
		K:       topK,
		Timeout: 2 * time.Second, // xserve -shard-timeout default
	}
	if tr != nil {
		ccfg.Client = &http.Client{Transport: &legTransport{
			base: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second},
			t:    tr,
		}}
	}
	coord, err := cluster.New(ccfg)
	if err != nil {
		return cs, st, err
	}
	front, err := serve(server.New(nil, server.Config{Cluster: coord, CacheSize: cacheSize}), tr)
	if err != nil {
		return cs, st, err
	}
	cs.front = front
	return cs, st, nil
}

// op is one scheduled request of the open loop.
type op struct {
	due     time.Duration // offset from the phase start
	queries []int         // pool indices; one for a GET
	batch   bool
}

// schedule draws Poisson arrivals over d, each a GET or (batchShare)
// a batched POST, with Zipf-skewed queries.
func schedule(rng *rand.Rand, zipf *rand.Zipf, rank []int, d time.Duration) []op {
	var ops []op
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / arrivalQPS * float64(time.Second))
		if t >= d {
			return ops
		}
		o := op{due: t, batch: rng.Float64() < batchShare}
		n := 1
		if o.batch {
			n = batchSize
		}
		for i := 0; i < n; i++ {
			o.queries = append(o.queries, rank[zipf.Uint64()])
		}
		ops = append(ops, o)
	}
}

// closedOps draws n GETs all due at once: drive then runs them as a
// closed loop, each client sending its next request as soon as its
// previous one is answered.
func closedOps(zipf *rand.Zipf, rank []int, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i].queries = []int{rank[zipf.Uint64()]}
	}
	return ops
}

// outcome is one request's result.
type outcome struct {
	body    []byte
	err     error
	latency time.Duration // to the response, from the due time or the later send
	late    time.Duration // how late the generator sent it (idle worker)
	waited  bool          // the worker was idle and waited for the due time
}

// drive runs the open loop: nproc client goroutines (one connection
// each) take requests in due order; a request due while every client
// is busy waits, and its latency counts from its due time.
func drive(c *http.Client, base string, pool []Query, ops []op) []outcome {
	out := make([]outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				due := t0.Add(o.due)
				res := &out[i]
				// A request that waited for a free client is timed from
				// its due time: that wait is the program's. One a client
				// was idle for is timed from its send: the client sleeps
				// until the due time, and a timer sleep wakes up to a
				// millisecond late when the process is idle (the
				// runtime's poller waits in whole milliseconds), which
				// is the generator's delay; load.late_p99_ms reports it.
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					res.waited = true
					from = time.Now()
					res.late = from.Sub(due)
				}
				if o.batch {
					qs := make([]string, len(o.queries))
					for j, qi := range o.queries {
						qs[j] = pool[qi].Dirty
					}
					b, _ := json.Marshal(server.BatchSuggestBody{Queries: qs})
					res.body, res.err = postJSON(c, base+"/suggest", b)
				} else {
					res.body, res.err = getSuggest(c, base, pool[o.queries[0]].Dirty)
				}
				res.latency = time.Since(from)
			}
		}()
	}
	wg.Wait()
	return out
}

// runClusterZipf is the cluster-zipf workload.
func runClusterZipf(cfg Config) (*Result, error) {
	in, err := generate(cfg.Sizes.ServeArticles, 0)
	if err != nil {
		return nil, err
	}
	model := in.DBLP.Model
	pool := in.DBLP.pool(cfg.Seed+30, cfg.Sizes.PoolSize)
	prng := rand.New(rand.NewSource(cfg.Seed + 31))
	rank := prng.Perm(len(pool)) // popularity rank → pool index
	zipf := rand.NewZipf(prng, zipfS, 1, uint64(len(pool)-1))
	// The monolith is the reference for rule (e) and the source the
	// shards are sliced from; it is input, built before set-up starts.
	mono, err := xclean.Open(bytes.NewReader(in.DBLP.XML), engineOptions())
	if err != nil {
		return nil, err
	}
	refs := map[string][]Sug{}
	reference := func(q string) ([]Sug, error) {
		if s, ok := refs[q]; ok {
			return s, nil
		}
		sugs, err := mono.SuggestContext(context.Background(), q)
		if err != nil {
			return nil, err
		}
		refs[q] = fromEngine(sugs)
		return refs[q], nil
	}

	res := newResult()
	var tr *Tracer
	if cfg.Trace {
		tr = newTracer()
	}
	client := newClient()
	defer client.CloseIdleConnections()

	// checkOne applies rules (a)–(c) and (e) to one answer.
	rr := map[string]float64{}
	truth := map[string]string{}
	for _, q := range pool {
		truth[q.Dirty] = q.Truth
	}
	checkOne := func(q string, sugs []Sug) {
		if err := checkAnswer(model, q, sugs, eps, topK); err != nil {
			res.check.add(err)
			return
		}
		ref, err := reference(q)
		if err != nil {
			res.check.add(err)
			return
		}
		res.check.add(checkSameAnswer(q, sugs, ref, 1e-12))
		if _, seen := rr[q]; !seen {
			rr[q] = reciprocalRank(truth[q], sugs)
		}
	}

	// Set-up, repeated: slicing, snapshot writing and opening, up to the
	// coordinator's first checked answer.
	var cs *clusterStack
	var totals, writes, opens []float64
	var heap, mapped float64
	for i := 0; i < cfg.Setups; i++ {
		if cs != nil {
			cs.close()
			cs = nil
		}
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		before := heapMB()
		start := time.Now()
		var st setupTimes
		cs, st, err = buildCluster(mono, dir, pool[0].Dirty, tr)
		if err != nil {
			cs.close()
			return nil, fmt.Errorf("cluster set-up: %w", err)
		}
		body, err := getSuggest(client, cs.front.url, pool[0].Dirty)
		if err != nil {
			cs.close()
			return nil, fmt.Errorf("first answer: %w", err)
		}
		totals = append(totals, time.Since(start).Seconds())
		writes = append(writes, st.write.Seconds())
		opens = append(opens, ms(st.open))
		mapped = st.mappedMB
		if i == 0 {
			heap = heapMB() - before
		}
		r, err := decodeSuggest(body)
		if err != nil {
			cs.close()
			return nil, err
		}
		checkOne(pool[0].Dirty, fromJSON(r.Suggestions))
	}
	defer cs.close()
	res.set("setup_s", median(totals))
	res.set("heap_mb", heap)
	res.set("snapfile.write_s", median(writes))
	res.set("snapfile.open_ms", median(opens))
	res.set("snapfile.mapped_mb", mapped)

	// collect decodes and checks one phase's outcomes.
	collect := func(ops []op, outs []outcome) (gets, batches, late []float64, partial int) {
		for i, o := range outs {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				continue
			}
			if !ops[i].batch {
				r, err := decodeSuggest(o.body)
				if err != nil || r.Partial {
					res.Failed++
					partial++
					continue
				}
				checkOne(pool[ops[i].queries[0]].Dirty, fromJSON(r.Suggestions))
				gets = append(gets, ms(o.latency))
			} else {
				var br server.BatchSuggestResponse
				if err := json.Unmarshal(o.body, &br); err != nil || br.Partial || len(br.Results) != len(ops[i].queries) {
					res.Failed++
					partial++
					continue
				}
				for j, r := range br.Results {
					checkOne(pool[ops[i].queries[j]].Dirty, fromJSON(r.Suggestions))
				}
				batches = append(batches, ms(o.latency))
			}
			if o.waited {
				late = append(late, ms(o.late))
			}
		}
		return gets, batches, late, partial
	}

	// Warm-up: a few seconds of the same traffic, so the cache holds
	// the popular queries before the measured window.
	srng := rand.New(rand.NewSource(cfg.Seed + 40))
	warm := schedule(srng, zipf, rank, min(warmup, phaseLen(cfg)/4))
	collect(warm, drive(client, cs.front.url, pool, warm))

	figures := map[bool]map[string]float64{}
	for _, traced := range phases(cfg) {
		if tr != nil {
			tr.on.Store(traced)
		}
		// Collect set-up and warm-up garbage now, not inside the
		// measured window.
		runtime.GC()
		// The open loop runs for two thirds of the phase; a closed loop
		// of a fixed number of GETs, sized to take about the rest on
		// this program, then measures how many queries per second the
		// coordinator answers with every client connection busy.
		ops := schedule(srng, zipf, rank, phaseLen(cfg)*2/3)
		m0, err := metricz(client, cs.front.url)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs := drive(client, cs.front.url, pool, ops)
		elapsed := time.Since(start)
		m1, err := metricz(client, cs.front.url)
		if err != nil {
			return nil, err
		}
		_, batches, late, partial := collect(ops, outs)
		// GET latencies by window of due time, and the closed loop in
		// chunks: each figure is the faster quartile over them (see
		// fastLatency).
		win := phaseLen(cfg) * 2 / 3 / windows
		byWin := make([][]float64, windows)
		for i, o := range outs {
			if !ops[i].batch && o.err == nil {
				w := min(windows-1, int(ops[i].due/win))
				byWin[w] = append(byWin[w], ms(o.latency))
			}
		}
		var p50s, p99s, qps []float64
		for _, l := range byWin {
			if len(l) == 0 {
				continue
			}
			p50s = append(p50s, quantile(l, 0.5))
			p99s = append(p99s, quantile(l, 0.99))
		}
		closedN := int(phaseLen(cfg).Seconds() * closedPerS / windows)
		var closedTime time.Duration
		for i := 0; i < windows; i++ {
			closed := closedOps(zipf, rank, closedN)
			start = time.Now()
			couts := drive(client, cs.front.url, pool, closed)
			d := time.Since(start)
			closedTime += d
			answered, _, _, cpartial := collect(closed, couts)
			partial += cpartial
			qps = append(qps, float64(len(answered))/d.Seconds())
		}
		figures[traced] = map[string]float64{
			"query_p50_ms":         fastLatency(p50s),
			"query_p99_ms":         fastLatency(p99s),
			"query_qps":            fastRate(qps),
			"cluster.batch_p50_ms": quantile(batches, 0.5),
			"cluster.batch_p99_ms": quantile(batches, 0.99),
			"load.late_p99_ms":     quantile(late, 0.99),
		}
		hits, misses := float64(m1.CacheHits-m0.CacheHits), float64(m1.CacheMisses-m0.CacheMisses)
		fmt.Fprintf(os.Stderr, "perfbench: cluster-zipf: %d requests (%d batched) in %.1fs, cache hit ratio %.3f, late p50/p99 %.3f/%.3f ms; closed loop %d GETs in %.1fs; traced=%v\n",
			len(ops), len(batches), elapsed.Seconds(), ratio(hits, hits+misses), quantile(late, 0.5), quantile(late, 0.99), windows*closedN, closedTime.Seconds(), traced)
		if traced || !cfg.Trace {
			res.set("cache.hits", hits)
			res.set("cache.misses", misses)
			res.set("cache.hit_ratio", ratio(hits, hits+misses))
			res.set("cluster.partial", float64(partial))
			var h0, h1 int64
			for _, sm := range m0.Cluster {
				h0 += sm.Hedges
			}
			for _, sm := range m1.Cluster {
				h1 += sm.Hedges
			}
			res.set("cluster.hedges", float64(h1-h0))
		}
	}
	for k, v := range figures[false] {
		res.set(k, v)
	}
	var rrs []float64
	for _, v := range rr {
		rrs = append(rrs, v)
	}
	res.set("mrr", mean(rrs))
	if cfg.Trace {
		tr.report(res)
		reportOverhead(res, figures[false], figures[true])
	}
	return res, nil
}
