package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ccubing"
)

// The serve_read workload: the dashboard path. One server holds the
// minsup-1 closed cube of a Zipf relation (no residual, default 4096-entry
// query cache). Point queries draw skewed keys from a key space far larger
// than the cache, whose hot set fits it; aggregates all have one shape.
// Latency is measured with one client back to back, read_rps with two.
// Nothing is built or written until the read phases end.
const (
	srRows        = 50000
	srDims        = 6
	srCard        = 40
	srSkew        = 1.1
	srUniverse    = 100000                 // distinct point keys the stream draws from
	srKeySkew     = 1.1                    // Zipf exponent over the key ranks
	srRate        = 1000.0                 // open-loop offered rate (traced runs), requests/s
	srLatency     = time.Second            // one-client stretch per read segment
	srClosed      = 250 * time.Millisecond // two-client stretch per read segment
	srReadShare   = 60                     // percent of the run spent reading
	srAggEvery    = 10                     // every 10th request is an aggregate
	srSetups      = 3
	srTailRounds  = 3 // at least; more while the write phase has time
	srTailBatches = 10
	srBatchRows   = 20
	srGroupDim    = 1
)

// srStream generates one client's request sequence.
type srStream struct {
	rng  *rand.Rand
	z    *zipf
	keys [][]int32
	rel  *relation
}

// next returns (true, dim-0 value) for an aggregate, (false, key rank) for
// a point query.
func (s *srStream) next(i int) (bool, int32) {
	if i%srAggEvery == srAggEvery-1 {
		return true, s.rel.row(s.rng.Intn(s.rel.n()))[0]
	}
	return false, int32(s.z.next())
}

// srAnswer is one answer as received, checked after the timed phases.
type srAnswer struct {
	agg bool
	key int32 // key rank, or the aggregate's dimension-0 value
	q   queryAnswer
	a   aggregateAnswer
	err error
}

// srLoad is one client goroutine's sender and answer log.
type srLoad struct {
	base    string
	c       *client
	st      *srStream
	answers []srAnswer
}

func aggURL(base string, where []int32, groupBy int) string {
	return base + "/v1/aggregate?where=" + whereParam(where) + "&group_by=d" + itoa(groupBy)
}

func (l *srLoad) send(i int) string {
	agg, k := l.st.next(i)
	ans := srAnswer{agg: agg, key: k}
	var id string
	if agg {
		where := make([]int32, srDims)
		for d := range where {
			where[d] = star
		}
		where[0] = k
		id, ans.err = l.c.do(http.MethodGet, aggURL(l.base, where, srGroupDim), nil, &ans.a)
	} else {
		id, ans.err = l.c.do(http.MethodGet, l.base+"/v1/query?values="+keyValues(l.st.keys[k]), nil, &ans.q)
		if len(l.answers)%64 != 0 {
			ans.q.Closure = nil // closure is checked on a sample
		}
	}
	l.answers = append(l.answers, ans)
	return id
}

func srCards() ([]int, []float64) {
	cards := make([]int, srDims)
	skews := make([]float64, srDims)
	for d := range cards {
		cards[d], skews[d] = srCard, srSkew
	}
	return cards, skews
}

func runServeRead(r *run) error {
	cards, skews := srCards()
	opt := ccubing.Options{MinSup: 1}
	wal := filepath.Join(r.work, "serve.wal")
	var rec *spanRecorder
	if r.trace {
		rec = newSpanRecorder()
	}

	// Set-up, repeated: generate the relation, materialize, serve with a WAL
	// as `ccserve -synth ... -wal` does.
	var (
		rel            *relation
		srv            *node
		setups, builds samples
		allocs         []float64
		heap           float64
	)
	for i := 0; i < srSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			os.Remove(wal)
		}
		runtime.GC()
		start := time.Now()
		rel = zipfRelation(r.seed, srRows, cards, skews)
		ds, err := rel.dataset()
		if err != nil {
			return err
		}
		pre := time.Since(start)
		last := i == srSetups-1
		var h0 uint64
		if last {
			h0 = liveHeap()
		}
		start = time.Now()
		m0 := readMem()
		cube, err := ccubing.Materialize(ds, opt)
		if err != nil {
			return err
		}
		builds.add(time.Since(start))
		allocs = append(allocs, mb(readMem().totalAlloc-m0.totalAlloc))
		if err := cube.AutoRefresh(ccubing.AutoRefreshOptions{WAL: wal}); err != nil {
			return err
		}
		if srv, err = startLocal("single", "127.0.0.1:0", cube, 0, 0, rec); err != nil {
			return err
		}
		setups.add(pre + time.Since(start))
		if last {
			heap = mb(liveHeap() - h0)
		}
	}
	defer func() { srv.stop() }()
	r.set("setup_s", setups.median())
	r.set("build_alloc_mb", medianOf(allocs))
	r.set("live_heap_mb", heap)

	orc := newOracle(rel, 0)
	krng := rand.New(rand.NewSource(r.seed*31 + 7))
	keys := make([][]int32, srUniverse)
	for i := range keys {
		keys[i] = pointKey(krng, rel, 0.5)
	}
	base := "http://" + srv.addr
	loads := make([]*srLoad, 2)
	for i := range loads {
		rng := rand.New(rand.NewSource(r.seed*1000003 + int64(i)))
		loads[i] = &srLoad{base: base, c: newClient(fmt.Sprintf("c%d-", i)),
			st: &srStream{rng: rng, z: newZipf(rng, srKeySkew, srUniverse), keys: keys, rel: rel}}
		defer loads[i].c.close()
	}
	r.logf("serve_read: top-4096 key ranks carry %.1f%% of point draws", 100*loads[0].st.z.share(ccubing.DefaultQueryCacheEntries))

	scrapeC := newClient("m-")
	defer scrapeC.close()
	met0, err := scrape(scrapeC, srv.addr)
	if err != nil {
		return err
	}
	both := func(end time.Time) []reqTiming {
		var wg sync.WaitGroup
		out := make([][]reqTiming, len(loads))
		for i, l := range loads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i] = closedLoop(end, l.send)
			}()
		}
		wg.Wait()
		return append(out[0], out[1]...)
	}

	// The served cube's snapshot: its size, and a reload timed after every
	// read segment.
	var sbuf bytes.Buffer
	saveTime := timed(func() { err = srv.local.Cube().Save(&sbuf) })
	if err != nil {
		return err
	}
	snap := sbuf.Bytes()
	r.set("snapshot_mb", mb(uint64(len(snap))))

	// Warm-up: fill the cache and the connection pools.
	both(time.Now().Add(time.Second))

	// Read segments until the read share of the run is used: a second of one
	// client back to back (the latency sample), a stretch of two clients (the
	// throughput sample), a snapshot reload. Interleaving spreads every
	// metric's samples over the whole phase. Traced runs add an open-loop
	// second at a fixed rate, reported as loadgen.* (see README: on a small
	// VM, open-loop timing at sub-millisecond service times measures the
	// hypervisor's wake-up latency more than the program).
	readDur := r.seconds * srReadShare / 100
	readEnd := time.Now().Add(readDur)
	tracedFrom := time.Now().Add(readDur * 2 / 5)
	lc := loads[0]
	gc0 := readMem()
	var (
		qlat, qTraced, alat, late, open, loadTimes samples
		traced, cl                                 []reqTiming
		clSecs                                     float64
		clAlloc                                    uint64
		loaded                                     *ccubing.Cube
	)
	for seg := 0; seg < 3 || time.Now().Before(readEnd); seg++ {
		tr := r.trace && seg >= 1 && time.Now().After(tracedFrom)
		if tr {
			first := len(lc.answers)
			for i, t := range openLoop(time.Now().Add(time.Millisecond), srRate, int(srRate/2), lc.send) {
				late.add(t.late())
				if !lc.answers[first+i].agg {
					open.add(t.latency())
				}
			}
			rec.on.Store(true)
		}
		first := len(lc.answers)
		for i, t := range closedLoop(time.Now().Add(srLatency), lc.send) {
			switch {
			case lc.answers[first+i].agg:
				alat.add(t.latency())
			case tr:
				qTraced.add(t.latency())
				traced = append(traced, t)
			default:
				qlat.add(t.latency())
			}
		}
		m0 := readMem()
		start := time.Now()
		c := both(start.Add(srClosed))
		clSecs += time.Since(start).Seconds()
		clAlloc += readMem().totalAlloc - m0.totalAlloc
		cl = append(cl, c...)
		if tr {
			traced = append(traced, c...)
			rec.on.Store(false)
		}
		var lerr error
		loadTimes.add(timed(func() { loaded, lerr = ccubing.LoadCube(bytes.NewReader(snap)) }))
		if lerr != nil {
			return lerr
		}
	}
	m1 := readMem()
	rec.off()
	met1, err := scrape(scrapeC, srv.addr)
	if err != nil {
		return err
	}
	r.set("query_p50_ms", qlat.median()*1e3)
	r.set("query_p90_ms", qlat.quantile(0.9)*1e3)
	r.set("tail.query_p99_ms", qlat.chunkedP99()*1e3)
	r.set("aggregate_p50_ms", alat.median()*1e3)
	r.set("read_rps", float64(len(cl))/clSecs)
	r.set("load_s", loadTimes.median())
	r.logf("serve_read: %d point samples, %d closed-loop requests, %d reloads", len(qlat)+len(qTraced), len(cl), len(loadTimes))

	// Check every answer against the oracle.
	var queries, aggs int
	for _, l := range loads {
		for _, a := range l.answers {
			if a.agg {
				aggs++
			} else {
				queries++
			}
		}
		r.checkServeAnswers(orc, keys, l.answers)
	}

	if r.trace {
		var handler, transport samples
		var hsum, rsum float64
		for _, t := range traced {
			sp := rec.take(t.id)
			if len(sp) != 1 {
				r.wrong("request %s: %d handler spans, want 1", t.id, len(sp))
				continue
			}
			h := sp[0].end.Sub(sp[0].start)
			handler.add(h)
			transport.add(t.rtt() - h)
			hsum += h.Seconds()
			rsum += t.rtt().Seconds()
		}
		r.set("serve.handler_us", handler.median()*1e6)
		r.set("serve.transport_us", transport.median()*1e6)
		r.set("serve.alloc_kb_per_req", float64(clAlloc)/1024/float64(len(cl)))
		r.set("trace.coverage", hsum/rsum)
		r.set("trace.overhead", qTraced.median()/qlat.median())
		r.set("loadgen.late_p99_ms", late.quantile(0.99)*1e3)
		r.set("loadgen.open_p50_ms", open.median()*1e3)
		r.set("loadgen.open_p99_ms", open.quantile(0.99)*1e3)
		r.setGC(gc0, m1)
		hits := delta(met0, met1, "ccubing_cache_hits_total")
		misses := delta(met0, met1, "ccubing_cache_misses_total")
		if hits+misses > 0 {
			r.set("qcache.hit_ratio", hits/(hits+misses))
		}
		r.set("qcache.evictions", delta(met0, met1, "ccubing_cache_evictions_total"))
		r.setProbeLayer(met0, met1)
		mism := 0
		mism += r.crossCheck("single query requests", delta(met0, met1, `ccubing_http_request_seconds_count{endpoint="query"}`), queries)
		mism += r.crossCheck("single aggregate requests", delta(met0, met1, `ccubing_http_request_seconds_count{endpoint="aggregate"}`), aggs)
		mism += r.crossCheck("single cache lookups", hits+misses, queries+aggs)
		r.set("obs.crosscheck_mismatches", float64(mism))
	}

	if r.trace {
		r.set("ccubing.save_s", saveTime.Seconds())
		sample := make([][]int32, 5000)
		for i := range sample {
			sample[i] = keys[loads[0].st.z.next()]
		}
		aggWhere := make([][]int32, 200)
		for i := range aggWhere {
			w := make([]int32, srDims)
			for d := range w {
				w[d] = star
			}
			w[0] = rel.row(krng.Intn(rel.n()))[0]
			aggWhere[i] = w
		}
		q, qc, a, err := facadeReads(loaded, sample, aggWhere, []string{"d1"})
		if err != nil {
			return err
		}
		r.set("ccubing.query_us", q)
		r.set("ccubing.query_cached_us", qc)
		r.set("ccubing.aggregate_ms", a)
		ds, err := rel.dataset()
		if err != nil {
			return err
		}
		l, err := measureBuildLayers(ds, opt)
		if err != nil {
			return err
		}
		r.setBuildLayers(l, builds.median())
	}

	// Writes after the read phases: appends, a graceful restart (the WAL
	// replays them), a refresh folding them in, then a reset to the base.
	w := &writeTail{r: r, rel: rel, orc: orc, opt: opt, wal: wal, c: newClient("w-"), rec: rec,
		rng: rand.New(rand.NewSource(r.seed*131 + 3))}
	defer w.c.close()
	if srv, err = w.run(srv, r.seconds*(100-srReadShare)/100); err != nil {
		return err
	}
	r.set("build_s", append(builds, w.rebuilds...).median())
	if r.trace {
		r.zeroLayers(perLayerNames()...)
	}
	return nil
}

// crossCheck compares one of the program's counters with the harness's own
// tally; it returns 1 on a mismatch.
func (r *run) crossCheck(what string, program float64, harness int) int {
	if program != float64(harness) {
		r.wrong("/metrics cross-check: %s: program counted %g, harness sent %d", what, program, harness)
		return 1
	}
	return 0
}

// checkServeAnswers compares serve_read answers with the oracle.
func (r *run) checkServeAnswers(orc *oracle, keys [][]int32, answers []srAnswer) {
	counts := map[int32]int64{}
	groups := map[int32]map[string]aggRow{}
	for _, a := range answers {
		r.op(a.err != nil)
		if a.err != nil {
			continue
		}
		if a.agg {
			want, ok := groups[a.key]
			if !ok {
				where := make([]int32, orc.rel.nd)
				for d := range where {
					where[d] = star
				}
				where[0] = a.key
				want = orc.aggregate(where, []int{srGroupDim}, -1)
				groups[a.key] = want
			}
			if !a.a.Exact {
				r.wrong("aggregate d0=%d: exact=false", a.key)
			}
			if err := compareAggregate(want, a.a.groups([]int{srGroupDim}), false); err != nil {
				r.wrong("aggregate d0=%d: %v", a.key, err)
			}
			continue
		}
		k := keys[a.key]
		want, ok := counts[a.key]
		if !ok {
			want, _ = orc.count(k, -1)
			counts[a.key] = want
		}
		if a.q.Found != (want > 0) || a.q.Count != want {
			r.wrong("query %v = (%v, %d), oracle %d", k, a.q.Found, a.q.Count, want)
			continue
		}
		if a.q.Closure != nil {
			c, err := parseCell(a.q.Closure)
			if err == nil {
				err = orc.checkClosure(k, c, want)
			}
			if err != nil {
				r.wrong("query %v: %v", k, err)
			}
		}
	}
}
